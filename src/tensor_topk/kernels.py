"""Hot numeric kernels: batched element evaluation, block expansion split
into two halves, and masked argmax."""

import math

import numpy as np

# There is no compiled path; perfbench/run.py reports this flag.
NUMBA_ENABLED = False


def stack_factors(factors):
    """Stack factor matrices vertically; returns (stacked, row offsets).

    Factor p occupies rows offsets[p]:offsets[p+1] of the stacked array.
    """
    offsets = np.zeros(len(factors) + 1, dtype=np.int64)
    for p, f in enumerate(factors):
        offsets[p + 1] = offsets[p] + f.shape[0]
    return np.ascontiguousarray(np.vstack(factors)), offsets


def eval_elements(stacked, offsets, tuples):
    """Evaluate tensor entries at the given index tuples (rows, 0-based).

    A row's bits do not depend on the other rows in the call: numpy rounds a
    one-element in-place complex product (a lone rank-1 row) apart from its
    vector loop, so a lone row is evaluated as two copies of itself.
    """
    tuples = np.ascontiguousarray(tuples, dtype=np.int64)
    n = tuples.shape[0]
    if n == 1:
        tuples = np.repeat(tuples, 2, axis=0)
    prod = np.ones((tuples.shape[0], stacked.shape[1]), dtype=stacked.dtype)
    for p in range(offsets.shape[0] - 1):
        prod *= stacked[offsets[p] + tuples[:, p], :]
    return prod.sum(axis=1)[:n]


def block_expand(stacked, offsets, modes, dims):
    """Per-rank products over a mode subset, one row per block cell.

    Row lin of the result is prod_t stacked_factor[modes[t]][i_t, :] where
    (i_0, i_1, ...) are the digits of lin with the first listed mode fastest.
    """
    modes = np.ascontiguousarray(modes, dtype=np.int64)
    dims = np.ascontiguousarray(dims, dtype=np.int64)
    acc = stacked[offsets[modes[0]]:offsets[modes[0]] + dims[0]]
    for t in range(1, len(modes)):
        f = stacked[offsets[modes[t]]:offsets[modes[t]] + dims[t]]
        # C-order reshape of (n_t, vol_prev, R) makes the earlier modes fastest
        acc = (f[:, None, :] * acc[None, :, :]).reshape(-1, stacked.shape[1])
    return acc if len(modes) > 1 else acc.copy()


def half_split(dims):
    """How many leading modes of a mode list form the leading half of a
    half-split product: the split whose two halves' cell counts sum least,
    the first on a tie (an empty half is one cell)."""
    dims = [int(n) for n in dims]
    total = math.prod(dims)
    lead_cells = [math.prod(dims[:s]) for s in range(len(dims) + 1)]
    return min(range(len(dims) + 1), key=lambda s: lead_cells[s] + total // lead_cells[s])


def expand_halves(stacked, offsets, modes, dims):
    """`block_expand` of the leading and trailing halves of a mode list, split
    at `half_split`; an empty half is one row of ones.

    The product of the whole list summed over the rank is then one GEMM,
    ``trail @ lead.T``, whose C-order cells run over the leading half fastest,
    the same order as `block_expand`'s rows.
    """
    modes = np.asarray(modes, dtype=np.int64)
    dims = np.asarray(dims, dtype=np.int64)
    s = half_split(dims)
    return tuple(block_expand(stacked, offsets, ms, ds) if ms.size
                 else np.ones((1, stacked.shape[1]), dtype=stacked.dtype)
                 for ms, ds in ((modes[:s], dims[:s]), (modes[s:], dims[s:])))


def masked_argmax(keyed, forbidden):
    """Index of the largest keyed value outside ``forbidden``.

    Ties resolve to the smallest index.  Values are assumed finite, and at
    least one index must be left outside ``forbidden``.  The solver lists a
    subproblem's top cells with it: each entry after the argmax is the
    masked argmax outside the entries before it, so the list runs in key
    order with ties to the smaller index.
    """
    keyed = np.array(keyed, dtype=np.float64)
    keyed[np.asarray(forbidden, dtype=np.int64)] = -np.inf
    return int(np.argmax(keyed))
