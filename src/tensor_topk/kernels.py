"""Hot numeric kernels: batched element evaluation, block expansion, argmax
along columns and masked argmax."""

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


def block_expand(stacked, offsets, modes, dims, *, out=None):
    """Per-rank products over a mode subset, one row per block cell.

    Row lin of the result is prod_t stacked_factor[modes[t]][i_t, :] where
    (i_0, i_1, ...) are the digits of lin with the first listed mode fastest.
    ``out``, if given, must be a C-contiguous (prod(dims), rank) array; the
    result is written there and ``out`` itself is returned.
    """
    modes = np.ascontiguousarray(modes, dtype=np.int64)
    dims = np.ascontiguousarray(dims, dtype=np.int64)
    rank = stacked.shape[1]
    shape = (int(np.prod(dims)), rank)
    if out is None:
        out = np.empty(shape, dtype=stacked.dtype)
    elif out.shape != shape or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous {shape} array")
    last = len(modes) - 1
    acc = stacked[offsets[modes[0]]:offsets[modes[0]] + dims[0]]
    if last == 0:
        np.copyto(out, acc)
    for t in range(1, last + 1):
        f = stacked[offsets[modes[t]]:offsets[modes[t]] + dims[t]]
        # C-order reshape of (n_t, vol_prev, R) makes the earlier modes fastest;
        # the last step writes straight into out
        dst = out.reshape(dims[t], -1, rank) if t == last else None
        acc = np.multiply(f[:, None, :], acc[None, :, :], out=dst).reshape(-1, rank)
    return out


def column_argmax(keyed):
    """``keyed.argmax(axis=0)`` of a C-contiguous (n, m) array with no NaN:
    ties to the smallest row.

    Argmax along axis 0 first copies the whole array transposed.  Here the
    rows are cut into g slabs of n // g, g the largest divisor of n up to
    sqrt(n); the slabs are max-reduced over long contiguous runs, and only
    the cells that hold a column's maximum are searched for the first one.
    """
    n, m = keyed.shape
    divisors = np.arange(1, math.isqrt(n) + 1)
    groups = int(divisors[n % divisors == 0][-1])
    per = n // groups
    part = keyed.reshape(groups, per * m).max(axis=0).reshape(per, m)
    best = part.max(axis=0)
    ps, js = np.nonzero(part == best)
    gs = (keyed.reshape(groups, per, m)[:, ps, js] == best[js]).argmax(axis=0)
    rows = np.full(m, n, dtype=np.int64)
    np.minimum.at(rows, js, gs * per + ps)
    return rows


def masked_argmax(keyed, forbidden):
    """Index of the largest keyed value outside ``forbidden``.

    Ties resolve to the smallest index.  Values are assumed finite, and at
    least one index must be left outside ``forbidden``.
    """
    keyed = np.array(keyed, dtype=np.float64)
    keyed[np.asarray(forbidden, dtype=np.int64)] = -np.inf
    return int(np.argmax(keyed))
