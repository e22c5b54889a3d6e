"""Hot numeric kernels: batched element evaluation, block expansion, masked argmax."""

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
    """Evaluate tensor entries at the given index tuples (rows, 0-based)."""
    tuples = np.ascontiguousarray(tuples, dtype=np.int64)
    prod = np.ones((tuples.shape[0], stacked.shape[1]), dtype=stacked.dtype)
    for p in range(offsets.shape[0] - 1):
        prod *= stacked[offsets[p] + tuples[:, p], :]
    return prod.sum(axis=1)


def block_expand(stacked, offsets, modes, dims):
    """Per-rank products over a mode subset, one row per block cell.

    Row lin of the result is prod_t stacked_factor[modes[t]][i_t, :] where
    (i_0, i_1, ...) are the digits of lin with the first listed mode fastest.
    """
    modes = np.ascontiguousarray(modes, dtype=np.int64)
    dims = np.ascontiguousarray(dims, dtype=np.int64)
    rank = stacked.shape[1]
    acc = stacked[offsets[modes[0]]:offsets[modes[0]] + dims[0]].copy()
    for t in range(1, len(modes)):
        f = stacked[offsets[modes[t]]:offsets[modes[t]] + dims[t]]
        # C-order reshape of (n_t, vol_prev, R) makes the earlier modes fastest
        acc = (f[:, None, :] * acc[None, :, :]).reshape(-1, rank)
    return acc


def masked_argmax(keyed, forbidden):
    """Index of the largest keyed value outside ``forbidden``, or -1.

    Ties resolve to the smallest index.  Values are assumed finite.
    """
    keyed = np.ascontiguousarray(keyed, dtype=np.float64)
    forbidden = np.ascontiguousarray(forbidden, dtype=np.int64)
    if forbidden.shape[0]:
        keyed = keyed.copy()
        keyed[forbidden] = -np.inf
    lin = int(np.argmax(keyed))
    if np.isneginf(keyed[lin]):
        return -1
    return lin
