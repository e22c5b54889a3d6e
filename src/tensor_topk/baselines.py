"""Reference methods: the exhaustive dense oracle and a shifted power iteration.

Both scan a dense array from `cp.materialize`, whose rounding is a GEMM's,
only to rank entries and locate them; every value they report or use is
read exactly through `cp.elements_at`.  The oracle's cap is a fixed
``cp.DENSE_CAP_DEFAULT`` = 2^22 entries (``ORACLE_CAP_DEFAULT``).  Power
iteration takes no settings: at most ``MAX_ITERS`` steps, recompression to
rank ``RANK_CAP`` (at most ``recompress.ALS_SWEEPS`` ALS sweeps, to the fit
tolerance ``recompress.ALS_TOL``), the overlap test ``1 - OVERLAP_TOL`` and
``recompress.HOPM_ITERS`` rank-one fit sweeps for the peak.  A tensor with
at most ``NONNEG_CHECK_CAP`` entries is scanned and shifted by just enough
to make it nonnegative, ``max(0, -min(A))``; a larger one is shifted by
``frob_norm(A)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cp
from .errors import DegenerateInputError, InfeasibleKError
from .recompress import rank_one_argmax, recompress
from .solver import OrderingKey, TopKResult, _check_integer, _check_key_field, key_values

ORACLE_CAP_DEFAULT = cp.DENSE_CAP_DEFAULT

MAX_ITERS = 200
RANK_CAP = 10
OVERLAP_TOL = 1e-12
NONNEG_CHECK_CAP = 1 << 20


def oracle_topk(A, k, key=OrderingKey.MAX, max_elems=ORACLE_CAP_DEFAULT):
    """Exact top-k by materializing the tensor and scanning every entry.

    Ground truth for anything small enough to densify; ties resolve to the
    smallest linear index, like the solver.  The dense array only ranks the
    entries: the values, and the objective summed from them, are read
    through `cp.elements_at`, so they are the bits the solver reports.
    Raises ValueError for a k that is no integer (a bool is not one) or is
    below 1 and, as `solve` does, for the real keys max and min on a complex
    tensor, before anything is densified, and `materialize`'s CapacityError
    above ``max_elems`` entries.
    """
    _check_integer("k", k)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    _check_key_field(key, A.is_complex)
    total = A.size()
    if total < k:
        raise InfeasibleKError(f"k={k} exceeds the tensor size of {total} entries")
    neg = -key_values(cp.materialize(A, max_elems).ravel(order="F"), key)
    # Only entries whose key ties or beats the k-th can be in the top k, so
    # just those are sorted.  NaN sorts last, as in a full lexsort, and
    # ``~(neg > kth)`` keeps every entry when the k-th key is NaN.
    kth = np.partition(neg, k - 1)[k - 1]
    cand = np.flatnonzero(~(neg > kth))
    order = cand[np.lexsort((cand, neg[cand]))[:k]]
    indices = np.column_stack(np.unravel_index(order, A.dims, order="F")).astype(np.int64)
    values = cp.elements_at(A, indices)
    return TopKResult(
        values=values,
        indices=indices,
        objective=float(key_values(values, key).sum()),
        sweeps_used=0,
        converged=True,
        diagnostics={"method": "oracle", "scanned": int(total)},
    )


def _resolve_shift(A):
    """The constant power iteration adds to A before iterating.

    On a tensor of at most ``NONNEG_CHECK_CAP`` entries, the smallest shift
    that makes it nonnegative, ``max(0, -min(A))``: one dense scan locates
    the least and the largest entry, and `cp.elements_at` reads both
    exactly.  A larger shift pulls B's entry ratios toward 1, so each
    Hadamard step separates the peak less.  B's entries at A's minimum can
    still come out negative by one rounding error, as B is built from the
    factors.  A larger tensor is never scanned and gets ``frob_norm(A)``,
    which keeps B nonnegative only where that norm bounds A's negative
    entries.  So does a constant negative tensor, which the least shift
    would turn into zero.
    """
    if A.size() <= NONNEG_CHECK_CAP:
        flat = cp.materialize(A, NONNEG_CHECK_CAP).ravel(order="F")
        lins = [flat.argmin(), flat.argmax()]
        ends = np.column_stack(np.unravel_index(lins, A.dims, order="F"))
        low, high = cp.elements_at(A, ends)
        if low >= 0.0 or low < high:
            return max(0.0, -float(low))
    return cp.frob_norm(A)


def _balance_columns(A):
    """Equalize per-column factor norms across modes.

    Represents the same tensor (up to rounding).  Repeated Hadamard products
    square factor entries, and without rebalancing the per-mode Gram products
    overflow long before the normalized iterate itself is large.
    """
    fs = [f.copy() for f in A.factors]
    norms = np.stack([np.sqrt((f * f).sum(axis=0)) for f in fs])
    norms = np.where(norms > 0.0, norms, 1.0)
    target = np.exp(np.log(norms).mean(axis=0))
    for p, f in enumerate(fs):
        f *= target / norms[p]
    return cp._wrap(fs)


@dataclass(frozen=True)
class PowerIterResult:
    """Outcome of `power_iteration_max`.

    ``value`` is the exact entry of A at ``loc``.  ``iterations`` counts the
    power steps taken, ``converged`` says whether the last step met the
    overlap test, and ``als_sweeps`` is the total of ALS sweeps over every
    `recompress` call of the run.
    """

    value: float
    loc: tuple
    iterations: int
    converged: bool
    als_sweeps: int


def power_iteration_max(A):
    """Largest-entry estimate via Hadamard-product power iteration.

    Shifts A to a nonnegative tensor B, iterates y <- B o y with
    normalization (recompressing whenever the rank passes ``RANK_CAP``),
    reads the peak location from the last iterate's best rank-one factors,
    and reports the exact entry of A there.  Real tensors only, with finite
    factors and norm (ValueError otherwise, before the first step).

    The loop stops when consecutive iterates overlap to within
    ``OVERLAP_TOL`` or after ``MAX_ITERS`` steps.  The shift is the least
    that makes B nonnegative when A is small enough to scan (see
    `_resolve_shift`).  Separable rank-one inputs converge, and so did 5 of
    the 30 draws of bench trials 0-9 on u01, um11 and u075; the other 25
    ran all ``MAX_ITERS`` steps, although 23 of them found the peak.  Each
    recompression stops once its relative fit changes by less than
    ``recompress.ALS_TOL`` between ALS sweeps, or after
    ``recompress.ALS_SWEEPS`` sweeps.
    """
    if A.is_complex:
        raise ValueError("power iteration orders real values; tensor is complex")
    if cp.finite_frob_norm(A) == 0.0:
        raise DegenerateInputError("power iteration needs a nonzero tensor")
    shift_s = _resolve_shift(A)
    B = cp.shift(A, shift_s)
    y = cp.scale(cp.cp_ones(A.dims), 1.0 / np.sqrt(A.size()))
    iterations, converged, als_sweeps = 0, False, 0
    for iterations in range(1, MAX_ITERS + 1):
        z = _balance_columns(cp.hadamard(B, y))
        norm_z = cp.frob_norm(z)
        if norm_z == 0.0:
            raise DegenerateInputError("iterate collapsed to zero")
        z = cp.scale(z, 1.0 / norm_z)
        if z.rank > RANK_CAP:
            z, sweeps = recompress(z, RANK_CAP)
            als_sweeps += sweeps
            zn = cp.frob_norm(z)
            if zn == 0.0:
                raise DegenerateInputError("iterate collapsed to zero")
            z = cp.scale(z, 1.0 / zn)
        converged = abs(cp.inner(y, z)) >= 1.0 - OVERLAP_TOL
        y = z
        if converged:
            break
    loc = rank_one_argmax(y)
    return PowerIterResult(cp.element(A, loc), loc, iterations, converged, als_sweeps)
