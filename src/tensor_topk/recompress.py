"""Rank reduction by alternating least squares, and best rank-one location.

Both routines work entirely in factorized form, so cost never depends on
the dense tensor size.  ALS to target rank T keeps, for each mode p of an
R-term tensor, one stacked (R + T) x T array: the R x T cross matrix
A_p^T conj(B_p) over the T x T Gram matrix B_p^H B_p.  A mode's update
takes the Hadamard product of the other modes' stacks in one reduction and
slices its right-hand side and normal matrix out of it.
"""

from __future__ import annotations

import numpy as np

from .cp import _wrap, finite_frob_norm
from .errors import DegenerateInputError
from .solver import _check_integer

RIDGE_SCALE = 1e-12
HOPM_ITERS = 100
ALS_SWEEPS = 50
ALS_TOL = 1e-8


def _term_norms(A):
    norms = np.ones(A.rank)
    for f in A.factors:
        norms *= np.linalg.norm(f, axis=0)
    return norms


def _init_factors(A, target_rank):
    # Greedy start: the target_rank largest-norm rank-one terms.  take(axis=1)
    # gathers into C order; f[:, keep] would give Fortran order, and the
    # ALS products on it could round differently.
    keep = np.argsort(-_term_norms(A), kind="stable")[:target_rank]
    return [f.take(keep, axis=1) for f in A.factors]


# A real mode with target rank T >= 2 and fewer than MERGE_ROW_LIMIT rows
# forms its cross and Gram matrices in one GEMM, [A_p | B_p]^T B_p.  That is
# bit-equal to the two separate products only where the BLAS runs the same
# kernel for both.  Measured with OpenBLAS 0.3.31 (SkylakeX kernels, one
# thread) over 11,616 shapes with n 1-300, R 2-1000 and T 2-40, for B_p in C
# order (as _init_factors gives it) and in Fortran order (as the solve
# gives it): the 1,748 mismatches were all Gram matrices of a Fortran-order
# B_p with n >= 32 and T <= 34.  That is where OpenBLAS admits its
# small-matrix kernel for the separate Gram product's transpose case
# (K >= 32, M*N <= 1200) and so rounds it differently.  At T = 1 numpy
# calls gemv, and 1,061 of 2,301 shapes with n 1-39 and R 1-59 differed.  A
# complex mode has no merged form: its cross product takes conj(B_p) on the
# right, its Gram product B_p.
# tests/test_recompress.py::test_merged_cross_gram_rule pins the rule.
MERGE_ROW_LIMIT = 32


def _merge_buffer(a, target_rank):
    """The (n, R + T) buffer [a | B_p] for factor ``a`` of a mode whose cross
    and Gram products merge (see ``MERGE_ROW_LIMIT``), with ``a`` written in;
    None for a mode that keeps the two products apart."""
    n, rank = a.shape
    if target_rank < 2 or n >= MERGE_ROW_LIMIT or np.iscomplexobj(a):
        return None
    wide = np.empty((n, rank + target_rank))
    wide[:, :rank] = a
    return wide


def _cross_gram(a, f, wide, out):
    """Write a mode's stack [a^T conj(f); f^H f] into ``out``.

    ``wide`` is the mode's `_merge_buffer`.  Apart, the Gram product takes
    conj(f) as a separate array: f.conj() is f itself for real f, and numpy
    would then route f.T @ f to syrk, whose bits differ from gemm's.
    """
    rank = a.shape[1]
    if wide is None:
        np.matmul(a.T, f.conj(), out=out[:rank])
        np.matmul(np.conj(f).T, f, out=out[rank:])
    else:
        wide[:, rank:] = f
        np.matmul(wide.T, f, out=out)


def recompress(A, target_rank):
    """Best-fit CP tensor of rank ``target_rank``, by ALS sweeps.

    ``target_rank`` must be an integer in [1, A.rank] (numpy integers too,
    bools not), and A's factors and norm finite; the fit starts from A's
    ``target_rank`` largest-norm terms.  Stops after ``ALS_SWEEPS`` sweeps
    or when the relative fit changes by less than ``ALS_TOL`` between
    sweeps.  Normal equations are solved with a ridge of RIDGE_SCALE times
    the Gram trace, so redundant (rank-deficient) inputs do not break the
    solve.  Returns the fitted tensor and the number of ALS sweeps run
    (0 for a zero A).
    """
    _check_integer("target rank", target_rank)
    if not 1 <= target_rank <= A.rank:
        raise ValueError(f"target rank must be in [1, {A.rank}], got {target_rank}")
    norm_a = finite_frob_norm(A)
    if norm_a == 0.0:
        return _wrap([np.zeros((n, target_rank), dtype=A.dtype) for n in A.dims]), 0
    facs = _init_factors(A, target_rank)
    rank = A.rank
    wide = [_merge_buffer(a, target_rank) for a in A.factors]
    # stack[p] is mode p's [cross; gram] stack, except while mode p updates:
    # then it holds run, the product over the modes already updated this
    # sweep.  Mode p's fold over stack[p:] multiplies on the modes after it
    # in ascending order, so it is the same left fold from ones as over all
    # q != p.
    stack = np.empty((A.order, rank + target_rank, target_rank), dtype=A.dtype)
    for p, a in enumerate(A.factors):
        _cross_gram(a, facs[p], wide[p], stack[p])
    run = np.empty_like(stack[0])
    prod = np.empty_like(stack[0])
    eye = np.eye(target_rank)
    tiny = np.finfo(float).tiny
    prev_fit = None
    sweeps = 0
    for sweeps in range(1, ALS_SWEEPS + 1):
        run.fill(1.0)
        for p, a in enumerate(A.factors):
            stack[p] = run
            np.multiply.reduce(stack[p:], axis=0, out=prod)
            rhs = a @ prod[:rank]
            lhs = prod[rank:].conj()
            ridge = RIDGE_SCALE * max(float(lhs.trace().real), tiny)
            facs[p] = np.linalg.solve((lhs + ridge * eye).T, rhs.T).T
            _cross_gram(a, facs[p], wide[p], stack[p])
            run *= stack[p]
        # ||A - B||^2 from factorized inner products only: after the last
        # mode, run is the stack's product over every mode
        ab = run[:rank].sum().conj()
        bb = float(run[rank:].sum().real)
        err2 = max(norm_a * norm_a - 2.0 * float(ab.real) + bb, 0.0)
        fit = np.sqrt(err2) / norm_a
        if prev_fit is not None and abs(prev_fit - fit) < ALS_TOL:
            break
        prev_fit = fit
    return _wrap(facs), sweeps


def rank_one_argmax(A):
    """Index tuple of the dominant entry of A's best rank-one approximation.

    Runs the higher-order power method from a random start drawn with seed
    0, for at most ``HOPM_ITERS`` sweeps, then takes the per-mode argmax of
    the absolute factor vectors.  Ties resolve to the smallest index.  A's
    factors and norm must be finite (ValueError) and the norm nonzero.
    """
    if finite_frob_norm(A) == 0.0:
        raise DegenerateInputError("rank_one_argmax needs a nonzero tensor")
    rng = np.random.default_rng(0)
    vecs = []
    for n in A.dims:
        v = rng.standard_normal(n)
        if A.is_complex:
            v = v + 1j * rng.standard_normal(n)
        vecs.append(v / np.linalg.norm(v))
    for _ in range(HOPM_ITERS):
        drift = 0.0
        for p in range(A.order):
            w = np.ones(A.rank, dtype=A.dtype)
            for q in range(A.order):
                if q != p:
                    w = w * (np.conj(vecs[q]) @ A.factors[q])
            u = A.factors[p] @ w
            norm_u = np.linalg.norm(u)
            if norm_u == 0.0:
                u = rng.standard_normal(p_dim := A.dims[p])
                if A.is_complex:
                    u = u + 1j * rng.standard_normal(p_dim)
                norm_u = np.linalg.norm(u)
            u = u / norm_u
            drift = max(drift, 1.0 - abs(np.vdot(vecs[p], u)))
            vecs[p] = u
        if drift <= 1e-12:
            break
    return tuple(int(np.argmax(np.abs(v))) for v in vecs)
