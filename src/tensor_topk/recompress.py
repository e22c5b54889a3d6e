"""Rank reduction by alternating least squares, and best rank-one location.

Both routines work entirely in factorized form: Gram and cross matrices are
R x R objects, so cost never depends on the dense tensor size.
"""

from __future__ import annotations

import numpy as np

from .cp import _wrap, frob_norm
from .errors import DegenerateInputError

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


def recompress(A, target_rank):
    """Best-fit CP tensor of rank ``target_rank``, by ALS sweeps.

    ``target_rank`` must lie in [1, A.rank]; the fit starts from A's
    ``target_rank`` largest-norm terms.  Stops after ``ALS_SWEEPS`` sweeps
    or when the relative fit changes by less than ``ALS_TOL`` between
    sweeps.  Normal equations are solved with a ridge of RIDGE_SCALE times
    the Gram trace, so redundant (rank-deficient) inputs do not break the
    solve.  Returns the fitted tensor and the number of ALS sweeps run
    (0 for a zero A).
    """
    if not 1 <= target_rank <= A.rank:
        raise ValueError(f"target rank must be in [1, {A.rank}], got {target_rank}")
    norm_a = frob_norm(A)
    if norm_a == 0.0:
        return _wrap([np.zeros((n, target_rank), dtype=A.dtype) for n in A.dims]), 0
    facs = _init_factors(A, target_rank)
    # cross[p] = A_p^T conj(B_p), gram[p] = B_p^H B_p.  The Gram matrix takes
    # conj(f) as a separate array: f.conj() is f itself for real f, and
    # numpy would then route f.T @ f to syrk, whose bits differ from gemm's.
    cross = [A.factors[p].T @ facs[p].conj() for p in range(A.order)]
    gram = [np.conj(facs[p]).T @ facs[p] for p in range(A.order)]
    ones_c = np.ones((A.rank, target_rank), dtype=A.dtype)
    ones_g = np.ones((target_rank, target_rank), dtype=A.dtype)
    eye = np.eye(target_rank)
    tiny = np.finfo(float).tiny
    prev_fit = None
    sweeps = 0
    for sweeps in range(1, ALS_SWEEPS + 1):
        # pc/pg: Hadamard products over the modes already updated this sweep.
        # Mode p multiplies on the modes after it in ascending order, so each
        # product is the same left fold from ones as over all q != p.
        pc, pg = ones_c, ones_g
        for p in range(A.order):
            cmat, gmat = pc, pg
            for q in range(p + 1, A.order):
                cmat = cmat * cross[q]
                gmat = gmat * gram[q]
            rhs = A.factors[p] @ cmat
            lhs = gmat.conj()
            ridge = RIDGE_SCALE * max(float(lhs.trace().real), tiny)
            facs[p] = np.linalg.solve((lhs + ridge * eye).T, rhs.T).T
            cross[p] = A.factors[p].T @ facs[p].conj()
            gram[p] = np.conj(facs[p]).T @ facs[p]
            pc = pc * cross[p]
            pg = pg * gram[p]
        # ||A - B||^2 from factorized inner products only: after the last
        # mode, pc/pg are the products over every mode
        ab = pc.sum().conj()
        bb = float(pg.sum().real)
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
    the absolute factor vectors.  Ties resolve to the smallest index.
    """
    if frob_norm(A) == 0.0:
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
