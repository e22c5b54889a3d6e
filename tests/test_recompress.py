import numpy as np
import pytest

from conftest import dense_from_factors, random_factors
from tensor_topk import cp
from tensor_topk.errors import DegenerateInputError
from tensor_topk.recompress import (
    ALS_SWEEPS,
    ALS_TOL,
    MERGE_ROW_LIMIT,
    RIDGE_SCALE,
    _cross_gram,
    _init_factors,
    _merge_buffer,
    rank_one_argmax,
    recompress,
)


def _reference_recompress(A, target_rank):
    # The ALS loop with every Hadamard product rebuilt from ones, per mode
    # and for the fit: the arithmetic recompress must reproduce bit for bit.
    # Returns the factors and the number of sweeps run.
    norm_a = cp.frob_norm(A)
    if norm_a == 0.0:
        return [np.zeros((n, target_rank), dtype=A.dtype) for n in A.dims], 0
    facs = _init_factors(A, target_rank)
    cross = [A.factors[p].T @ np.conj(facs[p]) for p in range(A.order)]
    gram = [np.conj(facs[p]).T @ facs[p] for p in range(A.order)]
    prev_fit = None
    sweeps = 0
    for _ in range(ALS_SWEEPS):
        sweeps += 1
        for p in range(A.order):
            cmat = np.ones((A.rank, target_rank), dtype=A.dtype)
            gmat = np.ones((target_rank, target_rank), dtype=A.dtype)
            for q in range(A.order):
                if q == p:
                    continue
                cmat = cmat * cross[q]
                gmat = gmat * gram[q]
            rhs = A.factors[p] @ cmat
            lhs = np.conj(gmat)
            ridge = RIDGE_SCALE * max(float(np.real(np.trace(lhs))), np.finfo(float).tiny)
            lhs = lhs + ridge * np.eye(target_rank)
            facs[p] = np.linalg.solve(lhs.T, rhs.T).T
            cross[p] = A.factors[p].T @ np.conj(facs[p])
            gram[p] = np.conj(facs[p]).T @ facs[p]
        cross_full = np.ones((A.rank, target_rank), dtype=A.dtype)
        gram_full = np.ones((target_rank, target_rank), dtype=A.dtype)
        for p in range(A.order):
            cross_full = cross_full * cross[p]
            gram_full = gram_full * gram[p]
        ab = np.conj(cross_full.sum())
        bb = float(np.real(gram_full.sum()))
        err2 = max(norm_a * norm_a - 2.0 * float(np.real(ab)) + bb, 0.0)
        fit = np.sqrt(err2) / norm_a
        if prev_fit is not None and abs(prev_fit - fit) < ALS_TOL:
            break
        prev_fit = fit
    return facs, sweeps


# (dims, stored rank, target rank): orders 1 to 5, targets below and equal
# to the stored rank, a real n=64, R=37 Gram matrix, where syrk and gemm
# give different bits, and target rank 1, where the real products stay
# apart.  Then power iteration's shapes (orders 7-10, stored rank 30-110,
# target 10, n 2-13), whose real modes all merge their cross and Gram
# products, and modes of 33 and 40 rows with T = 6, which the merge rule
# keeps apart.
BIT_CASES = [
    ((7,), 3, 2),
    ((5, 6), 6, 4),
    ((6, 5, 4), 6, 3),
    ((4, 3, 5, 2), 5, 5),
    ((3, 4, 2, 3, 2), 5, 4),
    ((64, 6, 5), 45, 37),
    ((4, 3, 2), 7, 1),
    ((2, 13, 5, 3, 7, 4, 9), 30, 10),
    ((3, 6, 11, 2, 8, 5, 4, 13), 60, 10),
    ((4, 2, 9, 7, 3, 12, 5, 6, 2), 90, 10),
    ((5, 3, 2, 13, 4, 8, 6, 2, 10, 3), 110, 10),
    ((40, 5, 33), 12, 6),
]


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("dims, rank, target", BIT_CASES)
def test_bits_match_reference_loop(rng, dims, rank, target, complex_):
    fs = random_factors(rng, dims, rank, complex_=complex_)
    fs[0][:, 0] = -0.0
    A = cp.CpTensor(fs)
    B, sweeps = recompress(A, target)
    want, want_sweeps = _reference_recompress(A, target)
    for got, ref in zip(B.factors, want):
        assert got.tobytes() == ref.tobytes()
    assert sweeps == want_sweeps


def test_merged_cross_gram_rule():
    """Every mode the merge rule admits gets the separate products' bits.

    The grid spans n around ``MERGE_ROW_LIMIT``, power iteration's shapes
    (n 2-13, R 30-110, T 10) and targets from 1 to past 34, with the mode's
    factor B_p in C order, as `_init_factors` gives it, and in Fortran order,
    as the solve gives it.  A BLAS that changes its kernels fails here first.
    """
    rng = np.random.default_rng(302)
    admitted = 0
    for n in (1, 2, 3, 5, 8, 13, 16, 31, 32, 33, 64, 300):
        for rank, target in ((1, 1), (2, 1), (2, 2), (10, 3), (30, 10), (45, 10),
                             (110, 10), (45, 34), (45, 37), (200, 40), (1000, 4)):
            a = rng.uniform(-1, 1, size=(n, rank))
            for f in (rng.uniform(-1, 1, size=(n, target)),
                      np.linalg.solve(np.eye(target) + 0.5,
                                      rng.uniform(-1, 1, size=(target, n))).T):
                wide = _merge_buffer(a, target)
                assert (wide is not None) == (target >= 2 and n < MERGE_ROW_LIMIT)
                admitted += wide is not None
                out = np.empty((rank + target, target))
                _cross_gram(a, f, wide, out)
                apart = np.vstack([a.T @ f.conj(), np.conj(f).T @ f])
                assert out.tobytes() == apart.tobytes(), (n, rank, target, f.flags.c_contiguous)
    assert admitted == 2 * 8 * 9
    assert _merge_buffer(np.ones((3, 4), dtype=complex), 2) is None


@pytest.mark.parametrize("target", [0, 4])
def test_target_rank_outside_stored_rank_is_rejected(rng, target):
    A = cp.CpTensor(random_factors(rng, (5, 4, 3), 3))
    with pytest.raises(ValueError, match="target rank"):
        recompress(A, target)


@pytest.mark.parametrize("target", [True, 2.5, 2.0, "2", None])
def test_target_rank_that_is_no_integer_is_rejected(rng, target):
    A = cp.CpTensor(random_factors(rng, (5, 4, 3), 3))
    with pytest.raises(ValueError, match=f"target rank must be an integer, got {target!r}"):
        recompress(A, target)


def test_numpy_integer_target_rank_is_accepted(rng):
    A = cp.CpTensor(random_factors(rng, (5, 4, 3), 3))
    B, sweeps = recompress(A, np.int64(2))
    want, want_sweeps = recompress(A, 2)
    assert sweeps == want_sweeps
    for got, ref in zip(B.factors, want.factors):
        assert got.tobytes() == ref.tobytes()


# A NaN or infinite entry, and finite factors whose norm overflows
NON_FINITE = [(0, 1, np.nan), (2, 0, np.inf), (1, 2, -np.inf), (None, None, 1e200)]


def _non_finite_tensor(rng, row, col, value):
    fs = random_factors(rng, (4, 3, 5), 3)
    if row is None:
        fs = [f * value for f in fs]
    else:
        fs[1][row, col] = value
    return cp.CpTensor(fs)


@pytest.mark.parametrize("row, col, value", NON_FINITE)
def test_recompress_rejects_non_finite_factors(rng, row, col, value):
    with pytest.raises(ValueError, match="must be finite"):
        recompress(_non_finite_tensor(rng, row, col, value), 2)


@pytest.mark.parametrize("row, col, value", NON_FINITE)
def test_rank_one_argmax_rejects_non_finite_factors(rng, row, col, value):
    with pytest.raises(ValueError, match="must be finite"):
        rank_one_argmax(_non_finite_tensor(rng, row, col, value))


def test_zero_tensor_recompresses_to_zeros_without_sweeps():
    A = cp.CpTensor([np.zeros((3, 4)), np.zeros((5, 4))])
    B, sweeps = recompress(A, 2)
    assert sweeps == 0
    assert B.rank == 2
    assert not any(f.any() for f in B.factors)


def test_exact_rank_recovery(rng):
    fs = random_factors(rng, (6, 5, 4), 3)
    A = cp.CpTensor(fs)
    B, _ = recompress(A, 3)
    assert B.rank == 3
    np.testing.assert_allclose(cp.materialize(B), dense_from_factors(fs),
                               rtol=1e-6, atol=1e-8)


def test_padded_rank_collapses(rng):
    # rank-2 tensor stored with 6 redundant columns compresses losslessly
    fs = random_factors(rng, (5, 4, 3), 2)
    dup = [np.hstack([f, f, f]) for f in fs]
    scale = np.array([1.0, 0.0, 0.0])  # only first copy carries weight
    dup[0] = dup[0] * np.repeat(scale, 2)
    A = cp.CpTensor(dup)
    B, _ = recompress(A, 2)
    np.testing.assert_allclose(cp.materialize(B), cp.materialize(A),
                               rtol=1e-6, atol=1e-8)


def test_truncation_error_decreases_with_rank(rng):
    fs = random_factors(rng, (7, 6, 5), 8)
    A = cp.CpTensor(fs)
    dense = dense_from_factors(fs)
    errs = []
    for target in (1, 3, 6):
        B, _ = recompress(A, target)
        errs.append(np.linalg.norm((cp.materialize(B) - dense).ravel()))
    assert errs[0] >= errs[1] >= errs[2]


def test_complex_recompress(rng):
    fs = random_factors(rng, (4, 4, 3), 2, complex_=True)
    A = cp.CpTensor(fs)
    B, _ = recompress(A, 2)
    np.testing.assert_allclose(cp.materialize(B), dense_from_factors(fs),
                               rtol=1e-5, atol=1e-7)


def test_rank_one_argmax_separable(rng):
    # positive separable tensor: per-mode argmax is the global max location
    cols = [np.array([0.2, 0.9, 0.4]), np.array([0.8, 0.3]),
            np.array([0.1, 0.5, 0.7, 0.6])]
    A = cp.CpTensor([c[:, None] for c in cols])
    loc = rank_one_argmax(A)
    assert loc == (1, 0, 2)


def test_rank_one_argmax_zero_tensor():
    A = cp.CpTensor([np.zeros((3, 2)), np.zeros((4, 2))])
    with pytest.raises(DegenerateInputError):
        rank_one_argmax(A)


def test_rank_one_argmax_dominant_entry(rng):
    fs = random_factors(rng, (5, 4, 3), 2, lo=0.0, hi=0.1)
    fs[0][2, 0] = 50.0
    fs[1][1, 0] = 50.0
    fs[2][0, 0] = 50.0
    A = cp.CpTensor(fs)
    assert rank_one_argmax(A) == (2, 1, 0)
