"""CP container and algebra ops against a dense outer-product reference."""

import numpy as np
import pytest

from conftest import dense_from_factors, random_factors
from tensor_topk import cp
from tensor_topk.errors import ShapeMismatchError
from tensor_topk.recompress import recompress


def test_container_basics(rng):
    fs = random_factors(rng, (3, 4, 2), 5)
    A = cp.CpTensor(fs)
    assert A.order == 3
    assert A.dims == (3, 4, 2)
    assert A.rank == 5
    assert not A.is_complex
    assert A.size() == 24
    for f in A.factors:
        assert f.dtype == np.float64
        assert not f.flags.writeable


def test_container_promotes_to_complex(rng):
    fs = random_factors(rng, (3, 2), 2)
    fs[1] = fs[1].astype(np.complex128)
    A = cp.CpTensor(fs)
    assert A.is_complex
    assert all(f.dtype == np.complex128 for f in A.factors)


def test_container_rejects_bad_input(rng):
    with pytest.raises(ShapeMismatchError):
        cp.CpTensor([])
    with pytest.raises(ShapeMismatchError):
        cp.CpTensor([np.ones((3, 2)), np.ones((4, 3))])  # rank mismatch
    with pytest.raises(ShapeMismatchError):
        cp.CpTensor([np.ones((3, 0)), np.ones((4, 0))])
    with pytest.raises(ShapeMismatchError):
        cp.CpTensor([np.ones(3), np.ones(4)])  # not 2-D


def test_element_matches_dense(rng):
    fs = random_factors(rng, (4, 3, 5, 2), 6)
    A = cp.CpTensor(fs)
    dense = dense_from_factors(fs)
    for _ in range(40):
        idx = tuple(int(rng.integers(n)) for n in A.dims)
        assert cp.element(A, idx) == pytest.approx(dense[idx], rel=1e-13)


def test_element_bounds_checks(rng):
    A = cp.CpTensor(random_factors(rng, (3, 4), 2))
    with pytest.raises(IndexError):
        cp.element(A, (3, 0))
    with pytest.raises(IndexError):
        cp.element(A, (0, -1))
    with pytest.raises(ShapeMismatchError):
        cp.element(A, (0, 0, 0))  # wrong arity is a shape error, not bounds


def test_elements_at_bounds_checks(rng):
    # the stacked-factor gather used to read a neighbouring factor's rows
    # for these and return a value with no error
    A = cp.CpTensor(random_factors(rng, (3, 4), 2))
    for tuples, msg in (([[3, 0]], r"coordinate 3 out of range \[0, 3\) in mode 0"),
                        ([[-1, 0]], r"coordinate -1 out of range \[0, 3\) in mode 0"),
                        ([[0, 0], [2, 4]], r"coordinate 4 out of range \[0, 4\) in mode 1")):
        with pytest.raises(IndexError, match=msg):
            cp.elements_at(A, tuples)


def test_elements_at_batch(rng):
    fs = random_factors(rng, (4, 3, 5), 3)
    A = cp.CpTensor(fs)
    dense = dense_from_factors(fs)
    tuples = np.stack([rng.integers(0, n, size=25) for n in A.dims], axis=1)
    got = cp.elements_at(A, tuples)
    want = np.array([dense[tuple(t)] for t in tuples])
    np.testing.assert_allclose(got, want, rtol=1e-13)


def test_materialize_matches_dense(rng):
    fs = random_factors(rng, (3, 4, 2, 5), 4)
    A = cp.CpTensor(fs)
    np.testing.assert_allclose(cp.materialize(A), dense_from_factors(fs),
                               rtol=1e-13)


def test_materialize_complex(rng):
    fs = random_factors(rng, (3, 4, 2), 3, complex_=True)
    A = cp.CpTensor(fs)
    np.testing.assert_allclose(cp.materialize(A), dense_from_factors(fs),
                               rtol=1e-13)


def test_materialize_cap(rng):
    A = cp.CpTensor(random_factors(rng, (8, 8, 8), 2))
    from tensor_topk.errors import CapacityError
    with pytest.raises(CapacityError):
        cp.materialize(A, max_elems=100)


def test_hadamard(rng):
    fa = random_factors(rng, (3, 4, 2), 3)
    fb = random_factors(rng, (3, 4, 2), 2)
    A, B = cp.CpTensor(fa), cp.CpTensor(fb)
    H = cp.hadamard(A, B)
    assert H.rank == 6
    np.testing.assert_allclose(cp.materialize(H),
                               dense_from_factors(fa) * dense_from_factors(fb),
                               rtol=1e-12)


def test_hadamard_shape_mismatch(rng):
    A = cp.CpTensor(random_factors(rng, (3, 4), 2))
    B = cp.CpTensor(random_factors(rng, (3, 5), 2))
    with pytest.raises(ShapeMismatchError):
        cp.hadamard(A, B)


def test_inner_and_norm(rng):
    fa = random_factors(rng, (3, 4, 2), 3, complex_=True)
    fb = random_factors(rng, (3, 4, 2), 4, complex_=True)
    A, B = cp.CpTensor(fa), cp.CpTensor(fb)
    da, db = dense_from_factors(fa), dense_from_factors(fb)
    assert cp.inner(A, B) == pytest.approx(np.vdot(da, db), rel=1e-12)
    assert cp.frob_norm(A) == pytest.approx(np.linalg.norm(da.ravel()), rel=1e-12)


def test_ttm(rng):
    fs = random_factors(rng, (3, 4, 2), 3)
    A = cp.CpTensor(fs)
    M = rng.standard_normal((6, 4))
    got = cp.materialize(cp.ttm(A, M, 1))
    want = np.einsum("ijk,pj->ipk", dense_from_factors(fs), M)
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_scale_negate_add_shift(rng):
    fa = random_factors(rng, (3, 4), 2)
    fb = random_factors(rng, (3, 4), 3)
    A, B = cp.CpTensor(fa), cp.CpTensor(fb)
    da, db = dense_from_factors(fa), dense_from_factors(fb)
    np.testing.assert_allclose(cp.materialize(cp.scale(A, 2.5)), 2.5 * da, rtol=1e-12)
    np.testing.assert_array_equal(cp.materialize(cp.negate(A)), -da)
    np.testing.assert_allclose(cp.materialize(cp.add(A, B)), da + db, rtol=1e-12)
    np.testing.assert_allclose(cp.materialize(cp.shift(A, 3.0)), da + 3.0, rtol=1e-12)
    assert cp.add(A, B).rank == 5


def test_negate_is_exact_signflip(rng):
    # negation must be representation-exact, not just value-close
    A = cp.CpTensor(random_factors(rng, (4, 3, 2), 3))
    N = cp.negate(A)
    for _ in range(10):
        idx = tuple(int(rng.integers(n)) for n in A.dims)
        assert cp.element(N, idx) == -cp.element(A, idx)


def test_ones_and_indicator():
    E = cp.cp_ones((3, 4, 2))
    assert np.all(cp.materialize(E) == 1.0)
    I = cp.CpTensor([np.eye(n)[:, [i]] for n, i in zip((3, 4, 2), (1, 3, 0))])
    dense = cp.materialize(I)
    assert dense[1, 3, 0] == 1.0
    assert dense.sum() == 1.0


def test_drop_zero_columns(rng):
    fs = random_factors(rng, (3, 4), 3)
    fs[0][:, 1] = 0.0  # kill the middle term in one mode
    A = cp.CpTensor(fs)
    B = cp.drop_zero_columns(A)
    assert B.rank == 2
    np.testing.assert_array_equal(cp.materialize(B), dense_from_factors(fs))
    Z = cp.drop_zero_columns(cp.scale(A, 0.0))
    assert Z.rank == 1
    assert np.all(cp.materialize(Z) == 0.0)


def test_public_constructor_copies(rng):
    f = rng.standard_normal((3, 2))
    A = cp.CpTensor([f, np.ones((4, 2))])
    before = A.factors[0].tobytes()
    f[0, 0] = 99.0
    assert A.factors[0].tobytes() == before
    assert not np.shares_memory(A.factors[0], f)


def _real_tensor(rng):
    return cp.CpTensor(random_factors(rng, (3, 4, 2), 3))


@pytest.mark.parametrize("op,want", [
    (lambda A, B: cp.ttm(A, np.eye(4) * 1j, 1), np.complex128),
    (lambda A, B: cp.ttm(A, np.eye(4), 1), np.float64),
    (lambda A, B: cp.scale(A, 1j), np.complex128),
    (lambda A, B: cp.scale(A, 2), np.float64),
    (lambda A, B: cp.negate(A), np.float64),
    (lambda A, B: cp.add(A, B), np.complex128),
    (lambda A, B: cp.hadamard(A, B), np.complex128),
    (lambda A, B: cp.shift(A, 1j), np.complex128),
    (lambda A, B: cp.shift(A, 1.5), np.float64),
    (lambda A, B: cp.drop_zero_columns(cp.scale(A, 0.0)), np.float64),
    (lambda A, B: cp.drop_zero_columns(cp.add(A, cp.scale(B, 0.0))), np.complex128),
    (lambda A, B: recompress(A, 2), np.float64),
    (lambda A, B: recompress(cp.add(A, B), 2), np.complex128),
])
def test_algebra_ops_return_frozen_factors_of_one_dtype(rng, op, want):
    A = _real_tensor(rng)
    B = cp.CpTensor(random_factors(rng, (3, 4, 2), 2, complex_=True))
    out = op(A, B)
    for f in out.factors:
        assert f.dtype == want
        assert not f.flags.writeable
        assert f.flags.c_contiguous
        assert f.shape[1] == out.rank


def test_ttm_shares_untouched_factors(rng):
    A = _real_tensor(rng)
    out = cp.ttm(A, rng.standard_normal((5, 4)), 1)
    assert out.dims == (3, 5, 2)
    assert np.shares_memory(out.factors[0], A.factors[0])
    assert np.shares_memory(out.factors[2], A.factors[2])
    assert not np.shares_memory(out.factors[1], A.factors[1])
