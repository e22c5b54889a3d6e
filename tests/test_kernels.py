"""Kernel-level checks against dense references."""

import numpy as np
import pytest

from conftest import dense_from_factors, random_factors
from tensor_topk import kernels


def _stacked(rng, dims, rank, complex_=False):
    fs = random_factors(rng, dims, rank, complex_=complex_)
    stacked, offsets = kernels.stack_factors(fs)
    return fs, stacked, offsets


def test_stack_factors_offsets(rng):
    fs, stacked, offsets = _stacked(rng, (3, 5, 2), 4)
    assert list(offsets) == [0, 3, 8, 10]
    for p, f in enumerate(fs):
        np.testing.assert_array_equal(stacked[offsets[p]:offsets[p + 1]], f)


def test_eval_elements(rng):
    fs, stacked, offsets = _stacked(rng, (4, 3, 5), 3)
    dense = dense_from_factors(fs)
    tuples = np.stack([rng.integers(0, n, size=30) for n in (4, 3, 5)], axis=1)
    got = kernels.eval_elements(stacked, offsets, tuples)
    want = np.array([dense[tuple(t)] for t in tuples])
    np.testing.assert_allclose(got, want, rtol=1e-13)


def test_eval_elements_complex(rng):
    fs, stacked, offsets = _stacked(rng, (3, 4), 2, complex_=True)
    dense = dense_from_factors(fs)
    tuples = np.array([[0, 0], [2, 3], [1, 2]])
    got = kernels.eval_elements(stacked, offsets, tuples)
    want = np.array([dense[tuple(t)] for t in tuples])
    np.testing.assert_allclose(got, want, rtol=1e-13)


def test_block_expand_first_mode_fastest(rng):
    fs, stacked, offsets = _stacked(rng, (3, 4, 5), 6)
    modes = np.array([2, 0])  # deliberately out of order
    dims = np.array([5, 3])
    out = kernels.block_expand(stacked, offsets, modes, dims)
    assert out.shape == (15, 6)
    for lin in range(15):
        i2, i0 = lin % 5, lin // 5
        np.testing.assert_allclose(out[lin], fs[2][i2] * fs[0][i0], rtol=1e-14)


def test_block_expand_single_mode(rng):
    fs, stacked, offsets = _stacked(rng, (4, 2), 3)
    out = kernels.block_expand(stacked, offsets, np.array([1]), np.array([2]))
    np.testing.assert_array_equal(out, fs[1])


def test_block_expand_into_out_is_bit_equal(rng):
    for complex_ in (False, True):
        fs, stacked, offsets = _stacked(rng, (3, 4, 5, 2), 3, complex_=complex_)
        for modes in ([1], [3, 0], [2, 0, 1]):
            dims = [fs[q].shape[0] for q in modes]
            want = kernels.block_expand(stacked, offsets, modes, dims)
            # a larger flat buffer, used through a prefix view as the solver does
            buf = np.full(200 * 3, np.nan, dtype=stacked.dtype)
            out = buf[:want.size].reshape(want.shape)
            got = kernels.block_expand(stacked, offsets, modes, dims, out=out)
            assert got is out
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


def test_block_expand_rejects_bad_out(rng):
    fs, stacked, offsets = _stacked(rng, (3, 4), 2)
    with pytest.raises(ValueError):
        kernels.block_expand(stacked, offsets, [0, 1], [3, 4], out=np.empty((11, 2)))
    with pytest.raises(ValueError):
        kernels.block_expand(stacked, offsets, [0, 1], [3, 4],
                             out=np.empty((2, 12)).T)


def test_column_argmax_matches_argmax(rng):
    # rounding makes ties common; 97 and 20011 are prime row counts
    for n in (1, 7, 12, 36, 97, 3 * 4999, 20011):
        for m in (1, 5):
            keyed = np.round(rng.uniform(-3, 3, size=(n, m)), 0)
            np.testing.assert_array_equal(kernels.column_argmax(keyed),
                                          keyed.argmax(axis=0))
    for n in (24, 1000):
        keyed = np.round(rng.uniform(-3, 3, size=(n, 7)), 0)
        keyed[:, 0] = -np.inf
        keyed[:, 2] = np.minimum(keyed[:, 2], 0.0)
        keyed[[3, 9], 2] = [-0.0, 0.0]
        keyed[:, 3] = 1.0
        keyed[-1, 4] = 10.0
        np.testing.assert_array_equal(kernels.column_argmax(keyed),
                                      keyed.argmax(axis=0))


def test_masked_argmax_plain():
    keyed = np.array([1.0, 5.0, 3.0])
    assert kernels.masked_argmax(keyed, np.array([], dtype=np.int64)) == 1
    assert kernels.masked_argmax(keyed, np.array([1])) == 2
    assert kernels.masked_argmax(keyed, np.array([1, 2])) == 0


def test_masked_argmax_tie_smallest_index():
    keyed = np.array([2.0, 7.0, 7.0, 7.0])
    assert kernels.masked_argmax(keyed, np.array([], dtype=np.int64)) == 1
    assert kernels.masked_argmax(keyed, np.array([1])) == 2


def test_masked_argmax_vs_bruteforce(rng):
    for _ in range(50):
        n = int(rng.integers(1, 30))
        keyed = np.round(rng.uniform(-5, 5, size=n), 1)  # force some ties
        nf = int(rng.integers(0, n))  # at least one index stays allowed
        forbidden = rng.choice(n, size=nf, replace=False).astype(np.int64)
        got = kernels.masked_argmax(keyed, forbidden)
        allowed = [i for i in range(n) if i not in set(forbidden.tolist())]
        best = max(allowed, key=lambda i: (keyed[i], -i))
        assert got == best
