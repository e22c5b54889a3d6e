"""Kernel-level checks against dense references."""

import math

import numpy as np
import pytest

from conftest import dense_from_factors, random_factors
from tensor_topk import kernels
from tensor_topk.generators import RandomSpec, gen_random_cp


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


def _row_sets(seed, complex_):
    """(factors, tuples): bench trials 0-9 (bench --seed 0, um11), with
    complex factors of the same shapes when complex_, and one rank-4096
    complex 16^4 tensor, the shape of the qft16 solve; then a rank-1
    6x5x7x4 tensor, real or complex, where a lone row's product is one
    element.  The tuples are every entry of a tensor up to 2^14 entries,
    else 2048 drawn ones."""
    rng = np.random.default_rng(seed)
    shapes = []
    for trial in range(10):
        A = gen_random_cp(RandomSpec(distribution="um11"),
                          np.random.default_rng(np.random.SeedSequence([0, trial])))
        shapes.append((A.dims, A.rank, A.factors))
    if complex_:
        shapes = [(dims, rank, random_factors(rng, dims, rank, complex_=True))
                  for dims, rank, _ in shapes]
        dims = (16, 16, 16, 16)
        shapes.append((dims, 4096, random_factors(rng, dims, 4096, complex_=True)))
    dims = (6, 5, 7, 4)
    shapes.append((dims, 1, random_factors(rng, dims, 1, complex_=complex_)))
    for dims, rank, fs in shapes:
        size = int(np.prod(dims))
        if size <= 1 << 14:
            lins = np.arange(size)
        else:
            lins = rng.integers(0, size, size=2048)
        yield fs, np.column_stack(np.unravel_index(lins, dims, order="F"))


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_eval_elements_rows_do_not_depend_on_their_batch(complex_):
    # The block pass stores the value of a moved candidate from the call
    # that rechecked it; that is the bits of a fresh evaluation only if a
    # row's value does not depend on the other rows in the call.
    rng = np.random.default_rng(404)
    for fs, tuples in _row_sets(405, complex_):
        stacked, offsets = kernels.stack_factors(fs)
        full = kernels.eval_elements(stacked, offsets, tuples)
        assert full.dtype == stacked.dtype
        sub = rng.permutation(len(tuples))[:len(tuples) // 3 + 1]
        got = kernels.eval_elements(stacked, offsets, tuples[sub])
        assert got.tobytes() == full[sub].tobytes()
        for j in rng.choice(len(tuples), size=16, replace=False):
            alone = kernels.eval_elements(stacked, offsets, tuples[j:j + 1])
            assert alone.tobytes() == full[j:j + 1].tobytes()


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


def test_half_split_sums_the_fewest_cells():
    # (dims, split): ties go to the fewest leading modes, and an empty half
    # counts one cell
    for dims, want in (((7,), 0), ((100, 100), 1), ((16, 16, 16, 16), 2),
                       ((2, 300), 1), ((300, 2), 1), ((3, 4, 3), 1), ((1, 1), 0),
                       ((2, 2, 2, 2, 2, 64), 5)):
        assert kernels.half_split(dims) == want, dims
        cells = [math.prod(dims[:s]) + math.prod(dims[s:]) for s in range(len(dims) + 1)]
        assert cells[want] == min(cells), dims


def test_expand_halves_product_is_the_expansion_summed(rng):
    for complex_ in (False, True):
        fs, stacked, offsets = _stacked(rng, (3, 4, 5, 2), 3, complex_=complex_)
        for modes in ([1], [3, 0], [2, 0, 1], [0, 1, 2, 3]):
            dims = [fs[q].shape[0] for q in modes]
            lead, trail = kernels.expand_halves(stacked, offsets, modes, dims)
            s = kernels.half_split(dims)
            assert lead.shape == (math.prod(dims[:s]), 3)
            assert trail.shape == (math.prod(dims[s:]), 3)
            if s == 0:
                np.testing.assert_array_equal(lead, np.ones((1, 3)))
            else:
                np.testing.assert_array_equal(
                    lead, kernels.block_expand(stacked, offsets, modes[:s], dims[:s]))
            want = kernels.block_expand(stacked, offsets, modes, dims).sum(axis=1)
            np.testing.assert_allclose((trail @ lead.T).ravel(), want, rtol=1e-12)


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
