"""Dense oracle and power-iteration baseline checks.

The oracle itself is validated against a second, heap-based selection
written here, so the rest of the suite can lean on it.
"""

import heapq
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from conftest import dense_from_factors, random_factors
from tensor_topk import cp
from tensor_topk.baselines import (
    NONNEG_CHECK_CAP,
    _resolve_shift,
    oracle_topk,
    power_iteration_max,
)
from tensor_topk.errors import CapacityError, DegenerateInputError
from tensor_topk.generators import RandomSpec, gen_random_cp
from tensor_topk.harness import is_topk_hit
from tensor_topk.solver import OrderingKey, key_values


def _heap_topk(dense, k, sign=1.0):
    # (value, -lin) heap keeps the largest values, smallest F-linear on ties
    flat = sign * dense.ravel(order="F")
    best = heapq.nlargest(k, ((v, -lin) for lin, v in enumerate(flat)))
    return [tuple(int(x) for x in np.unravel_index(-nl, dense.shape, order="F"))
            for _, nl in best]


def test_oracle_vs_heap_max(rng):
    for trial in range(20):
        dims = tuple(int(rng.integers(2, 7)) for _ in range(3))
        fs = random_factors(rng, dims, int(rng.integers(1, 5)))
        A = cp.CpTensor(fs)
        dense = dense_from_factors(fs)
        res = oracle_topk(A, 4, key=OrderingKey.MAX)
        assert [tuple(t) for t in res.indices] == _heap_topk(dense, 4)
        for t, v in zip(res.indices, res.values):
            assert v == cp.element(A, tuple(t))


def test_oracle_vs_heap_min(rng):
    fs = random_factors(rng, (5, 4, 3), 3)
    A = cp.CpTensor(fs)
    dense = dense_from_factors(fs)
    res = oracle_topk(A, 3, key=OrderingKey.MIN)
    assert [tuple(t) for t in res.indices] == _heap_topk(dense, 3, sign=-1.0)


def test_oracle_tie_order():
    # constant tensor: everything ties, smallest linear indices win
    A = cp.cp_ones((2, 3))
    res = oracle_topk(A, 3, key=OrderingKey.MAX)
    assert [tuple(t) for t in res.indices] == [(0, 0), (1, 0), (0, 1)]


def _full_sort_order(A, k, key):
    # the oracle's selection as one lexsort of every entry, kept as the reference
    keyed = key_values(cp.materialize(A).ravel(order="F"), key)
    return np.lexsort((np.arange(keyed.size), -keyed))[:k]


def _oracle_order(A, k, key):
    res = oracle_topk(A, k, key=key)
    return np.ravel_multi_index(tuple(res.indices.T), A.dims, order="F")


@pytest.mark.parametrize("key", [OrderingKey.MAX, OrderingKey.MIN, OrderingKey.MAX_ABS])
def test_oracle_exact_ties_match_full_sort(rng, key):
    # small integer factors tie many entries, signed zeros among them
    for _ in range(10):
        dims = tuple(int(rng.integers(2, 6)) for _ in range(3))
        fs = [rng.integers(-2, 3, size=(n, 2)).astype(np.float64) for n in dims]
        fs[0][0] = -0.0
        A = cp.CpTensor(fs)
        for k in (1, 2, 5, A.size() // 2, A.size()):
            np.testing.assert_array_equal(_oracle_order(A, k, key),
                                          _full_sort_order(A, k, key))


def test_oracle_nan_keys_match_full_sort():
    # row 1 of mode 0 makes a slab of NaN entries; they rank after every number
    f0 = np.array([[1.0, 2.0], [np.nan, 1.0], [3.0, -1.0]])
    A = cp.CpTensor([f0, np.array([[1.0, 1.0], [2.0, 0.5], [1.0, 1.0]])])
    for key in (OrderingKey.MAX, OrderingKey.MIN):
        for k in range(1, A.size() + 1):
            np.testing.assert_array_equal(_oracle_order(A, k, key),
                                          _full_sort_order(A, k, key))
    assert np.isnan(oracle_topk(A, A.size()).values[-3:]).all()


def test_oracle_cap():
    A = cp.cp_ones((300, 300, 300))
    with pytest.raises(CapacityError):
        oracle_topk(A, 1, max_elems=10**6)


def test_oracle_rejects_k_below_one(rng):
    # k=0 used to return an empty result, and k=-2 8 of the 12 entries
    A = cp.CpTensor(random_factors(rng, (3, 4), 2))
    for k in (0, -2):
        with pytest.raises(ValueError, match=f"k must be >= 1, got {k}"):
            oracle_topk(A, k)


@pytest.mark.parametrize("dist", ["u01", "um11", "u075"])
def test_dense_entries_are_bit_equal_to_elements_at_on_bench_draws(dist):
    # The oracle's values, and so its exact agreement with the solver's
    # values and tie order, rest on this: a real tensor with size x rank
    # <= 2^24 is materialized in one rank chunk, whose entries are the
    # bits `cp.elements_at` gives.  Complex tensors and larger real ones
    # (several chunks) differ in the last bits.
    for trial in range(10):
        rng = np.random.default_rng(np.random.SeedSequence([0, trial]))
        A = gen_random_cp(RandomSpec(distribution=dist), rng)
        assert A.size() * A.rank <= 1 << 24
        flat = cp.materialize(A).ravel(order="F")
        for start in range(0, A.size(), 1 << 16):
            lins = np.arange(start, min(start + (1 << 16), A.size()))
            idx = np.column_stack(np.unravel_index(lins, A.dims, order="F"))
            assert cp.elements_at(A, idx).tobytes() == flat[lins].tobytes(), trial


def test_power_iteration_separable_positive(rng):
    cols = [rng.uniform(0.1, 1.0, size=n) for n in (5, 4, 6)]
    A = cp.CpTensor([c[:, None] for c in cols])
    want = tuple(int(np.argmax(c)) for c in cols)
    res = power_iteration_max(A)
    assert res.loc == want
    assert res.value == cp.element(A, want)


def test_power_iteration_value_is_element(rng):
    for trial in range(5):
        fs = random_factors(rng, (4, 3, 5), 3)
        A = cp.CpTensor(fs)
        res = power_iteration_max(A, seed=trial)
        assert res.value == cp.element(A, res.loc)  # bit-exact re-evaluation contract


def test_power_iteration_finds_max_on_easy_inputs(rng):
    hits = 0
    for trial in range(20):
        fs = random_factors(rng, (4, 5, 3), 2, lo=0.0, hi=1.0)
        A = cp.CpTensor(fs)
        dense = dense_from_factors(fs)
        want = np.unravel_index(int(np.argmax(dense.ravel(order="F"))),
                                dense.shape, order="F")
        res = power_iteration_max(A, seed=trial)
        hits += res.loc == tuple(int(v) for v in want)
    assert hits >= 16


def test_power_iteration_reports_iterations_on_bench_draw(monkeypatch):
    # bench trial 0 (master seed 0, u01), drawn as bench_trial draws it:
    # the overlap test is never met, yet the peak is the oracle's
    rng = np.random.default_rng(np.random.SeedSequence([0, 0]))
    A = gen_random_cp(RandomSpec(distribution="u01"), rng)
    # every ALS sweep solves one normal-equation system per mode, and
    # nothing else in power iteration calls np.linalg.solve
    solves = []
    linalg_solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve",
                        lambda *a: solves.append(1) or linalg_solve(*a))
    res = power_iteration_max(A)
    assert res.iterations == 200
    assert res.converged is False
    assert res.value == cp.element(A, res.loc)
    assert is_topk_hit(A, [res.loc], oracle_topk(A, 1).indices, OrderingKey.MAX)
    assert len(solves) % A.order == 0
    assert res.als_sweeps == len(solves) // A.order > 0


def test_power_iteration_converges_on_constant_tensor():
    # the least nonnegative shift of a negative constant would be all zeros
    for c in (1.0, -0.5):
        res = power_iteration_max(cp.scale(cp.cp_ones((3, 4, 5)), c))
        assert res.iterations == 1
        assert res.converged is True
        assert res.value == c
        assert res.als_sweeps == 0  # rank 2 after the shift: nothing to recompress
    with pytest.raises(FrozenInstanceError):
        res.iterations = 0


def test_power_iteration_rejects_complex(rng):
    A = cp.CpTensor(random_factors(rng, (3, 3), 2, complex_=True))
    with pytest.raises(ValueError):
        power_iteration_max(A)


def test_power_iteration_zero_tensor():
    A = cp.CpTensor([np.zeros((3, 1)), np.zeros((4, 1))])
    with pytest.raises(DegenerateInputError):
        power_iteration_max(A)


def test_shift_is_zero_on_nonnegative_tensor(rng):
    A = cp.CpTensor(random_factors(rng, (4, 5, 3), 3, lo=0.0, hi=1.0))
    assert _resolve_shift(A) == 0.0


def test_shift_lifts_minimum_to_zero(rng):
    fs = random_factors(rng, (4, 5, 3), 3)
    dense = dense_from_factors(fs)
    assert dense.min() < 0.0
    A = cp.CpTensor(fs)
    s = _resolve_shift(A)
    assert s == -oracle_topk(A, 1, key=OrderingKey.MIN).values[0]
    assert s == pytest.approx(-dense.min(), rel=1e-12)


def test_shift_above_scan_cap_is_frob_norm(monkeypatch):
    A = cp.cp_ones((128, 128, 128))
    assert A.size() > NONNEG_CHECK_CAP

    def never(*args, **kwargs):
        raise AssertionError("materialized a tensor above NONNEG_CHECK_CAP")

    monkeypatch.setattr(cp, "materialize", never)
    assert _resolve_shift(A) == cp.frob_norm(A)
