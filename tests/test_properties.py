"""Property tests over small CP tensors drawn by hypothesis.

Factor entries are arbitrary finite floats, so the draws reach signed
zeros, subnormals and ties that the seeded tests rarely produce.  Example
counts stay small and deadlines are off, so the file runs in seconds.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tensor_topk import cp
from tensor_topk.cpt_io import read_cpt, write_cpt
from tensor_topk.solver import OrderingKey, SolverConfig, solve

FEW = settings(max_examples=25, deadline=None)


@st.composite
def cp_tensors(draw, complex_=False, bound=None, integers=False):
    """A CpTensor of order 1-4, dims 1-5 and rank 1-4.

    With ``integers``, real factor entries are integers in [-bound, bound].
    """
    order = draw(st.integers(1, 4))
    dims = draw(st.lists(st.integers(1, 5), min_size=order, max_size=order))
    rank = draw(st.integers(1, 4))
    dtype = np.complex128 if complex_ else np.float64
    if integers:
        elements = st.integers(-bound, bound).map(float)
    elif complex_:
        elements = st.complex_numbers(max_magnitude=bound, allow_nan=False,
                                      allow_infinity=False)
    else:
        elements = st.floats(-bound if bound else None, bound, allow_nan=False,
                             allow_infinity=False)
    return cp.CpTensor([draw(hnp.arrays(dtype, (n, rank), elements=elements))
                        for n in dims])


@st.composite
def solver_cases(draw, restarts=st.just(2), tensors=cp_tensors(bound=1e3)):
    """A real tensor with bounded entries and a config whose k fits it."""
    A = draw(tensors)
    cfg = SolverConfig(k=draw(st.integers(1, min(3, A.size()))),
                       extra=draw(st.integers(0, 3)),
                       block_size=draw(st.integers(1, 3)),
                       restarts=draw(restarts), seed=draw(st.integers(0, 2**31 - 1)))
    return A, cfg


@FEW
@given(st.booleans().flatmap(lambda c: cp_tensors(complex_=c)))
def test_cpt_roundtrip_is_bit_exact(tmp_path_factory, A):
    path = tmp_path_factory.mktemp("cpt") / "t.cpt"
    write_cpt(A, path)
    B = read_cpt(path)
    assert B.dims == A.dims and B.rank == A.rank and B.dtype == A.dtype
    for fa, fb in zip(A.factors, B.factors):
        assert fb.tobytes() == fa.tobytes()


@FEW
@given(solver_cases())
def test_solve_values_are_exact_elements(case):
    A, cfg = case
    res = solve(A, cfg)
    assert res.values.tobytes() == cp.elements_at(A, res.indices).tobytes()


@FEW
@given(solver_cases())
def test_output_is_distinct_and_pool_holds_every_candidate(case):
    # finite keys and distinct tuples: no candidate exhausts its cells, and
    # the first sweep alone pools all k + extra candidates
    A, cfg = case
    res = solve(A, cfg)
    assert len({tuple(row) for row in res.indices.tolist()}) == cfg.k
    assert res.diagnostics["pool_size"] >= min(cfg.k + cfg.extra, A.size())
    assert res.diagnostics["exhausted"] == 0


@FEW
@given(solver_cases())
def test_min_is_max_of_negated_tensor(case):
    A, cfg = case
    res_min = solve(A, replace(cfg, key=OrderingKey.MIN))
    res_max = solve(cp.scale(A, -1.0), replace(cfg, key=OrderingKey.MAX))
    assert np.array_equal(res_min.indices, res_max.indices)
    assert np.array_equal(res_min.values, -res_max.values)


@FEW
@given(solver_cases(tensors=cp_tensors(bound=3, integers=True)), st.integers(-20, 20))
def test_shift_keeps_indices(case, c):
    # entries of A and of A + c are small integers, so every sum is exact
    # and the search makes the same choices on both
    A, cfg = case
    shifted = cp.shift(A, float(c))
    for key in (OrderingKey.MAX, OrderingKey.MIN):
        res = solve(A, replace(cfg, key=key))
        res_c = solve(shifted, replace(cfg, key=key))
        assert np.array_equal(res_c.indices, res.indices)
        assert np.array_equal(res_c.values, res.values + c)
        assert res_c.diagnostics["restart_sweeps"] == res.diagnostics["restart_sweeps"]


@FEW
@given(solver_cases(restarts=st.integers(2, 4)))
def test_restarts_are_isolated(case):
    # restart r runs as a one-restart solve from seed + r: no restart's
    # candidates leak into another, and the top cells it shares are the
    # ones it would list
    A, cfg = case
    res = solve(A, cfg)
    d = res.diagnostics
    singles = [solve(A, replace(cfg, restarts=1, seed=cfg.seed + r))
               for r in range(cfg.restarts)]
    for r, one in enumerate(singles):
        assert d["objective_trace"][r] == one.diagnostics["objective_trace"][0]
        assert d["restart_sweeps"][r] == one.sweeps_used
        assert d["restart_converged"][r] == one.converged
    def total(name):
        return sum(one.diagnostics[name] for one in singles)
    for name in ("free_picks", "dependent_picks", "exhausted"):
        assert d[name] == total(name)
    # a window's record holds every restart's contexts and a visit forms a
    # context once for all of them, so the restarts form and expand no more
    # than they would alone
    assert d["expansions"] <= total("expansions")
    assert d["contracted_columns"] <= total("contracted_columns")
    # the pool keeps every tuple any restart visited
    assert res.objective >= max(one.objective for one in singles)
