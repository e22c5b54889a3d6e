"""End-to-end accuracy gate.

Nine criteria, one test each, run with plain ``pytest``.  Every test prints a
single ``[PASS]``/``[FAIL]`` line carrying the measured numbers before it
asserts, so a failing run still shows how far off it was.  Seeds are pinned;
the whole file is deterministic.
"""

import time

import numpy as np

from tensor_topk import baselines, cp, generators, harness, solver
from tensor_topk.errors import CapacityError
from tensor_topk.solver import OrderingKey, SolverConfig

DISTS = ("um11", "u075", "u01")

# objective traces from criteria 1-4 runs, checked again by criterion 8
TRACE_BANK = []


def _report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _bank(res):
    TRACE_BANK.extend(res.diagnostics["objective_trace"])


def _draw_small(dist, i, cap=4096):
    """Rejection-sample a random tensor with at most ``cap`` entries."""
    spec = generators.RandomSpec(distribution=dist)
    rng = np.random.default_rng(np.random.SeedSequence([10, i]))
    while True:
        A = generators.gen_random_cp(spec, rng)
        if A.size() <= cap:
            return A


def test_criterion_1_exact_regime_matches_oracle():
    t0 = time.perf_counter()
    checked = 0
    for i in range(500):
        A = _draw_small(DISTS[i % 3], i)
        for k in (1, 5):
            oracle = baselines.oracle_topk(A, k)
            cfg = SolverConfig(k=k, extra=0, block_size=A.order,
                               key=OrderingKey.MAX, restarts=1, seed=i)
            res = solver.solve(A, cfg)
            _bank(res)
            assert ({tuple(r) for r in res.indices}
                    == {tuple(r) for r in oracle.indices}), (
                f"draw {i} k={k}: {res.indices} vs oracle {oracle.indices}")
            checked += 1
    elapsed = time.perf_counter() - t0
    _report(1, elapsed < 60.0,
            f"500 small draws, s=d solves match oracle index sets "
            f"({checked} comparisons) in {elapsed:.1f}s (< 60s)")


def _accuracy(dist, k, key, restarts=5, trials=100):
    """Hit count vs the dense oracle; oversized draws count as misses."""
    spec = generators.RandomSpec(distribution=dist)
    hits = 0
    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence([0, trial]))
        A = generators.gen_random_cp(spec, rng)
        try:
            oracle = baselines.oracle_topk(A, k, key=key)
        except CapacityError:
            continue
        cfg = SolverConfig(k=k, extra=5, block_size=2, key=key,
                           restarts=restarts, seed=1000 + trial)
        res = solver.solve(A, cfg)
        _bank(res)
        if harness.is_topk_hit(A, res.indices, oracle.indices, key):
            hits += 1
    return hits


def test_criterion_2_k1_max_accuracy_floors():
    got = {d: _accuracy(d, 1, OrderingKey.MAX) for d in DISTS}
    floors = {"um11": 50, "u075": 75, "u01": 75}
    ok = all(got[d] >= floors[d] for d in DISTS)
    _report(2, ok, "k=1 max accuracy "
            + " ".join(f"{d}={got[d]}/100 (>= {floors[d]})" for d in DISTS))


def test_criterion_3_k5_max_accuracy_windows():
    got = {d: _accuracy(d, 5, OrderingKey.MAX) for d in DISTS}
    targets = {"um11": 59.0, "u075": 84.0, "u01": 82.0}
    ok = all(abs(got[d] - targets[d]) <= 10.0 for d in DISTS)
    _report(3, ok, "k=5 max accuracy "
            + " ".join(f"{d}={got[d]}/100 (target {targets[d]:g} +-10)"
                       for d in DISTS))


def test_criterion_4_k5_min_accuracy_windows():
    got = {d: _accuracy(d, 5, OrderingKey.MIN) for d in DISTS}
    targets = {"um11": 55.2, "u075": 87.2, "u01": 87.8}
    ok = all(abs(got[d] - targets[d]) <= 10.0 for d in DISTS)
    _report(4, ok, "k=5 min accuracy "
            + " ".join(f"{d}={got[d]}/100 (target {targets[d]:g} +-10)"
                       for d in DISTS))


def test_criterion_5_min_max_duality_exact():
    failures = 0
    for t in range(200):
        spec = generators.RandomSpec(distribution=DISTS[t % 3])
        rng = np.random.default_rng(np.random.SeedSequence([4, t]))
        A = generators.gen_random_cp(spec, rng)
        kw = dict(k=5, extra=5, block_size=2, restarts=2, seed=1000 + t)
        res_min = solver.solve(A, SolverConfig(key=OrderingKey.MIN, **kw))
        res_max = solver.solve(cp.scale(A, -1.0), SolverConfig(key=OrderingKey.MAX, **kw))
        same = (np.array_equal(res_min.indices, res_max.indices)
                and np.array_equal(res_min.values, -res_max.values))
        failures += not same
    _report(5, failures == 0,
            f"min == negated max on negated input, 200 tensors, "
            f"{failures} failures (0 allowed)")


def test_criterion_6_function_grids():
    rng = np.random.default_rng(11)
    zero_ok = 0
    for t in range(10):
        grids = [generators.uniform_grid(*generators.GRIEWANK_BOUNDS,
                                         int(rng.integers(2, 65)), include=0.0)
                 for _ in range(6)]
        A = generators.gen_griewank(grids)
        cfg = SolverConfig(k=1, extra=5, block_size=2, key=OrderingKey.MIN,
                           restarts=5, seed=100 + t)
        zero_ok += solver.solve(A, cfg).values[0] == 0.0
    pin_ok = 0
    for t in range(10):
        grids = [generators.uniform_grid(*generators.SCHWEFEL_BOUNDS,
                                         int(rng.integers(2, 65)),
                                         include=generators.SCHWEFEL_OPTIMUM)
                 for _ in range(6)]
        A = generators.gen_schwefel(grids)
        cfg = SolverConfig(k=1, extra=5, block_size=2, key=OrderingKey.MIN,
                           restarts=5, seed=200 + t)
        pin_ok += solver.solve(A, cfg).values[0] <= 1e-3 * 6
    hits = 0
    for t in range(50):
        r2 = np.random.default_rng(np.random.SeedSequence([5, t]))
        grids = [generators.uniform_grid(*generators.GRIEWANK_BOUNDS,
                                         int(r2.integers(2, 5)))
                 for _ in range(10)]
        A = generators.gen_griewank(grids)
        oracle = baselines.oracle_topk(A, 1, key=OrderingKey.MIN)
        cfg = SolverConfig(k=1, extra=5, block_size=2, key=OrderingKey.MIN,
                           restarts=5, seed=300 + t)
        res = solver.solve(A, cfg)
        hits += harness.is_topk_hit(A, res.indices, oracle.indices,
                                    OrderingKey.MIN)
    ok = zero_ok == 10 and pin_ok == 10 and hits >= 40
    _report(6, ok,
            f"griewank zero-grid exact-0 {zero_ok}/10, schwefel pinned-optimum "
            f"{pin_ok}/10 (<= 6e-3), d=10 dense-oracle match {hits}/50 (>= 40)")


def test_criterion_7_qft_against_dense_statevector():
    stats = {}
    for d in (4, 9, 16):
        recs = harness.run_qft_trials(d, 30, seed=3, k=5, extra=5, block=2,
                                      rank_cap=None)
        stats[d] = (max(r["max_amp_err"] for r in recs),
                    sum(r["top1_match"] for r in recs),
                    sum(r["topk_set_match"] for r in recs))
    amp_ok = all(s[0] <= 1e-10 for s in stats.values())
    ok = amp_ok and stats[9][1] == 30 and stats[16][2] >= 26
    _report(7, ok, "qft "
            + " ".join(f"d={d}: amp_err={s[0]:.2e} top1={s[1]}/30 "
                       f"top5set={s[2]}/30" for d, s in stats.items())
            + " (amp <= 1e-10, d=9 top1 30/30, d=16 top5set >= 26/30)")


def test_criterion_8_best_value_never_decreases():
    assert TRACE_BANK, "criteria 1-4 must run first in the same session"
    violations = 0
    sweeps = 0
    for trace in TRACE_BANK:
        for a, b in zip(trace, trace[1:]):
            sweeps += 1
            violations += b < a
    _report(8, violations == 0,
            f"per-sweep best key value non-decreasing over {len(TRACE_BANK)} "
            f"restarts / {sweeps} sweep steps, {violations} violations")


def test_criterion_9_power_iteration_on_separable_tensors():
    loc_ok = val_ok = 0
    for t in range(50):
        rng = np.random.default_rng(np.random.SeedSequence([9, t]))
        d = int(rng.integers(3, 8))
        expected = []
        factors = []
        for _ in range(d):
            n = int(rng.integers(2, 9))
            col = rng.uniform(0.1, 1.0, (n, 1))
            pos = int(rng.integers(n))
            col[pos, 0] = 1.5 + rng.uniform(0.0, 0.5)
            factors.append(col)
            expected.append(pos)
        A = cp.CpTensor(factors)
        res = baselines.power_iteration_max(A)
        loc_ok += tuple(int(v) for v in res.loc) == tuple(expected)
        val_ok += res.value == cp.element(A, res.loc)
    _report(9, loc_ok == 50 and val_ok == 50,
            f"separable rank-1 maxima: location {loc_ok}/50, "
            f"value bit-equal to element() {val_ok}/50")
