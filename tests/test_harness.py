"""Benchmark driver: seed discipline, hit accounting, CSV determinism."""

import csv
import io

import numpy as np
import pytest

from tensor_topk import cp, harness
from tensor_topk.harness import (BENCH_COLUMNS, bench_trial, is_topk_hit,
                                 run_bench, run_func, run_qft_trials,
                                 summarize_bench, trial_seed)
from tensor_topk.solver import OrderingKey


def test_trial_seed_stable_and_tagged():
    a = trial_seed(0, 7)
    assert a == trial_seed(0, 7)
    assert a != trial_seed(0, 8)
    assert a != trial_seed(1, 7)
    assert a != trial_seed(0, 7, tag=1)


def test_hit_set_equality(rng):
    from conftest import random_factors
    A = cp.CpTensor(random_factors(rng, (4, 3, 5), 3))
    found = np.array([[0, 0, 0], [1, 2, 3]])
    assert is_topk_hit(A, found, found[::-1], OrderingKey.MAX)  # order-free
    other = np.array([[0, 0, 0], [1, 2, 4]])
    assert not is_topk_hit(A, found, other, OrderingKey.MAX)


def test_hit_tolerates_exact_value_ties():
    # all entries equal: any distinct pair is as good as the oracle's pair
    A = cp.cp_ones((3, 3))
    oracle = np.array([[0, 0], [1, 0]])
    found = np.array([[2, 2], [0, 1]])
    assert is_topk_hit(A, found, oracle, OrderingKey.MAX)
    assert not is_topk_hit(A, np.array([[0, 0], [0, 0]]), oracle, OrderingKey.MAX)


def test_bench_trial_rows():
    rows = bench_trial(0, 3, "u01", 5, OrderingKey.MAX, 1 << 22, 2, 50)
    methods = [r["method"] for r in rows]
    assert methods == ["ours_s1_K1", "ours_s1_K5", "ours_s2_K1", "ours_s2_K5",
                       "oracle"]
    for row in rows:
        assert set(row) == set(BENCH_COLUMNS)
        assert row["dist"] == "u01"
        assert row["hit"] in ("true", "false")
        assert len(row["oracle_match"].split(";")) == 5
        assert len(row["indices"].split(";")) == 5
    assert rows[-1]["hit"] == "true"  # the oracle always hits itself


def test_bench_trial_k1_includes_power_iteration():
    rows = bench_trial(0, 1, "u075", 1, OrderingKey.MAX, 1 << 22, 1, 50)
    assert "power_iteration" in [r["method"] for r in rows]


def test_bench_trial_tensor_independent_of_method_set():
    a = bench_trial(5, 0, "um11", 1, OrderingKey.MAX, 1 << 22, 1, 50)
    b = bench_trial(5, 0, "um11", 5, OrderingKey.MIN, 1 << 22, 1, 50)
    assert a[0]["dims"] == b[0]["dims"]
    assert a[0]["rank"] == b[0]["rank"]


def _read_rows(path):
    with open(path) as fh:
        first = fh.readline()
        assert first == "# schema=1\n"
        rows = list(csv.DictReader(fh))
    for row in rows:
        row.pop("wall_time")  # environmental, excluded from comparisons
    return rows


def test_run_bench_rows_in_trial_order(tmp_path):
    run_bench(tmp_path / "c.csv", trials=3, dists=["um11", "u01"], k=1,
              key=OrderingKey.MIN, seed=0, restarts=1)
    rows = _read_rows(tmp_path / "c.csv")
    data = [r for r in rows if r["trial"] != "summary"]
    seen = [(r["dist"], int(r["trial"])) for r in data]
    assert seen == sorted(seen, key=lambda t: (["um11", "u01"].index(t[0]), t[1]))
    assert any(r["trial"] == "summary" for r in rows)


def test_summarize_math():
    rows = [
        {"dist": "u01", "method": "m", "excluded": "false", "hit": "true"},
        {"dist": "u01", "method": "m", "excluded": "false", "hit": "false"},
        {"dist": "u01", "method": "m", "excluded": "true", "hit": ""},
        {"dist": "u01", "method": "oracle", "excluded": "false", "hit": "true"},
    ]
    out = summarize_bench(rows)
    assert len(out) == 1
    assert out[0]["hits"] == 1 and out[0]["counted"] == 2
    assert out[0]["excluded"] == 1
    assert out[0]["accuracy"] == 0.5


def test_run_func_records():
    recs = run_func("schwefel", 4, 3, 3, seed=1, pin_optimum=True)
    assert len(recs) == 3
    for rec in recs:
        assert rec["function"] == "schwefel"
        assert rec["oracle_min"] is not None
        # separable objective: both block sizes recover the true grid minimum
        assert rec["hit_s1"] and rec["hit_s2"]
        assert rec["min_s2"] == pytest.approx(rec["oracle_min"], rel=1e-12, abs=1e-9)
        # the pinned optimum keeps that minimum near zero
        assert rec["min_s2"] <= 1e-3 * 4


def test_run_qft_trials_small():
    recs = run_qft_trials(4, 2, seed=0, k=3, extra=3, block=2)
    assert len(recs) == 2
    for rec in recs:
        assert rec["max_amp_err"] <= 1e-10
        assert rec["top1_match"] and rec["topk_set_match"]
        assert rec["rank"] <= 4
    assert not any("state" in rec for rec in recs)


def test_run_qft_trials_keeps_only_the_last_state():
    # --dump-state writes the last trial's state, so no other one is held
    recs = run_qft_trials(4, 3, seed=0, k=3, extra=3, block=2, keep_last_state=True)
    assert ["state" in rec for rec in recs] == [False, False, True]
    want = harness.simulate_and_measure(4, init_seed=trial_seed(0, 2, tag=3), k=3,
                                        extra=3, block_size=2).state
    got = recs[-1]["state"]
    assert got.rank == recs[-1]["rank"]
    for fg, fw in zip(got.factors, want.factors):
        assert fg.tobytes() == fw.tobytes()
