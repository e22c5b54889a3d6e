"""Tests of the traced run's wrappers.

    python3 -m pytest perfbench/test_trace.py

Each workload runs one op traced, twice.  A wrapper installed on an attribute
that the caller does not look up records nothing, so every heavy layer of a
workload must report non-zero work there; counts must repeat exactly across
the two runs; and the package's attributes must be the originals afterwards.
"""

import pytest

import run

run.load_package()

import spans  # noqa: E402
import workloads  # noqa: E402

# Stats of each workload's heavy layers that must be non-zero on it.
HEAVY = {
    "solve_large": [
        "kernels.masked_argmax.calls", "kernels.masked_argmax.self_s",
        "kernels.block_expand.calls", "kernels.block_expand.distinct_windows",
        "kernels.block_expand.cells", "kernels.eval_elements.calls",
        "kernels.eval_elements.rows", "solver.compute_alpha.calls",
        "solver.init_candidates.calls", "solver.contraction.flops",
        "solver.solve.calls", "solver.solve.self_s", "solver.solve.sweeps",
        "solver.solve.pool_size",
    ],
    "bench_k1": [
        "harness.bench_trial.calls", "baselines.oracle_topk.calls",
        "baselines.power_iteration_max.calls",
        "baselines.power_iteration_max.iterations",
        "recompress.recompress.calls", "recompress.recompress.self_s",
        "recompress.rank_one_argmax.calls", "cp.materialize.calls",
        "cp.hadamard.calls", "cp.inner.calls", "solver.solve.calls",
    ],
    "qft16": [
        "qft.run_qft.calls", "qft.run_qft.final_rank", "qft.apply_gate.calls",
        "qft.apply_gate.rank_max", "cp.CpTensor.constructs",
        "cp.CpTensor.bytes_copied", "cp.add.calls", "cp.drop_zero_columns.calls",
        "cp.ttm.calls", "cpt_io.write_cpt.calls", "cpt_io.write_cpt.bytes",
        "cpt_io.read_cpt.calls", "cpt_io.read_cpt.bytes", "solver.solve.calls",
        "solver.contraction.flops",
    ],
}

COUNT_SUFFIXES = (".calls", ".rows", ".cells", ".flops", ".sweeps", ".iterations",
                  ".bytes", ".bytes_copied", ".constructs", ".rank_max",
                  ".final_rank", ".distinct_windows", ".pool_size", ".exhausted")


def _attributes():
    return {(id(owner), attr): owner.__dict__[attr]
            for owner, attr, _, _ in spans.targets()}


def _one_op(name, tmp_path):
    wl = workloads.WORKLOADS[name](str(tmp_path))
    # bench_k1's trial 1 (um11) is its cheapest; the others take one op
    ops = [(1, "um11")] if name == "bench_k1" else wl.make_ops(7, 1)
    return wl, ops


@pytest.mark.parametrize("name", sorted(HEAVY))
def test_traced_run_reaches_every_heavy_layer_and_repeats(name, tmp_path):
    wl, ops = _one_op(name, tmp_path)
    before = _attributes()
    counts = []
    for _ in range(2):
        tracer = spans.Tracer()
        outputs, _, _, notes = run.run_ops(wl, ops, tracer)
        assert not notes
        assert not run.check_all(wl, ops, outputs, notes)[1]
        assert _attributes() == before
        stats = tracer.stats()
        zero = [s for s in HEAVY[name] if not stats.get(s)]
        assert not zero, f"{name}: no work recorded for {zero}"
        assert set(stats) <= spans.KNOWN_STATS
        counts.append({k: v for k, v in stats.items() if k.endswith(COUNT_SUFFIXES)})
    assert counts[0] == counts[1]


def test_wrappers_removed_when_the_op_raises():
    before = _attributes()
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert _attributes() != before
            raise RuntimeError("op failed")
    assert _attributes() == before


def test_self_time_subtracts_direct_children():
    tracer = spans.Tracer()
    for name, start, end, parent in [
        ("op", 0.0, 10.0, -1),
        ("solver.solve", 1.0, 9.0, 0),
        ("kernels.block_expand", 2.0, 4.0, 1),
        ("solver.compute_alpha", 5.0, 6.0, 1),
        ("kernels.eval_elements", 5.2, 5.7, 3),
    ]:
        tracer.names.append(name)
        tracer.starts.append(start)
        tracer.ends.append(end)
        tracer.parents.append(parent)
        tracer.ops.append(0)
    stats = tracer.stats()
    assert stats["solver.solve.self_s"] == pytest.approx(5.0)
    assert stats["solver.solve.total_s"] == pytest.approx(8.0)
    assert stats["solver.compute_alpha.self_s"] == pytest.approx(0.5)
    assert stats["kernels.block_expand.calls"] == 1
    assert "op.calls" not in stats
