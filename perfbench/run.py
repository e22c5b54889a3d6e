"""Benchmark of tensor-topk: one workload per call, timed or traced.

    python3 perfbench/run.py --workload solve_large --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): solve_large, bench_k1, qft16.  A run builds the
workload's fixed op list from the seed, sized so that two passes over it take
about ``--seconds`` at the workload's nominal op time, and runs both passes
in a closed loop: one client, one process, BLAS limited to one thread.
``wall_s`` is the faster pass.  Every output is checked after the timed
region, and the second pass must repeat the first bit for bit.  The report
goes to stdout; its last line is one JSON object with ``correct``,
``attempted``, ``failed`` and the metrics that BENCHMARK.json names: the end-to-end ones with ``--trace 0``, the per-layer
ones with ``--trace 1``.  The median op time, ``failed_frac`` and the hit
rates are printed above it but are not BENCHMARK.json metrics: bench_k1's
trials span 0.7 to 8 s, so its median op rests on one or two trials and
swings with the host.  A traced run makes one pass, running each op twice,
untraced and traced, and writes its spans to ``.bench_out/``.

Exit codes: 0 all checks passed, 1 an op raised or failed a check, 2 the
package source is not in this checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BLAS_THREADS = "1"
BLAS_ENV = {var: BLAS_THREADS for var in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
SETUP_REPEATS = 11
# The host is shared: whole spells of 10 to 30 s run up to 40% slow, with CPU
# time tracking wall time.  wall_s is the faster of two passes over the same
# op list, so a spell that covers one pass drops out.
PASSES = 2
PROBE_REPEATS = 3

# Timed in a fresh interpreter: numpy and the package, compiled from source
# because no bytecode is written.
IMPORT_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import tensor_topk
print(time.perf_counter() - t0)
"""


def load_package():
    """Import tensor_topk from this checkout's src/, never an installed copy."""
    init = SRC / "tensor_topk" / "__init__.py"
    if not init.is_file():
        print(f"benchmark: package source {init.relative_to(ROOT)} not found",
              file=sys.stderr)
        sys.exit(2)
    os.environ.update(BLAS_ENV)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import tensor_topk

    if Path(tensor_topk.__file__).resolve() != init.resolve():
        print(f"benchmark: imported {tensor_topk.__file__}, not {init}", file=sys.stderr)
        sys.exit(2)


def import_seconds():
    env = dict(os.environ, **BLAS_ENV)
    done = subprocess.run([sys.executable, "-I", "-B", "-c", IMPORT_PROBE, str(SRC)],
                          env=env, capture_output=True, text=True, check=True,
                          timeout=120)
    return float(done.stdout)


def host_probe():
    """Fixed numpy and interpreter work, timed; tracks host speed only."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((256, 256))
    t0 = time.perf_counter()
    for _ in range(20):
        a @ a
    total = 0
    for i in range(300_000):
        total += i & 7
    return time.perf_counter() - t0


def median_probe():
    return statistics.median(host_probe() for _ in range(PROBE_REPEATS))


def run_ops(wl, ops, tracer=None, keep=True):
    """Run every op once; returns (outputs, op seconds, failure notes).

    With a tracer, each op runs both untraced and traced, alternating which
    goes first, and the two outputs must have the same digest.  With
    ``keep=False`` only each output's digest is kept, so a repeated pass
    does not hold a second set of outputs in memory.
    """
    outputs, seconds, untraced, notes = [], [], [], {}
    for i, op in enumerate(ops):
        out = None
        try:
            if tracer is not None:
                for traced in ((False, True) if i % 2 == 0 else (True, False)):
                    t0 = time.perf_counter()
                    if traced:
                        with tracer.installed(), tracer.op_span(i):
                            out = wl.run(op)
                        seconds.append(time.perf_counter() - t0)
                    else:
                        plain = wl.run(op)
                        untraced.append(time.perf_counter() - t0)
                if wl.digest(plain) != wl.digest(out):
                    notes[i] = ["traced output differs from the untraced output"]
                del plain
            else:
                t0 = time.perf_counter()
                out = wl.run(op)
                seconds.append(time.perf_counter() - t0)
            if not keep:
                out = wl.digest(out)
        except Exception:  # an op that raises is counted as failed
            notes[i] = ["raised:\n" + traceback.format_exc()]
        outputs.append(out)
    return outputs, seconds, untraced, notes


def run_passes(wl, ops):
    """Run the op list PASSES times; returns (outputs, op seconds, notes, pass walls).

    The outputs and notes are those of the first pass; a later pass whose
    output digest differs from the first pass's counts that op as failed.
    """
    seconds, walls = [], []
    for p in range(PASSES):
        t0 = time.perf_counter()
        outs, secs, _, pass_notes = run_ops(wl, ops, keep=p == 0)
        walls.append(time.perf_counter() - t0)
        seconds += secs
        if p == 0:
            outputs, notes = outs, pass_notes
            continue
        for i, (first, digest) in enumerate(zip(outputs, outs)):
            if i in pass_notes:
                notes.setdefault(i, []).extend(pass_notes[i])
            elif first is not None and wl.digest(first) != digest:
                notes.setdefault(i, []).append(f"pass {p} output differs from pass 0")
    return outputs, seconds, notes, walls


def check_all(wl, ops, outputs, notes):
    tally = {}
    failures = dict(notes)
    for i, (op, out) in enumerate(zip(ops, outputs)):
        if out is None:
            continue
        problems = wl.check(op, out, tally)
        if problems:
            failures.setdefault(i, []).extend(problems)
    return tally, failures


def digest_all(wl, outputs):
    h = hashlib.sha256()
    for out in outputs:
        h.update(b"-" if out is None else wl.digest(out))
    return h.hexdigest()


def environment():
    import numpy as np
    from tensor_topk import kernels

    return {
        "numba_enabled": kernels.NUMBA_ENABLED,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="target length of the timed op list")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    load_package()
    import spans
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        wl = workloads.WORKLOADS[args.workload](workdir)
        n_ops = max(1, round(args.seconds / PASSES / wl.nominal_op_s))

        setups = []
        for _ in range(SETUP_REPEATS):
            imported = import_seconds()
            t0 = time.perf_counter()
            ops = wl.make_ops(args.seed, n_ops)
            setups.append(imported + time.perf_counter() - t0)

        probe_before = median_probe()
        tracer = spans.Tracer() if args.trace else None
        if tracer is not None:
            outputs, seconds, untraced, notes = run_ops(wl, ops, tracer)
            pass_walls = [sum(seconds)]
        else:
            outputs, seconds, notes, pass_walls = run_passes(wl, ops)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        probe_after = median_probe()

    tally, failures = check_all(wl, ops, outputs, notes)
    digest = digest_all(wl, outputs)

    if args.trace:
        stats = tracer.stats()
        stats["trace.traced_wall_s"] = sum(seconds)
        stats["trace.untraced_wall_s"] = sum(untraced)
        stats["trace.overhead_s"] = sum(seconds) - sum(untraced)
        trace_path = OUT / f"spans-{wl.name}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        wanted = spec["per_layer"]
        known = spans.KNOWN_STATS | {n for n in stats if n.startswith("trace.")}
    else:
        stats = {
            "setup_s": statistics.median(setups),
            "wall_s": min(pass_walls),
            "peak_rss_mb": peak_rss_mb,
        }
        wanted = spec["end_to_end"]
        known = set(stats)
    missing = [m["name"] for m in wanted if m["name"] not in known]
    if missing:
        raise SystemExit(f"benchmark: no measurement for {missing}")
    metrics = {m["name"]: {"value": stats.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}

    attempted, failed = len(ops), len(failures)
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"ops {attempted}  (closed loop, 1 client, 1 process)")
    for name, m in metrics.items():
        print(f"  {name:<44s} {m['value']:>16.6g} {m['unit']}")
    if not args.trace:
        op_p50 = statistics.median(seconds) if seconds else float("nan")
        print(f"  {'op_p50_s':<44s} {op_p50:>16.6g} s  (median of {len(seconds)} ops)")
        print("  wall_s is the faster of passes taking "
              + ", ".join(f"{w:.3f}" for w in pass_walls) + " s")
        print(f"  setup_s is the median of {SETUP_REPEATS} set-ups "
              f"(fresh-interpreter import + input generation)")
    else:
        print(f"  spans written to {trace_path.relative_to(ROOT)}")
    print(f"  {'failed_frac':<44s} {failed / attempted:>16.6g} 1  ({failed}/{attempted})")
    for name, (value, unit) in wl.quality(tally).items():
        print(f"  {name:<44s} {value:>16.6g} {unit}")
    print(f"  output digest sha256:{digest}")
    info = dict(environment(), host_probe_before_s=probe_before,
                host_probe_after_s=probe_after)
    print("  env " + json.dumps(info))
    for i, problems in sorted(failures.items()):
        for p in problems:
            print(f"benchmark: op {i} failed: {p}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
