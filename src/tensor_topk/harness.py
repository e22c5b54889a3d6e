"""Batch experiment drivers behind the bench/func/qft subcommands.

CSV layout (schema 1): a ``# schema=1`` comment line, a header row, one row
per (trial, method), and per-method ``summary`` rows.  Result columns are a
pure function of the master seed: trial streams are seeded by (seed, trial),
so adding or removing a method never changes the tensor draws.  Only the
wall_time column is environmental.

Every driver runs its trials in order, in-process.  A trial of more than a
fixed ``cp.DENSE_CAP_DEFAULT`` = 2^22 entries gets no dense-oracle check,
and an exact QFT whose final factors would hold more entries than that is
refused before its first gate.
"""

from __future__ import annotations

import csv
import math
import time

import numpy as np

from . import cp
from .baselines import oracle_topk, power_iteration_max
from .errors import CapacityError, InfeasibleKError, ShapeMismatchError
from .generators import (
    DISTRIBUTIONS,
    RandomSpec,
    gen_griewank,
    gen_random_cp,
    gen_schwefel,
    griewank_grids,
    schwefel_grids,
)
from .qft import qft_reference, simulate_and_measure, square_layout, statevector
from .solver import SUBPROBLEM_CAP, OrderingKey, SolverConfig, key_values, solve

BENCH_COLUMNS = [
    "trial", "dist", "trial_seed", "method", "k", "extra", "block", "d",
    "dims", "rank", "values", "indices", "oracle_match", "hit", "excluded",
    "wall_time",
]


def trial_seed(master_seed, trial, tag=0):
    """Stable per-trial integer seed derived from the master seed."""
    ss = np.random.SeedSequence([int(master_seed), int(trial), int(tag)])
    return int(ss.generate_state(1)[0])


def is_topk_hit(A, found_indices, oracle_indices, key):
    """Whether ``found_indices`` is a valid top-k index set.

    Exact set equality counts, and so does any distinct index set whose
    re-evaluated key values match the oracle set's sorted key values exactly
    (value ties may swap members either way).
    """
    found = {tuple(int(v) for v in row) for row in np.atleast_2d(found_indices)}
    target = {tuple(int(v) for v in row) for row in np.atleast_2d(oracle_indices)}
    if found == target:
        return True
    if len(found) != len(target):
        return False
    ours = np.sort(key_values(cp.elements_at(A, np.array(sorted(found))), key))
    best = np.sort(key_values(cp.elements_at(A, np.array(sorted(target))), key))
    return bool(np.array_equal(ours, best))


def _fmt_values(values):
    # bench tensors are real (gen_random_cp)
    return ";".join(f"{float(v):.17g}" for v in np.atleast_1d(values))


def _fmt_indices(indices):
    rows = np.atleast_2d(indices)
    return ";".join(",".join(str(int(v) + 1) for v in row) for row in rows)


def _check_run(trials, seed):
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    # SeedSequence would reject it only once the first trial draws
    if seed < 0:
        raise ValueError(f"the master seed (--seed) must be >= 0, got {seed}")


def _solver_methods():
    methods = []
    for s in (1, 2):
        for extra in (1, 5):
            methods.append((f"ours_s{s}_K{extra}", s, extra))
    return methods


def bench_trial(master_seed, trial, dist, k, key, oracle_cap, restarts,
                max_sweeps):
    """All method rows for one benchmark trial."""
    rng = np.random.default_rng(np.random.SeedSequence([int(master_seed), int(trial)]))
    A = gen_random_cp(RandomSpec(distribution=dist), rng)
    base = {
        "trial": trial, "dist": dist, "trial_seed": trial_seed(master_seed, trial),
        "k": k, "d": A.order,
        "dims": "x".join(str(n) for n in A.dims), "rank": A.rank,
    }
    try:
        t0 = time.perf_counter()
        reference = oracle_topk(A, k, key=key, max_elems=oracle_cap)
        oracle_time = time.perf_counter() - t0
        excluded = False
    except CapacityError:
        reference = None
        oracle_time = 0.0
        excluded = True
    rows = []

    def push(method, s, extra, values, indices, wall):
        row = dict(base, method=method, extra=extra, block=s,
                   values=_fmt_values(values), indices=_fmt_indices(indices),
                   excluded=str(excluded).lower(), wall_time=f"{wall:.6f}")
        if reference is None:
            row["oracle_match"] = row["hit"] = ""
        else:
            target = {tuple(int(v) for v in r) for r in reference.indices}
            per_pos = [tuple(int(v) for v in r) in target
                       for r in np.atleast_2d(indices)]
            row["oracle_match"] = ";".join(str(b).lower() for b in per_pos)
            row["hit"] = str(is_topk_hit(A, indices, reference.indices, key)).lower()
        rows.append(row)

    for method, s, extra in _solver_methods():
        cfg = SolverConfig(k=k, extra=extra, block_size=s, key=key,
                           restarts=restarts, max_sweeps=max_sweeps,
                           seed=trial_seed(master_seed, trial, tag=1))
        t0 = time.perf_counter()
        res = solve(A, cfg)
        push(method, s, extra, res.values, res.indices, time.perf_counter() - t0)
    if key is OrderingKey.MAX and k == 1:
        t0 = time.perf_counter()
        res = power_iteration_max(A)
        push("power_iteration", 0, 0, np.array([res.value]),
             np.array([res.loc], dtype=np.int64), time.perf_counter() - t0)
    if reference is not None:
        push("oracle", 0, 0, reference.values, reference.indices, oracle_time)
    return rows


def run_bench(out_path, trials, dists, k, key, seed, restarts=5, max_sweeps=50):
    """Run the benchmark grid and write the schema-1 CSV; returns summaries."""
    if not dists:
        raise ValueError(f"no distribution given (--dist); choose from {sorted(DISTRIBUTIONS)}")
    # RandomSpec would reject it only when its first trial draws
    unknown = [name for name in dists if name not in DISTRIBUTIONS]
    if unknown:
        raise ValueError(f"unknown distribution {unknown[0]!r} in --dist; "
                         f"choose from {sorted(DISTRIBUTIONS)}")
    # a repeated name would run its trials again and double their CSV rows
    repeated = [name for i, name in enumerate(dists) if name in dists[:i]]
    if repeated:
        raise ValueError(f"distribution {repeated[0]!r} repeated in --dist")
    _check_run(trials, seed)
    rows = [row for dist in dists for t in range(trials)
            for row in bench_trial(seed, t, dist, k, key, cp.DENSE_CAP_DEFAULT,
                                   restarts, max_sweeps)]
    summaries = summarize_bench(rows)
    write_bench_csv(out_path, rows, summaries)
    return summaries


def summarize_bench(rows):
    """Per (dist, method) accuracy over the oracle-checkable trials."""
    tally = {}
    for row in rows:
        if row["method"] == "oracle":
            continue
        bucket = tally.setdefault((row["dist"], row["method"]),
                                  {"hits": 0, "counted": 0, "excluded": 0})
        if row["excluded"] == "true":
            bucket["excluded"] += 1
        else:
            bucket["counted"] += 1
            if row["hit"] == "true":
                bucket["hits"] += 1
    out = []
    for (dist, method), b in sorted(tally.items()):
        acc = b["hits"] / b["counted"] if b["counted"] else float("nan")
        out.append({"dist": dist, "method": method, "hits": b["hits"],
                    "counted": b["counted"], "excluded": b["excluded"],
                    "accuracy": acc})
    return out


def write_bench_csv(path, rows, summaries):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("# schema=1\n")
        writer = csv.DictWriter(fh, fieldnames=BENCH_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
        for s in summaries:
            writer.writerow({
                "trial": "summary", "dist": s["dist"], "method": s["method"],
                "values": f"{s['accuracy']:.6f}", "oracle_match":
                    f"hits={s['hits']}/{s['counted']}",
                "excluded": str(s["excluded"]),
            })


def run_func(function, d, max_size, trials, seed, pin_optimum=False):
    """Grid-tensor minimization trials; returns one record per trial.

    Grid sizes are drawn from [2, max_size]; each trial solves with block
    sizes 1 and 2 (``min_s1``/``min_s2``).
    """
    if function not in ("griewank", "schwefel"):
        raise ValueError(f"unknown function {function!r}")
    _check_run(trials, seed)
    if max_size < 2:
        raise ValueError(f"the largest grid size (--n) must be >= 2, got {max_size}")
    if d < 1:
        raise ValueError(f"the number of modes (--d) must be >= 1, got {d}")
    records = []
    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), int(trial)]))
        sizes = [int(rng.integers(2, max_size + 1)) for _ in range(d)]
        if function == "griewank":
            grids = griewank_grids(sizes, include_zero=pin_optimum)
            A = gen_griewank(grids)
        else:
            grids = schwefel_grids(sizes, include_optimum=pin_optimum)
            A = gen_schwefel(grids)
        rec = {"trial": trial, "function": function,
               "dims": "x".join(str(n) for n in sizes), "entries": A.size()}
        try:
            reference = oracle_topk(A, 1, key=OrderingKey.MIN)
            rec["oracle_min"] = float(reference.values[0])
        except CapacityError:
            reference = None
            rec["oracle_min"] = None
        for s in (1, 2):
            cfg = SolverConfig(k=1, extra=5, block_size=s, key=OrderingKey.MIN,
                               seed=trial_seed(seed, trial, tag=2))
            try:
                res = solve(A, cfg)
            except CapacityError as exc:
                # there is no --block here, so name the flag that shrinks blocks
                raise CapacityError(
                    f"grid {rec['dims']}: {exc}; blocks span up to 2 modes, so"
                    f" use --n {math.isqrt(SUBPROBLEM_CAP)} or less"
                ) from exc
            rec[f"min_s{s}"] = float(res.values[0])
            if reference is not None:
                rec[f"hit_s{s}"] = is_topk_hit(A, res.indices, reference.indices,
                                               OrderingKey.MIN)
        records.append(rec)
    return records


def run_qft_trials(d, trials, seed, k=5, extra=5, block=2, rank_cap=None,
                   keep_last_state=False):
    """QFT measurement trials; dense-oracle columns where the size permits.

    With ``keep_last_state``, the last record's ``state`` holds that trial's
    final CP state; no other trial's state is kept.  Without ``rank_cap``,
    raises CapacityError before any trial when the final factors would hold
    more than ``cp.DENSE_CAP_DEFAULT`` entries.
    """
    _check_run(trials, seed)
    # a negative count would reach square_layout's sqrt as NaN
    if d < 1:
        raise ValueError(f"the qubit count (--d) must be >= 1, got {d}")
    try:
        layout = square_layout(d)
    except ShapeMismatchError as exc:
        raise ValueError(f"{exc} (--d)") from None
    # recompress would reject it only once the first gate passes the cap
    if rank_cap is not None and rank_cap < 1:
        raise ValueError(f"the target rank (--rank-cap) must be >= 1, got {rank_cap}")
    # the exact QFT of a product state ends at rank 2^(d - q), so its final
    # factors hold modes * 2^q * 2^(d - q) = modes * 2^d entries
    entries = layout.modes << d
    if rank_cap is None and entries > cp.DENSE_CAP_DEFAULT:
        raise CapacityError(
            f"an exact d={d} QFT ends at rank {1 << d - layout.per_mode}, {entries} factor"
            f" entries, past the cap of {cp.DENSE_CAP_DEFAULT}; set --rank-cap")
    # solve would reject it only after the first trial's gates
    if k > 1 << d:
        raise InfeasibleKError(f"k={k} exceeds the tensor size of {1 << d} entries (--k)")
    records = []
    for trial in range(trials):
        res = simulate_and_measure(d, init_seed=trial_seed(seed, trial, tag=3),
                                   k=k, extra=extra, block_size=block,
                                   rank_cap=rank_cap)
        rec = {
            "trial": trial, "d": d, "rank": res.state.rank,
            "bitstrings": ";".join(res.bitstrings),
            "magnitudes": ";".join(f"{v:.12g}" for v in res.magnitudes),
        }
        if keep_last_state and trial == trials - 1:
            rec["state"] = res.state
        if (1 << d) <= cp.DENSE_CAP_DEFAULT and rank_cap is None:
            psi = qft_reference(statevector(res.initial_state))
            dense = statevector(res.state)
            rec["max_amp_err"] = float(np.max(np.abs(dense - psi)))
            order = np.lexsort((np.arange(psi.shape[0]), -np.abs(psi)))[:k]
            target = {format(int(n), f"0{d}b") for n in order}
            rec["top1_match"] = res.bitstrings[0] == format(int(order[0]), f"0{d}b")
            rec["topk_set_match"] = set(res.bitstrings) == target
        records.append(rec)
    return records
