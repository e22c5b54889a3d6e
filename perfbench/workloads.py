"""The benchmark's workloads: seeded inputs, one op, and the checks on its output.

Each workload builds a fixed op list in set-up from (seed, op count), runs
one op at a time, and checks every output after the timed region.  Ops call
the package through module attributes (``solver.solve``,
``harness.bench_trial``, ...), so the traced run's wrappers see them.
"""

from __future__ import annotations

import os

import numpy as np

from tensor_topk import cp, cpt_io, generators, harness, qft, solver
from tensor_topk.baselines import ORACLE_CAP_DEFAULT
from tensor_topk.solver import OrderingKey, SolverConfig


def answer_problems(A, indices, values, k):
    """Why a top-k answer is invalid: shape, range, duplicates, inexact values.

    Every value must be bit-equal to ``cp.elements_at`` at its index.
    """
    idx = np.asarray(indices, dtype=np.int64)
    if idx.shape != (k, A.order):
        return [f"expected {k} index rows of order {A.order}, got shape {idx.shape}"]
    if np.any(idx < 0) or np.any(idx >= np.array(A.dims)):
        return ["index out of range"]
    problems = []
    if len({tuple(row) for row in idx.tolist()}) != k:
        problems.append("indices are not distinct")
    exact = cp.elements_at(A, idx)
    vals = np.asarray(values)
    if vals.dtype != exact.dtype or vals.tobytes() != exact.tobytes():
        problems.append("values are not bit-equal to cp.elements_at")
    return problems


def _ratio(hits, checked):
    return hits / checked if checked else float("nan")


class Workload:
    """Shared shape of a workload; ``workdir`` holds any files its ops write."""

    def __init__(self, workdir):
        self.workdir = workdir


class SolveLarge(Workload):
    """One ``solver.solve`` per op on a seeded 100^8 rank-20 real tensor.

    The paper's regime: 10^16 entries, far too many to densify, so the
    kernels and the selection loop do the work.  Factors alternate between
    u01 and um11, which changes the sweep count and the pool size.
    """

    name = "solve_large"
    nominal_op_s = 1.05
    dims = (100,) * 8
    rank = 20

    def make_ops(self, seed, n_ops):
        ops = []
        for i in range(n_ops):
            lo, hi = generators.DISTRIBUTIONS[("u01", "um11")[i % 2]]
            rng = np.random.default_rng([seed, i])
            A = cp.CpTensor([rng.uniform(lo, hi, size=(n, self.rank)) for n in self.dims])
            cfg = SolverConfig(k=10, extra=40, block_size=2, restarts=3,
                               seed=harness.trial_seed(seed, i))
            ops.append((A, cfg))
        return ops

    def run(self, op):
        A, cfg = op
        return solver.solve(A, cfg)

    def check(self, op, res, tally):
        A, cfg = op
        tally.setdefault("objective", []).append(res.objective)
        return answer_problems(A, res.indices, res.values, cfg.k)

    def digest(self, res):
        return res.indices.tobytes() + res.values.tobytes()

    def quality(self, tally):
        objectives = tally.get("objective", [])
        mean = float(np.mean(objectives)) if objectives else float("nan")
        return {"objective_mean": (mean, "1")}


class BenchK1(Workload):
    """One ``harness.bench_trial`` per op: the default ``tensor-topk bench``.

    Each trial runs the dense oracle, the four ``ours_s{1,2}_K{1,5}`` solver
    rows and ``power_iteration_max`` on a small random tensor, so
    ``recompress``, power iteration and the oracle do the work.  Trial t
    draws from u01, um11, u075 in turn.  The trial list is fixed: it comes
    from a fixed master seed, and the run's seed does not change it.  Power
    iteration, most of each trial, stops its ALS recompressions on a
    data-dependent tolerance; on one tensor shape its linear-solve count
    ranged from 3k to 78k between draws, so fresh trials per seed would time
    the draw, not the code.
    """

    name = "bench_k1"
    nominal_op_s = 4.0
    master_seed = 0
    dists = ("u01", "um11", "u075")

    def make_ops(self, seed, n_ops):
        return [(t, self.dists[t % len(self.dists)]) for t in range(n_ops)]

    def run(self, op):
        t, dist = op
        return harness.bench_trial(self.master_seed, t, dist, 1, OrderingKey.MAX,
                                   ORACLE_CAP_DEFAULT, 5, 50)

    def tensor(self, op):
        """The trial's tensor, drawn as ``bench_trial`` draws it."""
        t, dist = op
        rng = np.random.default_rng(np.random.SeedSequence([self.master_seed, t]))
        return generators.gen_random_cp(generators.RandomSpec(distribution=dist), rng)

    def check(self, op, rows, tally):
        A = self.tensor(op)
        by_method = {row["method"]: row for row in rows}
        solver_rows = [m for m in by_method if m.startswith("ours_")]
        problems = []
        if len(solver_rows) != 4 or "power_iteration" not in by_method:
            problems.append(f"unexpected methods {sorted(by_method)}")
        if rows and rows[0]["dims"] != "x".join(str(n) for n in A.dims):
            return problems + ["trial tensor differs from the regenerated input"]
        oracle = None
        if "oracle" in by_method:
            oracle = _parse_indices(by_method["oracle"]["indices"])
            values = _parse_values(by_method["oracle"]["values"])
            exact = cp.elements_at(A, oracle)
            if np.any(np.abs(values - exact) > 1e-12 * max(1.0, np.abs(exact).max())):
                problems.append("oracle values differ from cp.elements_at")
        elif rows and rows[0]["excluded"] != "true":
            problems.append("oracle row missing")
        for method in solver_rows:
            idx = _parse_indices(by_method[method]["indices"])
            problems += [f"{method}: {p}" for p in answer_problems(
                A, idx, _parse_values(by_method[method]["values"]), 1)]
            if oracle is not None:
                tally["hits"] = tally.get("hits", 0) + harness.is_topk_hit(
                    A, idx, oracle, OrderingKey.MAX)
                tally["checked"] = tally.get("checked", 0) + 1
        if "power_iteration" in by_method:
            row = by_method["power_iteration"]
            loc = _parse_indices(row["indices"])
            value = _parse_values(row["values"])[0]
            if np.any(loc < 0) or np.any(loc >= np.array(A.dims)):
                problems.append("power_iteration: location out of range")
            elif value != cp.element(A, tuple(loc[0])):
                problems.append("power_iteration: value differs from cp.element")
            elif oracle is not None:
                tally["power_hits"] = tally.get("power_hits", 0) + harness.is_topk_hit(
                    A, loc, oracle, OrderingKey.MAX)
                tally["power_checked"] = tally.get("power_checked", 0) + 1
        return problems

    def digest(self, rows):
        return "\n".join(f"{r['method']} {r['indices']} {r['values']}"
                         for r in rows).encode()

    def quality(self, tally):
        return {
            "hit_rate": (_ratio(tally.get("hits", 0), tally.get("checked", 0)), "1"),
            "hit_rate.checked": (tally.get("checked", 0), "count"),
            "power_hit_rate": (_ratio(tally.get("power_hits", 0),
                                      tally.get("power_checked", 0)), "1"),
            "power_hit_rate.checked": (tally.get("power_checked", 0), "count"),
        }


def _parse_indices(text):
    """0-based index rows from the harness's 1-based ``i,j;k,l`` form."""
    rows = [[int(v) - 1 for v in part.split(",")] for part in text.split(";")]
    return np.array(rows, dtype=np.int64)


def _parse_values(text):
    return np.array([float(v) for v in text.split(";")])


def dense_state(state):
    """Dense amplitudes, mode 0 most significant, by Khatri-Rao products.

    Built from the factors directly rather than through ``cp.materialize``,
    so the check does not lean on the package's own dense path, and its
    scratch stays at two (cells, rank) halves instead of the full tensor.
    """
    def khatri_rao(factors):
        acc = factors[0]
        for f in factors[1:]:
            acc = (acc[:, None, :] * f[None, :, :]).reshape(-1, acc.shape[1])
        return acc

    half = state.order // 2
    return (khatri_rao(state.factors[:half]) @ khatri_rao(state.factors[half:]).T).ravel()


class Qft16(Workload):
    """Exact d=16 QFT build, CPT write and read-back, then top-5 by magnitude.

    This is the CLI's ``qft --dump-state`` followed by ``topk --input``.  The
    ``cp`` algebra and ``cpt_io`` do most of their work here, and the solver
    runs on a complex rank-4096 tensor with 256-cell blocks, where the
    contraction dominates rather than the selection loop.
    """

    name = "qft16"
    nominal_op_s = 3.6
    qubits = 16
    amp_tol = 1e-10

    def __init__(self, workdir):
        super().__init__(workdir)
        self.path = os.path.join(workdir, "qft16.cpt")
        self.layout = qft.square_layout(self.qubits)
        self.cfg = SolverConfig(k=5, extra=5, block_size=2, key=OrderingKey.MAX_ABS)

    def make_ops(self, seed, n_ops):
        return [qft.random_product_state(self.layout, np.random.default_rng([seed, i]))
                for i in range(n_ops)]

    def run(self, psi0):
        state = qft.run_qft(psi0, self.layout)
        cpt_io.write_cpt(state, self.path)
        back = cpt_io.read_cpt(self.path)
        return state, back, solver.solve(back, self.cfg)

    def check(self, psi0, out, tally):
        state, back, res = out
        problems = []
        if (back.dims != state.dims or back.dtype != state.dtype
                or any(a.tobytes() != b.tobytes()
                       for a, b in zip(back.factors, state.factors))):
            problems.append("CPT round trip is not bit-exact")
        answer = answer_problems(back, res.indices, res.values, self.cfg.k)
        problems += answer
        psi = qft.qft_reference(dense_state(psi0))
        err = float(np.max(np.abs(dense_state(state) - psi)))
        tally["max_amp_err"] = max(tally.get("max_amp_err", 0.0), err)
        if not err <= self.amp_tol:
            problems.append(f"max_amp_err {err:.3g} exceeds {self.amp_tol:g}")
        top = np.lexsort((np.arange(psi.shape[0]), -np.abs(psi)))[:self.cfg.k]
        oracle = np.column_stack(np.unravel_index(top, state.dims)).astype(np.int64)
        # The solver is a heuristic: a valid answer that misses the true top-5
        # lowers hit_rate, as the CLI's qft command counts it, and is not a
        # failure.  Seed 31, op 0 returns the 6th amplitude for the 5th.
        hit = not answer and harness.is_topk_hit(back, res.indices, oracle, self.cfg.key)
        tally["hits"] = tally.get("hits", 0) + hit
        tally["checked"] = tally.get("checked", 0) + 1
        return problems

    def digest(self, out):
        res = out[2]
        return res.indices.tobytes() + res.values.tobytes()

    def quality(self, tally):
        return {
            "hit_rate": (_ratio(tally.get("hits", 0), tally.get("checked", 0)), "1"),
            "hit_rate.checked": (tally.get("checked", 0), "count"),
            "max_amp_err": (tally.get("max_amp_err", float("nan")), "1"),
        }


WORKLOADS = {w.name: w for w in (SolveLarge, BenchK1, Qft16)}
