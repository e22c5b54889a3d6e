"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of the ``tensor_topk`` modules at the
attribute their callers look up, from outside the package: ``solver`` calls
``kernels.*`` and its own globals, ``harness`` and ``qft`` bind ``solve`` by
name, ``baselines`` binds ``recompress`` and ``rank_one_argmax`` by name, and
``CpTensor.__init__`` is patched on the class.  Each call records one span
(name, start, end, parent span, op id) in memory.  A few wrappers also add
exact counts (rows, cells, flops, bytes, ...) read from the call's arguments
or result.  ``installed()`` puts the wrappers in place and always restores
the original attributes on exit.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import time
from array import array

# (module, attribute looked up by the caller, span name, count hook)
WRAPS = (
    ("kernels", "masked_argmax", "kernels.masked_argmax", None),
    ("kernels", "block_expand", "kernels.block_expand", "_on_block_expand"),
    ("kernels", "eval_elements", "kernels.eval_elements", "_on_eval_elements"),
    ("solver", "compute_alpha", "solver.compute_alpha", "_on_compute_alpha"),
    ("solver", "init_candidates", "solver.init_candidates", None),
    # every caller of solve: the benchmark itself, harness and qft
    ("solver", "solve", "solver.solve", "_on_solve"),
    ("harness", "solve", "solver.solve", "_on_solve"),
    ("qft", "solve", "solver.solve", "_on_solve"),
    ("baselines", "recompress", "recompress.recompress", None),
    ("qft", "recompress", "recompress.recompress", None),
    ("baselines", "rank_one_argmax", "recompress.rank_one_argmax", None),
    ("harness", "power_iteration_max", "baselines.power_iteration_max", None),
    ("harness", "oracle_topk", "baselines.oracle_topk", None),
    ("harness", "bench_trial", "harness.bench_trial", None),
    ("cp", "materialize", "cp.materialize", None),
    ("cp", "hadamard", "cp.hadamard", "_on_hadamard"),
    ("cp", "inner", "cp.inner", None),
    ("cp", "add", "cp.add", None),
    ("cp", "drop_zero_columns", "cp.drop_zero_columns", None),
    ("cp", "ttm", "cp.ttm", None),
    ("cp", "CpTensor.__init__", "cp.CpTensor", "_on_cp_init"),
    ("qft", "apply_gate", "qft.apply_gate", "_on_apply_gate"),
    ("qft", "run_qft", "qft.run_qft", "_on_run_qft"),
    ("cpt_io", "write_cpt", "cpt_io.write_cpt", "_on_write_cpt"),
    ("cpt_io", "read_cpt", "cpt_io.read_cpt", "_on_read_cpt"),
)

# Counts filled by the hooks; registered up front so that a layer the
# workload never reaches reports 0 rather than a missing name.
HOOK_COUNTS = (
    "kernels.block_expand.distinct_windows",
    "kernels.block_expand.cells",
    "kernels.eval_elements.rows",
    "solver.contraction.flops",
    "solver.solve.sweeps",
    "solver.solve.exhausted",
    "solver.solve.pool_size",
    "baselines.power_iteration_max.iterations",
    "cp.CpTensor.constructs",
    "cp.CpTensor.bytes_copied",
    "qft.apply_gate.rank_max",
    "qft.run_qft.final_rank",
    "cpt_io.write_cpt.bytes",
    "cpt_io.read_cpt.bytes",
)

OP_SPAN = "op"

KNOWN_STATS = frozenset(HOOK_COUNTS) | {
    f"{name}.{stat}" for _, _, name, _ in WRAPS
    for stat in ("calls", "self_s", "total_s")
}


def targets():
    """(owner object, attribute, span name, hook name) of every wrapper."""
    for module, path, name, hook in WRAPS:
        owner = importlib.import_module(f"tensor_topk.{module}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        yield owner, attr, name, hook


class Tracer:
    """Records spans and counts while its wrappers are installed."""

    def __init__(self):
        # one entry per span: name, start, end, parent index, op id; kept in
        # flat arrays so recording a call allocates no tracked objects
        self.names = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.ops = array("q")
        self.counts = dict.fromkeys(HOOK_COUNTS, 0)
        self.op = -1
        self._stack = []
        self._patches = []
        self._windows = set()
        self._alpha_m = None

    # -- recording -------------------------------------------------------

    def _open(self, name):
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.ends.append(0.0)
        self._stack.append(sid)
        self.starts.append(time.perf_counter())
        return sid

    def _close(self, sid):
        self.ends[sid] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op_span(self, op_id):
        """Root span of one benchmark op; calls inside it carry ``op_id``."""
        self.op = op_id
        sid = self._open(OP_SPAN)
        try:
            yield
        finally:
            self._close(sid)
            self.op = -1

    def _parent_name(self):
        return self.names[self._stack[-1]] if self._stack else None

    def _inside(self, name):
        return any(self.names[s] == name for s in self._stack)

    def _wrap(self, owner, attr, name, hook=None):
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            sid = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(sid)
            if hook is not None:
                hook(args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    # -- hooks: exact counts at the wrapped boundary ---------------------

    def _add(self, name, value):
        self.counts[name] += int(value)

    def _peak(self, name, value):
        self.counts[name] = max(self.counts[name], int(value))

    def _on_block_expand(self, args, out):
        # distinct (op, window) pairs: the expansions left if each op's
        # windows were computed once
        modes, dims = args[2], args[3]
        self._windows.add((self.op, tuple(int(v) for v in modes),
                           tuple(int(v) for v in dims)))
        self.counts["kernels.block_expand.distinct_windows"] = len(self._windows)
        self._add("kernels.block_expand.cells", out.shape[0])
        # the solver contracts this expansion with the alpha of the
        # compute_alpha call just before it: (vol x R) @ (R x m)
        if self._parent_name() == "solver.solve" and self._alpha_m is not None:
            self._add("solver.contraction.flops",
                      2 * out.shape[0] * out.shape[1] * self._alpha_m)
            self._alpha_m = None

    def _on_eval_elements(self, args, out):
        self._add("kernels.eval_elements.rows", out.shape[0])

    def _on_compute_alpha(self, args, out):
        self._alpha_m = args[1].shape[0]

    def _on_solve(self, args, res):
        self._add("solver.solve.sweeps", res.sweeps_used)
        self._add("solver.solve.exhausted", res.diagnostics["exhausted"])
        self._add("solver.solve.pool_size", res.diagnostics["pool_size"])

    def _on_hadamard(self, args, out):
        if self._inside("baselines.power_iteration_max"):
            self._add("baselines.power_iteration_max.iterations", 1)

    def _on_cp_init(self, args, out):
        self._add("cp.CpTensor.constructs", 1)
        self._add("cp.CpTensor.bytes_copied", sum(f.nbytes for f in args[0].factors))

    def _on_apply_gate(self, args, state):
        self._peak("qft.apply_gate.rank_max", state.rank)

    def _on_run_qft(self, args, state):
        self._peak("qft.run_qft.final_rank", state.rank)

    def _on_write_cpt(self, args, out):
        self._add("cpt_io.write_cpt.bytes", os.path.getsize(args[1]))

    def _on_read_cpt(self, args, out):
        self._add("cpt_io.read_cpt.bytes", os.path.getsize(args[0]))

    # -- installation ------------------------------------------------------

    def _install(self):
        for owner, attr, name, hook in targets():
            self._wrap(owner, attr, name, hook and getattr(self, hook))

    def _uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        """Wrap the package's functions for the duration of the block."""
        try:
            self._install()
            yield self
        finally:
            self._uninstall()

    # -- results -------------------------------------------------------------

    def stats(self):
        """Per-layer numbers: calls, self_s and total_s per span name, plus
        the hook counts.

        Self time is a span's duration minus the durations of its direct
        children; calls run on one thread, so children never overlap.
        """
        child = [0.0] * len(self.names)
        for start, end, parent in zip(self.starts, self.ends, self.parents):
            if parent >= 0:
                child[parent] += end - start
        out = dict(self.counts)
        for name, start, end, busy in zip(self.names, self.starts, self.ends, child):
            if name == OP_SPAN:
                continue
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.total_s"] = out.get(f"{name}.total_s", 0.0) + (end - start)
            out[f"{name}.self_s"] = (out.get(f"{name}.self_s", 0.0)
                                     + (end - start) - busy)
        return out

    def write(self, path):
        """Write the spans as JSON lines: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in zip(self.names, self.starts, self.ends, self.parents, self.ops):
                fh.write(json.dumps(span) + "\n")
