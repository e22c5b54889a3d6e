"""A fixed corpus of small random solves whose outputs are pinned by one digest.

The corpus covers orders 2-6, mode sizes 1-8, ranks 1-11, real and complex
factors (a third complex), half-integer factors for ties (a quarter), block
sizes 1, 2, 3 and auto, every key the field allows, and 1-5 restarts.  The
digest covers each solve's indices, values, ``sweeps_used``, ``converged``,
``restart_sweeps`` and ``objective_trace``, and leaves out the work counters,
which a change that saves work moves.  A change meant to keep the solver's
bits keeps the digest; one that changes them on purpose updates it and says
so.  The bits rest on numpy's and the BLAS's rounding, so the failure message
names both.
"""

import hashlib
import json
import math

import numpy as np

from tensor_topk import cp, solver
from tensor_topk.solver import OrderingKey, SolverConfig

SOLVES = 400
REAL_KEYS = tuple(OrderingKey)
COMPLEX_KEYS = (OrderingKey.MAX_ABS, OrderingKey.MAX_REAL, OrderingKey.MAX_IMAG)
MAX_CELLS = 4096  # largest tensor drawn, so an auto block stays small
CORPUS_DIGEST = "fe9df4c6b8e39487166db8d094f43424f1e43836c7f531e90cbcc10025eeae71"


def corpus_case(i):
    """Solve i of the corpus: a CP tensor and a `SolverConfig`, from seed i."""
    rng = np.random.default_rng([2026, i])
    order = int(rng.integers(2, 7))
    while True:
        dims = tuple(int(n) for n in rng.integers(1, 9, size=order))
        if math.prod(dims) <= MAX_CELLS:
            break
    rank = int(rng.integers(1, 12))
    complex_ = i % 3 == 2
    halves = i % 4 == 3

    def draw(n):
        if halves:
            return rng.integers(-4, 5, size=(n, rank)) / 2
        return rng.uniform(-1, 1, size=(n, rank))

    factors = [draw(n) + 1j * draw(n) if complex_ else draw(n) for n in dims]
    keys = COMPLEX_KEYS if complex_ else REAL_KEYS
    block = (1, 2, 3, "auto")[int(rng.integers(0, 4))]
    cfg = SolverConfig(
        k=int(min(rng.integers(1, 6), math.prod(dims))),
        extra=int(rng.integers(0, 11)),
        block_size=block,
        key=keys[int(rng.integers(0, len(keys)))],
        max_sweeps=(1, 2, 3, 50)[int(rng.integers(0, 4))],
        restarts=int(rng.integers(1, 6)),
        seed=int(rng.integers(0, 1000)),
    )
    return cp.CpTensor(factors), cfg


def _record(res):
    d = res.diagnostics
    scalars = [res.sweeps_used, res.converged, d["restart_sweeps"], d["objective_trace"]]
    return (res.indices.astype(np.int64).tobytes() + res.values.tobytes()
            + json.dumps(scalars).encode())


def corpus_digest(n=SOLVES):
    h = hashlib.sha256()
    for i in range(n):
        A, cfg = corpus_case(i)
        h.update(_record(solver.solve(A, cfg)))
    return h.hexdigest()


def _blas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except Exception:  # older numpy has no dict mode
        return "unknown BLAS"


def test_corpus_reproduces_pinned_digest():
    got = corpus_digest()
    assert got == CORPUS_DIGEST, (
        f"corpus digest {got} differs from the pinned {CORPUS_DIGEST}; it was "
        f"pinned under numpy 2.4.6 and scipy-openblas 0.3.31.188.0, this run "
        f"has numpy {np.__version__} and {_blas()}"
    )
