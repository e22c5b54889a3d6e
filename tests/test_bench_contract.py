"""The names the benchmark in perfbench/ reads from the package still exist.

perfbench is kept unchanged between benchmark changes, so deleting a package
name it wraps or calls would only show up when the traced run breaks.  These
checks read perfbench's own files and fail on such a deletion instead.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from tensor_topk import baselines, generators, harness, kernels

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_resolves():
    spans = _load_spans()
    targets = list(spans.targets())
    assert len(targets) == len(spans.WRAPS)
    for owner, attr, name, hook in targets:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner!r}.{attr} is gone"
        assert hook is None or callable(getattr(spans.Tracer, hook))


def _package_reads(path):
    """(module, name) pairs a perfbench file reads from tensor_topk modules."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases, reads = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "tensor_topk":
            for a in node.names:
                aliases[a.asname or a.name] = a.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
                "tensor_topk."):
            reads |= {(node.module.split(".", 1)[1], a.name) for a in node.names}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            reads.add((aliases[node.value.id], node.attr))
    return reads


@pytest.mark.parametrize("filename", ["workloads.py", "run.py"])
def test_names_perfbench_reads_exist(filename):
    reads = _package_reads(PERFBENCH / filename)
    assert reads
    for module, name in sorted(reads):
        owner = importlib.import_module(f"tensor_topk.{module}")
        assert hasattr(owner, name), f"perfbench/{filename} reads {module}.{name}"


def test_named_contract():
    assert kernels.NUMBA_ENABLED is False
    assert baselines.ORACLE_CAP_DEFAULT == 1 << 22
    for dist in generators.DISTRIBUTIONS:
        assert generators.RandomSpec(distribution=dist).distribution == dist
    # BenchK1 calls bench_trial with eight positional arguments
    params = list(inspect.signature(harness.bench_trial).parameters.values())
    assert [p.name for p in params] == ["master_seed", "trial", "dist", "k", "key",
                                        "oracle_cap", "restarts", "max_sweeps"]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD and p.default is p.empty
               for p in params)
