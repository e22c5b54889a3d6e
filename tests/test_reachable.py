"""Every top-level function, class and constant of the package is used by
package code.

A definition that no module of ``src/`` uses is code that only tests or
outside scripts reach; it belongs with them, or in ``EXEMPT`` with a reason.
Names are resolved per module, not by bare name: in each module, a name
counts for the definition it is bound to there (the module's own top-level
definition, or a ``from .mod import name``), and ``mod.name`` counts only
where ``mod`` is bound to a package module (``from . import mod``).  So
``seen.add(...)`` on a set does not reach ``cp.add``.  A definition's use of
its own name (recursion) does not count, and neither does an import alone.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tensor_topk"

# (module, name): definitions that only callers outside the package use
EXEMPT = {
    # read only by perfbench, which goes with the next benchmark change
    ("kernels", "NUMBA_ENABLED"): "perfbench reports it in its environment",
    ("cp", "add"): "perfbench wraps it as a traced layer",
    # the scalar functions the grid tensors are checked against
    ("generators", "griewank"): "test_generators checks gen_griewank against it",
    ("generators", "schwefel"): "test_generators checks gen_schwefel against it",
}


def _defined(stmt):
    """The public or private top-level names a module statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = []
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    names = [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def _bindings(module, tree):
    """Local name -> (module, name) of a definition, or module for ``from . import``."""
    bound = {}
    for stmt in tree.body:
        for name in _defined(stmt):
            bound[name] = (module, name)
        if isinstance(stmt, ast.ImportFrom) and stmt.level == 1:
            for alias in stmt.names:
                local = alias.asname or alias.name
                bound[local] = alias.name if stmt.module is None else (stmt.module, alias.name)
    return bound


def _references(module, tree):
    """The (module, name) definitions that a module's code uses."""
    bound = _bindings(module, tree)
    used = set()
    for stmt in tree.body:
        own = {(module, name) for name in _defined(stmt)}
        for node in ast.walk(stmt):
            target = None
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                target = bound.get(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                base = bound.get(node.value.id)
                if isinstance(base, str):  # a package module
                    target = (base, node.attr)
            if isinstance(target, tuple) and target not in own:
                used.add(target)
    return used


def test_every_definition_is_used_by_package_code():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    used = set()
    for module, tree in trees.items():
        used |= _references(module, tree)
    defined = {(module, name) for module, tree in trees.items()
               for stmt in tree.body for name in _defined(stmt)}
    unused = sorted(f"{m}.{n}" for m, n in defined - used - set(EXEMPT))
    assert unused == []
    # an exempt name that package code uses, or that is gone, leaves the set
    stale = sorted(f"{m}.{n}" for m, n in set(EXEMPT) - (defined - used))
    assert stale == []
