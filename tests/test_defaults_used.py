"""Every defaulted parameter in the package is passed by some package call.

A parameter whose default no call inside ``src/`` ever overrides is a
setting that no caller sets; it belongs in a module constant or nowhere.
Calls are matched to definitions by function name only (``f(...)`` and
``obj.f(...)`` alike), so the check is coarse but needs no type analysis.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tensor_topk"

# (module, function, parameter): defaults that only callers outside the
# package set
EXEMPT = {
    ("cli", "main", "argv"),  # the console script passes none; tests pass argv
}


def _defaulted(func, is_method):
    """(name, positional index or None) of each parameter with a default."""
    args = func.args
    positional = args.posonlyargs + args.args
    out = [(a.arg, i - is_method)
           for i, a in enumerate(positional)
           if i >= len(positional) - len(args.defaults)]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None]
    return out


def _definitions(tree):
    """Module functions, and methods (whose first parameter the call binds)."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node, False
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item, True


def _call_name(call):
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _passed(calls, name, index):
    """Whether some call sets parameter ``name`` (at ``index`` if positional)."""
    for call in calls:
        if any(kw.arg is None or kw.arg == name for kw in call.keywords):
            return True
        if index is None:
            continue
        if any(isinstance(a, ast.Starred) for a in call.args):
            return True
        if len(call.args) > index:
            return True
    return False


def test_every_default_is_set_by_a_package_call():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(_call_name(node), []).append(node)
    unset = []
    for module, tree in trees.items():
        for func, is_method in _definitions(tree):
            for name, index in _defaulted(func, is_method):
                if (module, func.name, name) in EXEMPT:
                    continue
                if not _passed(calls.get(func.name, []), name, index):
                    unset.append(f"{module}.{func.name}({name})")
    assert unset == []
