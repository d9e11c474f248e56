"""The runtime imports only the standard library and numpy, no module imports a name it never uses, and every optional parameter has a caller that passes it."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "hessvar"
TESTS = Path(__file__).resolve().parent


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_stdlib_numpy_or_hessvar(path):
    # every import statement, the ones inside functions included
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:                               # relative imports stay in hessvar
            continue
        for name in names:
            root = name.split(".")[0]
            assert root in sys.stdlib_module_names or root == "numpy", (
                f"{path.name}:{node.lineno} imports {name}")


# the package __init__ imports names only to re-export them
@pytest.mark.parametrize(
    "path",
    sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py") + sorted(TESTS.glob("*.py")),
    ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:        # ``import a.b`` binds ``a``
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in bound.items() if name not in used)
    assert not unused, f"{path.name} imports unused names: {unused}"


def _functions(tree):
    """Each function of ``tree`` with the name a call uses for it (a class's
    ``__init__`` is called by the class name) and the count of leading
    positions that a call does not write (``self`` of a method)."""
    for owner in ast.walk(tree):
        for node in ast.iter_child_nodes(owner):
            if isinstance(node, ast.FunctionDef):
                method = isinstance(owner, ast.ClassDef) and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
                yield (owner.name if method and node.name == "__init__" else node.name), node, int(method)


def _optional(node, skip):
    """{parameter: position, None if keyword-only} of the defaulted parameters."""
    a = node.args
    pos = a.posonlyargs + a.args
    out = {arg.arg: i - skip for i, arg in enumerate(pos) if i >= len(pos) - len(a.defaults)}
    out.update((arg.arg, None) for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None)
    return out


def _calls(node, caller=None):
    """Each call under ``node`` with its innermost enclosing function."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            yield child, caller
        yield from _calls(child, child if isinstance(child, ast.FunctionDef) else caller)


def _passed(call, arg, pos):
    """What ``call`` passes for ``arg`` at ``pos``: the expression, True through
    ``*``/``**``, or None."""
    for kw in call.keywords:
        if kw.arg == arg:
            return kw.value
        if kw.arg is None:
            return True
    for i, value in enumerate(call.args):
        if isinstance(value, ast.Starred):
            return True if pos is not None and i <= pos else None
        if i == pos:
            return value
    return None


def test_every_optional_parameter_is_passed_somewhere():
    """A parameter with a default that no call in src/ or tests/ passes is an
    option that does nothing.  A call that forwards its caller's own optional
    parameter counts once that parameter is itself passed."""
    optional, names, calls = {}, {}, []
    for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for name, node, skip in _functions(tree):
            names[node] = name
            if path.parent == SRC:
                for arg, pos in _optional(node, skip).items():
                    optional[name, arg] = f"{path.name}:{node.lineno} {node.name}", pos
        calls += _calls(tree)
    passed, grown = set(), True
    while grown:                            # until no forwarded value adds one
        grown = False
        for (name, arg), (_, pos) in optional.items():
            for call, caller in calls:
                f = call.func
                if (name, arg) in passed or name != getattr(f, "id", getattr(f, "attr", None)):
                    continue
                value = _passed(call, arg, pos)
                forwards = (caller is not None and isinstance(value, ast.Name)
                            and value.id in _optional(caller, 0))
                if value is not None and (not forwards or (names[caller], value.id) in passed):
                    passed.add((name, arg))
                    grown = True
    unset = sorted(f"{where} {key[1]}" for key, (where, _) in optional.items() if key not in passed)
    assert not unset, f"optional parameters that no call passes: {unset}"
