"""The runtime imports only the standard library and numpy, and no module imports a name it never uses."""

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
