"""The runtime imports only the standard library and numpy."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "hessvar"


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
