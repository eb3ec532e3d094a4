"""Every per-element sum goes through ``DofMap.scatter`` or a bincount:
the package holds no ``np.add.at`` call."""

import ast
from pathlib import Path

import curladapt


def _is_add_at(node):
    func = node.func
    return (isinstance(func, ast.Attribute) and func.attr == "at"
            and isinstance(func.value, ast.Attribute) and func.value.attr == "add"
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id in ("np", "numpy"))


def test_no_add_at_in_package():
    sources = sorted(Path(curladapt.__file__).parent.glob("*.py"))
    assert sources
    found = [f"{path.name}:{node.lineno}"
             for path in sources
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and _is_add_at(node)]
    assert found == []
