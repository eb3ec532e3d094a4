"""The package reads the problem at one point set per mesh: it builds one
triangle rule, ``edge_fem._ERROR_RULE``, and calls ``triangle_rule``
nowhere else."""

import ast
from pathlib import Path

import curladapt


def _is_triangle_rule(node):
    func = node.func
    return ((isinstance(func, ast.Name) and func.id == "triangle_rule")
            or (isinstance(func, ast.Attribute) and func.attr == "triangle_rule"))


def test_one_triangle_rule_in_package():
    sources = sorted(Path(curladapt.__file__).parent.glob("*.py"))
    assert sources
    trees = {path.name: ast.parse(path.read_text()) for path in sources}
    calls = [name for name, tree in trees.items() for node in ast.walk(tree)
             if isinstance(node, ast.Call) and _is_triangle_rule(node)]
    assert calls == ["edge_fem.py"]
    assigned = [target.id for node in ast.walk(trees["edge_fem.py"])
                if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                and _is_triangle_rule(node.value) for target in node.targets]
    assert assigned == ["_ERROR_RULE"]
