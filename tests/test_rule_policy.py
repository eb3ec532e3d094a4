"""The package reads the problem at one point set per mesh: it builds one
triangle rule, ``edge_fem._ERROR_RULE``, and calls ``triangle_rule``
nowhere else; only ``error_points`` and the reduction of the problem on
each element read the rule's points."""

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


def _reads_rule_points(node):
    """``_ERROR_RULE.points``, also as ``edge_fem._ERROR_RULE.points``."""
    if not (isinstance(node, ast.Attribute) and node.attr == "points"):
        return False
    owner = node.value
    return ((isinstance(owner, ast.Name) and owner.id == "_ERROR_RULE")
            or (isinstance(owner, ast.Attribute) and owner.attr == "_ERROR_RULE"))


def test_only_error_points_and_the_reduction_read_the_rule_points():
    # every other reader of the problem takes its per-element reduction,
    # so no second per-point pass over a mesh creeps back in
    readers, aliases = set(), []
    for path in sorted(Path(curladapt.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            name = getattr(top, "name", None)
            for node in ast.walk(top):
                if _reads_rule_points(node):
                    readers.add(f"{path.stem}.{name}")
                # a rule bound to another name would hide its reads
                if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Name)
                        and node.value.id == "_ERROR_RULE"):
                    aliases.append(f"{path.stem}:{node.lineno}")
    assert readers == {"edge_fem.error_points", "edge_fem._reduce_vector"}
    assert aliases == []
