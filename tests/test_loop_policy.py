"""Adaptive refinement solves and estimates at one place each:
``amr.adaptive_solve`` holds exactly one call of ``edge_fem.solve`` and
one of ``indicator``, inside the one loop that also resumes CG on a mesh."""

import ast
import inspect

from curladapt import amr


def _called_name(call):
    func = call.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return f"{func.value.id}.{func.attr}"
    return func.id if isinstance(func, ast.Name) else None


def test_adaptive_solve_solves_and_estimates_at_one_place():
    tree = ast.parse(inspect.getsource(amr.adaptive_solve))
    names = [_called_name(node) for node in ast.walk(tree) if isinstance(node, ast.Call)]
    assert names.count("edge_fem.solve") == 1
    assert names.count("indicator") == 1
