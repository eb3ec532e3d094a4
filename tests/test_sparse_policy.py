"""Every sparse matrix of the package comes from one builder,
``edge_fem._csr``: the package makes exactly one ``csr_matrix`` call, in
that function."""

import ast
from pathlib import Path

import curladapt


def _calls_csr_matrix(node):
    func = node.func
    return ((isinstance(func, ast.Attribute) and func.attr == "csr_matrix")
            or (isinstance(func, ast.Name) and func.id == "csr_matrix"))


def test_one_csr_matrix_call_in_the_one_builder():
    sources = sorted(Path(curladapt.__file__).parent.glob("*.py"))
    assert sources
    found = []
    for path in sources:
        tree = ast.parse(path.read_text())
        # the innermost function around each call, or None at module level
        owner = {}
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(function):
                    owner[node] = function.name
        found += [f"{path.name}:{owner.get(node)}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and _calls_csr_matrix(node)]
    assert found == ["edge_fem.py:_csr"]
