"""Only ``report`` writes tables and only ``mesh.save_mesh`` writes a mesh:
no other code in the package opens a file for writing."""

import ast
from pathlib import Path

import curladapt

WRITERS = {("mesh.py", "save_mesh"), ("report.py", "_write")}


def _is_write_open(node):
    """A call of the builtin ``open`` whose mode writes, or is not a literal."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "open"):
        return False
    mode = node.args[1] if len(node.args) > 1 else next(
        (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r"))
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))


def _write_opens(node, scope=None):
    """(enclosing function, line) of every writing ``open`` under ``node``."""
    for child in ast.iter_child_nodes(node):
        if _is_write_open(child):
            yield scope, child.lineno
        function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        yield from _write_opens(child, child.name if function else scope)


def test_only_report_and_save_mesh_open_files_for_writing():
    sources = sorted(Path(curladapt.__file__).parent.glob("*.py"))
    assert sources
    found = [(path.name, scope, line)
             for path in sources
             for scope, line in _write_opens(ast.parse(path.read_text()))]
    assert {(name, scope) for name, scope, _ in found} == WRITERS, found
    assert len(found) == len(WRITERS), found


def test_the_policy_sees_every_write_mode():
    calls = ['open(p, "w")', 'open(p, mode="a")', 'open(p, "r+")', 'open(p, "xb")',
             "open(p, mode)"]
    assert all(_is_write_open(ast.parse(c).body[0].value) for c in calls)
    reads = ["open(p)", 'open(p, "rb")', 'open(p, mode="r")', "opened(p, 'w')"]
    assert not any(_is_write_open(ast.parse(c).body[0].value) for c in reads)
