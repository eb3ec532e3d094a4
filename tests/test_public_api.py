"""The public names of ``curladapt`` (submodules excluded), the
signatures of the readers of the problem data and the public attributes
of a ``Mesh``, frozen: any addition, removal or change of input form shows
up as a diff of these lists.  Package code outside the public names must
have a caller in the package."""

import ast
import inspect
import types
from pathlib import Path

import curladapt
from curladapt.mesh import (Mesh, bisect_refine, build_structured_unit_square, red_refine,
                            tag_regions)

PUBLIC_NAMES = [
    "AdaptiveRecord", "CgNonConvergence", "CgResult", "CoefficientField",
    "ConvergenceTable", "DiscreteSolution", "DofMap", "EstimatorKind",
    "IndicatorBreakdown", "ManufacturedProblem", "Mesh", "OMEGA1", "OMEGA2",
    "Oscillations", "QuadratureRule", "RunConfig", "SweepRow", "TableRow",
    "WeightedSizes", "adaptive_solve", "assemble_system", "bisect_refine",
    "build_structured_unit_square", "cg_solve", "check_interface_alignment",
    "curl_uh", "doerfler_mark", "edge_geometry", "edge_jumps",
    "element_matrices", "element_residuals", "emit", "energy_error", "eval_uh",
    "indicator", "interface_problem", "load_mesh",
    "oscillations", "paper_problem", "parse_table_csv", "red_refine",
    "run_robustness_sweep", "run_table", "save_mesh", "solve", "tag_regions",
    "triangle_rule", "verify_consistency", "weighted_sizes", "whitney_eval",
]


def test_public_names_are_frozen():
    names = sorted(name for name in curladapt.__all__
                   if not isinstance(getattr(curladapt, name), types.ModuleType))
    assert names == PUBLIC_NAMES


# the readers of the problem data: each takes it as one sample of the mesh
READER_SIGNATURES = {
    "assemble_system": "(mesh, coefficients, sample)",
    "solve": "(mesh, coefficients, sample, rel_tol=1e-12, energy_target=None, x0=None, "
             "hierarchy=None)",
    "energy_error": "(solution, coefficients, sample)",
    "indicator": "(solution, problem, kind=<EstimatorKind.ROBUST: 'robust'>, sample=None)",
    "oscillations": "(solution, problem)",
    "element_residuals": "(solution, problem, tri_id)",
    "edge_jumps": "(solution, problem, edge_id)",
}


def test_reader_signatures_are_frozen():
    assert {name: str(inspect.signature(getattr(curladapt, name)))
            for name in READER_SIGNATURES} == READER_SIGNATURES


MESH_ATTRIBUTES = [
    "areas", "barycentric_gradients", "centroids", "diameters", "edge_lengths",
    "edge_normals", "edge_tri_local", "edge_tris", "edges", "euler_characteristic",
    "is_boundary_edge", "num_edges", "num_interior_edges", "num_triangles",
    "num_vertices", "parent_ids", "refinement_edges", "regions", "tri_edge_signs",
    "tri_edges", "triangles", "vertices",
]


def test_mesh_attributes_are_frozen():
    mesh = build_structured_unit_square(1)
    assert sorted(name for name in dir(mesh) if not name.startswith("_")) == MESH_ATTRIBUTES


# the stored dtype of each array attribute: ids and tags are int32, signs,
# local slots and refinement edges int8 (``curladapt.mesh``)
MESH_DTYPES = {
    "areas": "float64", "edge_lengths": "float64", "edge_normals": "float64",
    "edge_tri_local": "int8", "edge_tris": "int32", "edges": "int32",
    "is_boundary_edge": "bool", "parent_ids": "int32", "refinement_edges": "int8",
    "regions": "int32", "tri_edge_signs": "int8", "tri_edges": "int32",
    "triangles": "int32", "vertices": "float64",
}


def test_mesh_array_dtypes_are_frozen():
    square = build_structured_unit_square(2)
    for mesh in (square, red_refine(square), bisect_refine(square, [0, 3]),
                 tag_regions(square, lambda x: (x[:, 0] > 0.5) + 1),
                 Mesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]], regions=[2], parent_ids=[0])):
        assert {name: str(getattr(mesh, name).dtype) for name in MESH_DTYPES} == MESH_DTYPES


def _referenced_names(node):
    """Names a syntax tree reads: plain names, attributes and imports."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def test_every_private_definition_has_a_caller_in_the_package():
    # a top-level function or class that is not public must be used by
    # other package code; one that only tests call belongs in the tests
    statements = [node for path in sorted(Path(curladapt.__file__).parent.glob("*.py"))
                  for node in ast.parse(path.read_text(), str(path)).body]
    names = [_referenced_names(node) for node in statements]
    uncalled = [node.name for i, node in enumerate(statements)
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name not in curladapt.__all__
                and not any(node.name in other for j, other in enumerate(names) if j != i)]
    assert uncalled == []
