"""The public names of ``curladapt`` (submodules excluded) and the public
attributes of a ``Mesh``, frozen: any addition or removal shows up as a
diff of these lists."""

import types

import curladapt
from curladapt.mesh import build_structured_unit_square

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
