"""The public names of ``curladapt`` (submodules excluded), frozen: any
addition or removal shows up as a diff of this list."""

import types

import curladapt

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
