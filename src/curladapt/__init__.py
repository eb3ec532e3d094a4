"""2D H(curl) edge-element solver with coefficient-robust a posteriori
error estimation and adaptive mesh refinement."""

from .amr import AdaptiveRecord, adaptive_solve, doerfler_mark
from .edge_fem import (DiscreteSolution, DofMap, assemble_system, curl_uh,
                       element_matrices, energy_error, eval_uh, solve,
                       whitney_eval)
from .estimators import (EstimatorKind, IndicatorBreakdown, Oscillations,
                         WeightedSizes, edge_jumps, element_residuals,
                         indicator, oscillations, weighted_sizes)
from .linalg import CgNonConvergence, CgResult, cg_solve
from .mesh import (OMEGA1, OMEGA2, Mesh, bisect_refine,
                   build_structured_unit_square, edge_geometry, load_mesh,
                   red_refine, save_mesh, tag_regions)
from .problems import (CoefficientField, ManufacturedProblem,
                       check_interface_alignment, interface_problem,
                       paper_problem, verify_consistency)
from .quadrature import QuadratureRule, triangle_rule
from .report import (ConvergenceTable, RunConfig, SweepRow, TableRow, emit,
                     parse_table_csv, run_robustness_sweep, run_table)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
