"""Adaptive refinement loop: solve, estimate, mark, bisect."""

from dataclasses import dataclass

import numpy as np

from . import edge_fem
from .estimators import EstimatorKind, indicator
from .mesh import bisect_refine, build_structured_unit_square, tag_regions
from .problems import check_interface_alignment, default_solver_tol


@dataclass(frozen=True)
class AdaptiveRecord:
    iteration: int
    n_elements: int
    n_dofs: int
    eta: float
    error: float  # energy error against the exact solution, nan if unknown
    n_marked: int


def doerfler_mark(indicators, theta):
    """Bulk marking: smallest element set carrying a theta-fraction of the
    total squared indicator.

    Elements are taken greedily by descending indicator, ties broken by
    the smaller element id; zero-indicator elements are never marked.
    Returns a set of element ids (empty when all indicators vanish).
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError("theta must lie in (0, 1]")
    indicators = np.asarray(indicators, dtype=float)
    if (indicators < 0).any():
        raise ValueError("indicators must be nonnegative")
    total = indicators.sum()
    if total == 0.0:
        return set()
    order = np.argsort(-indicators, kind="stable")  # descending, ties by id
    csum = np.cumsum(indicators[order])
    cutoff = int(np.searchsorted(csum, theta * total, side="left"))
    marked = order[:cutoff + 1]
    marked = marked[indicators[marked] > 0]
    return set(int(t) for t in marked)


def adaptive_solve(problem, kind=EstimatorKind.ROBUST, theta=0.5, max_dofs=2000,
                   initial_n=4, solver_tol=None):
    """Run the adaptive loop until the free dof count reaches ``max_dofs``.

    Every iteration solves on the current mesh, records the global
    estimate (and the energy error when the problem carries an exact
    solution), then Doerfler-marks and bisects.  Returns the list of
    per-iteration records; marked counts are zero on the final record.
    """
    if solver_tol is None:
        solver_tol = default_solver_tol(problem)
    mesh = build_structured_unit_square(initial_n)
    if problem.classifier is not None:
        if problem.interface_abscissa is not None:
            check_interface_alignment(mesh, problem.interface_abscissa)
        mesh = tag_regions(mesh, problem.classifier)
    dofmap = edge_fem.DofMap(mesh)
    if max_dofs <= dofmap.n_free:
        raise ValueError("max_dofs must exceed the initial dof count")

    records = []
    iteration = 0
    while True:
        solution = edge_fem.solve(mesh, problem.coefficients, problem.f,
                                  rel_tol=solver_tol)
        breakdown = indicator(solution, problem, kind)
        eta = breakdown.global_estimate
        if problem.u is not None:
            error = edge_fem.energy_error(solution, problem.coefficients,
                                          problem.u, problem.curl_u)
        else:
            error = float("nan")
        n_dofs = solution.dofmap.n_free
        if n_dofs >= max_dofs:
            records.append(AdaptiveRecord(iteration, mesh.num_triangles, n_dofs,
                                          eta, error, 0))
            return records
        marked = doerfler_mark(breakdown.total, theta)
        records.append(AdaptiveRecord(iteration, mesh.num_triangles, n_dofs,
                                      eta, error, len(marked)))
        if not marked:
            return records
        mesh = bisect_refine(mesh, marked)
        iteration += 1


def records_to_csv(records, path):
    """Write adaptive records as CSV: iter, elements, dofs, eta, error, marked."""
    with open(path, "w") as fh:
        fh.write("iter,elements,dofs,eta,error,marked\n")
        for r in records:
            fh.write(f"{r.iteration},{r.n_elements},{r.n_dofs},"
                     f"{float(r.eta)!r},{float(r.error)!r},{r.n_marked}\n")
