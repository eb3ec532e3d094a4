"""Adaptive refinement loop: solve, estimate, mark, bisect."""

from dataclasses import dataclass

import numpy as np

from . import edge_fem
from .estimators import EstimatorKind, indicator
from .mesh import bisect_refine, build_structured_unit_square, tag_regions
from .problems import check_interface_alignment

# Fraction of eta the A-norm algebraic error of each adaptive solve may
# reach under the energy stop.
ALGEBRAIC_FRACTION = 1e-3


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
    if not (np.isfinite(indicators) & (indicators >= 0)).all():
        raise ValueError("indicators must be nonnegative and finite")
    total = indicators.sum()
    if total == 0.0:
        return set()
    order = np.argsort(-indicators, kind="stable")  # descending, ties by id
    csum = np.cumsum(indicators[order])
    cutoff = int(np.searchsorted(csum, theta * total, side="left"))
    marked = order[:cutoff + 1]
    marked = marked[indicators[marked] > 0]
    return set(marked.tolist())


def adaptive_solve(problem, kind=EstimatorKind.ROBUST, theta=0.5, max_dofs=2000):
    """Run the adaptive loop from the 4x4 structured mesh until the free
    dof count reaches ``max_dofs``.

    Every iteration solves on the current mesh, records the global
    estimate (and the energy error when the problem carries an exact
    solution), then Doerfler-marks and bisects.  Returns the list of
    per-iteration records; marked counts are zero on the final record.
    Every mesh after the first starts CG from the previous mesh's field
    prolongated onto it (:func:`edge_fem.prolongate`).

    CG stops on its algebraic error, which only has to stay well below
    the discretisation error that eta estimates: the A-norm error of the
    field a record reports should be at most ``ALGEBRAIC_FRACTION * eta``.
    Each solve stops CG once the delayed energy estimate
    (:func:`linalg.cg_solve`) reaches ``ALGEBRAIC_FRACTION * basis / 4``,
    the basis being the last estimate before it; the first mesh has none
    and stops at ``linalg.ENERGY_RELATIVE_TOL`` relative to the energy of
    its iterate.  While eta is at least half its basis, the target is at
    most ``ALGEBRAIC_FRACTION * eta / 2``; while it is not, eta becomes
    the basis and CG resumes from the iterate, as often as that takes.  The
    delayed estimate undershoots the true error, more so from a warm
    start: with ``/ 2`` the worst measured ratio of algebraic error to eta
    on interface(1e4, 1, 1) up to 2.2e4 dofs reached 9.7e-4, just under
    the fraction 1e-3, and ``/ 4`` brings it to 5.1e-4.
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError("theta must lie in (0, 1]")
    mesh = build_structured_unit_square(4)
    check_interface_alignment(mesh, problem)
    mesh = tag_regions(mesh, problem.classifier)
    if not mesh.num_interior_edges < max_dofs < np.inf:
        raise ValueError("max_dofs must be finite and exceed the initial dof count")

    records = []
    basis = x0 = sample = None
    while True:
        # the rows of the triangles bisection kept are carried from the last sample
        sample = edge_fem._mesh_sample(problem, mesh, sample)
        while True:
            target = None if basis is None else ALGEBRAIC_FRACTION * basis / 4
            solution = edge_fem.solve(mesh, problem.coefficients, sample,
                                      rel_tol=None, energy_target=target, x0=x0)
            x0 = None  # not needed past the solve; freed before the estimator's peak memory
            breakdown = indicator(solution, problem, kind, sample)
            eta = breakdown.global_estimate
            if basis is None or not eta < basis / 2:  # a nan eta stops too
                break
            basis, x0 = eta, solution.coefficients
        error = (edge_fem.energy_error(solution, problem.coefficients, sample)
                 if problem.u is not None else float("nan"))
        n_dofs = solution.dofmap.n_free
        marked = doerfler_mark(breakdown.total, theta) if n_dofs < max_dofs else set()
        records.append(AdaptiveRecord(len(records), mesh.num_triangles, n_dofs,
                                      eta, error, len(marked)))
        if not marked:
            return records
        breakdown = None  # freed before bisection, which the sample outlives
        mesh = bisect_refine(mesh, marked)
        x0 = edge_fem.prolongate(solution, mesh)
        solution = marked = None  # freed before the next mesh is sampled and assembled
        basis = eta
