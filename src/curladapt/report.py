"""Convergence studies, robustness sweeps, and the text of every table."""

import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import edge_fem
from .estimators import EstimatorKind, indicator
from .linalg import CgNonConvergence
from .mesh import (_integers, _parse_fields, build_structured_unit_square, red_refine,
                   save_mesh, tag_regions)
from .problems import (check_interface_alignment, default_solver_tol,
                       interface_problem, paper_problem)


class TableRow(NamedTuple):
    elements: int
    error: float
    eta: float
    eta_tilde: float


@dataclass(frozen=True)
class ConvergenceTable:
    """Per-level study results plus effectivity footers (arithmetic mean
    of error/estimate over the levels)."""
    rows: tuple
    eff_eta: float
    eff_eta_tilde: float

    @classmethod
    def from_rows(cls, rows):
        rows = tuple(rows)
        if rows:
            eff_eta = float(np.mean([r.error / r.eta for r in rows]))
            eff_eta_tilde = float(np.mean([r.error / r.eta_tilde for r in rows]))
        else:
            eff_eta = eff_eta_tilde = float("nan")
        return cls(rows=rows, eff_eta=eff_eta, eff_eta_tilde=eff_eta_tilde)


class SweepRow(NamedTuple):
    ratio: float
    kappa: float
    eff_eta: float
    eff_eta_tilde: float


@dataclass(frozen=True)
class RunConfig:
    """Validated settings for a convergence-table run."""
    problem: str = "paper"          # "paper" or "interface"
    eps: float = 0.1
    kappa: float = 10.0
    eps1: float = None              # interface problems only
    eps2: float = None
    split: float = 0.5
    levels: int = 5
    initial_n: int = 4
    solver_tol: float = None        # None: 1e-12 constant eps, 1e-6 two-phase
    out: str = None
    fmt: str = "csv"
    full_precision: bool = False
    dump_indicators: bool = False
    dump_mesh: bool = False

    def validate(self):
        """Refuse bad settings before any work; the coefficients are
        checked by building the problem, which is returned."""
        for name in ("levels", "initial_n"):
            value = getattr(self, name)
            if _integers(value, name).ndim or value < 1:
                raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")
        if self.problem == "interface":
            if self.eps1 is None or self.eps2 is None:
                raise ValueError("interface runs need eps1 and eps2")
        elif self.problem != "paper":
            raise ValueError(f"unknown problem {self.problem!r}")
        if self.fmt not in ("csv", "markdown"):
            raise ValueError(f"unknown output format {self.fmt!r}")
        if self.solver_tol is not None and not 0 < self.solver_tol < np.inf:
            raise ValueError("solver_tol must be positive and finite")
        return self.make_problem()

    def make_problem(self):
        if self.problem == "paper":
            return paper_problem(self.eps, self.kappa)
        return interface_problem(self.eps1, self.eps2, self.kappa, self.split)


def _render(header, rows, fmt="csv"):
    """The one renderer of table text: header and rows of string cells as
    CSV, or as markdown with every column right-aligned."""
    if fmt == "csv":
        lines = [",".join(cells) for cells in (header, *rows)]
    elif fmt == "markdown":
        lines = ["| " + " | ".join(cells) + " |"
                 for cells in (header, ("---:",) * len(header), *rows)]
    else:
        raise ValueError(f"unknown output format {fmt!r}")
    return "\n".join(lines) + "\n"


def _write(path, text):
    """Write ``text`` to ``path`` unless it is None; returns ``text``."""
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def _exact(value):
    return repr(float(value))  # a float cell that reads back to the same float


_THREE = "{:.2e}".format  # a float cell to three significant digits


def emit(table, fmt="csv", path=None, full_precision=False):
    """Render a convergence table and optionally write it to a file."""
    number = _exact if full_precision else _THREE
    rows = [(str(r.elements), *map(number, r[1:])) for r in table.rows]
    rows.append(("eff", "" if fmt == "csv" else "N/A", number(table.eff_eta),
                 number(table.eff_eta_tilde)))
    return _write(path, _render(("elements", "e", "eta", "eta_tilde"), rows, fmt))


def sweep_table(rows, fmt="csv"):
    """The sweep's rows: CSV exact, or markdown to three digits."""
    if fmt == "csv":
        header, number = ("ratio", "kappa", "eff_eta", "eff_eta_tilde"), _exact
    else:
        header, number = ("ratio", "kappa", "eff(eta)", "eff(eta_tilde)"), _THREE
    rows = [(f"{r.ratio:g}", f"{r.kappa:g}", *map(number, r[2:])) for r in rows]
    return _render(header, rows, fmt)


def records_to_csv(records, path):
    """Adaptive records as CSV: iter, elements, dofs, eta, error, marked."""
    rows = [(str(r.iteration), str(r.n_elements), str(r.n_dofs), _exact(r.eta),
             _exact(r.error), str(r.n_marked)) for r in records]
    return _write(path, _render(("iter", "elements", "dofs", "eta", "error", "marked"), rows))


def dump_indicators(breakdown, path):
    """Per-element indicator parts as CSV: element_id, r1, r2, j1, j2, total."""
    parts = (breakdown.r1, breakdown.r2, breakdown.j1, breakdown.j2, breakdown.total)
    rows = zip(map(str, range(len(breakdown.r1))), *(map(_exact, p.tolist()) for p in parts))
    return _write(path, _render(("element_id", "r1", "r2", "j1", "j2", "total"), rows))


def parse_table_csv(path):
    """Read back a table written by :func:`emit` in csv format."""
    rows = []
    eff_eta = eff_eta_tilde = float("nan")
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "elements,e,eta,eta_tilde":
            raise ValueError(f"unexpected header {header!r}")
        for lineno, line in enumerate(fh, 2):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("eff,"):
                _, _, eff_eta, eff_eta_tilde = _parse_fields(
                    line, lineno, "eff,,eta,eta_tilde", (str, str, float, float), ",")
            else:
                rows.append(TableRow(*_parse_fields(
                    line, lineno, "elements,e,eta,eta_tilde", (int, float, float, float), ",")))
    return ConvergenceTable(rows=tuple(rows), eff_eta=eff_eta,
                            eff_eta_tilde=eff_eta_tilde)


def _sibling_path(base, suffix):
    if base is None:
        return suffix
    return f"{os.path.splitext(base)[0]}_{suffix}"


def run_table(config):
    """Uniform-refinement convergence study.

    Starts on the structured initial mesh, and per level records the
    energy error and both global estimates, then red-refines.  Every level
    is solved with one :class:`edge_fem.Hierarchy` of the run, so CG is
    preconditioned by the additive multilevel sum over the red levels down
    to the finest one whose mass term dominates everywhere (see
    :func:`edge_fem.solve`).  It keeps no matrix and is dropped before the
    last level's estimation.  On a solver failure a partial table with a
    failure marker is written to the configured output before the error
    propagates.
    """
    return _run_table(config, config.validate())


def _run_table(config, problem):
    """:func:`run_table` of ``config`` on ``problem``, the one its
    ``validate()`` returned."""
    solver_tol = config.solver_tol or default_solver_tol(problem)
    mesh = build_structured_unit_square(config.initial_n)
    check_interface_alignment(mesh, problem)
    mesh = tag_regions(mesh, problem.classifier)

    rows = []
    hierarchy = edge_fem.Hierarchy()
    try:
        for level in range(config.levels):
            sample = edge_fem._mesh_sample(problem, mesh)
            solution = edge_fem.solve(mesh, problem.coefficients, sample,
                                      rel_tol=solver_tol, hierarchy=hierarchy)
            if level + 1 == config.levels:
                hierarchy = None  # freed before the last estimation's peak memory
            error = edge_fem.energy_error(solution, problem.coefficients, sample)
            robust = indicator(solution, problem, EstimatorKind.ROBUST, sample)
            sample = None  # freed before refinement
            classical = robust.as_kind(EstimatorKind.CLASSICAL)
            rows.append(TableRow(mesh.num_triangles, error,
                                 robust.global_estimate, classical.global_estimate))
            if config.dump_indicators:
                dump_indicators(robust, _sibling_path(config.out,
                                                      f"indicators_L{level}.csv"))
            if config.dump_mesh:
                save_mesh(mesh, _sibling_path(config.out, f"mesh_L{level}.txt"))
            # freed before the next level is sampled and assembled
            solution = robust = classical = None
            if level + 1 < config.levels:
                mesh = red_refine(mesh)
    except CgNonConvergence as exc:
        partial = emit(ConvergenceTable.from_rows(rows), config.fmt, None,
                       config.full_precision)
        _write(config.out, partial + f"# FAILED at level {len(rows)}: {exc}\n")
        raise

    table = ConvergenceTable.from_rows(rows)
    emit(table, config.fmt, config.out, config.full_precision)
    return table


def run_robustness_sweep(ratios, kappas, levels=4, eps2=1.0, solver_tol=1e-6,
                         out=None):
    """Two-phase effectivity sweep over contrast ratios and kappa values.

    For every (ratio, kappa) combination the interface problem with
    ``eps1 = ratio * eps2`` and the ``RunConfig`` defaults for the rest
    (interface at x1 = 0.5, 4x4 start mesh) is solved on ``levels``
    uniformly refined meshes and the effectivity indices of both
    estimators are recorded.  Every combination is validated before the
    first one is solved, and runs on the problem its validation built.
    """
    runs = []
    for ratio in ratios:
        if not 1 <= ratio < np.inf:
            raise ValueError("contrast ratios must be finite and >= 1")
        for kappa in kappas:
            config = RunConfig(problem="interface", eps1=ratio * eps2, eps2=eps2,
                               kappa=kappa, levels=levels, solver_tol=solver_tol)
            runs.append((ratio, kappa, config, config.validate()))
    rows = []
    for ratio, kappa, config, problem in runs:
        table = _run_table(config, problem)
        rows.append(SweepRow(float(ratio), float(kappa), table.eff_eta, table.eff_eta_tilde))
    _write(out, sweep_table(rows))
    return rows
