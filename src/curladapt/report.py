"""Convergence studies and robustness sweeps with CSV/markdown output."""

import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import edge_fem
from .estimators import EstimatorKind, dump_indicators, indicator
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
        checked by building the problem."""
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
        self.make_problem()

    def make_problem(self):
        if self.problem == "paper":
            return paper_problem(self.eps, self.kappa)
        return interface_problem(self.eps1, self.eps2, self.kappa, self.split)


def _fmt(value, full_precision):
    if isinstance(value, int):
        return str(value)
    if full_precision:
        return repr(float(value))
    return f"{value:.2e}"  # three significant digits


def table_to_csv(table, full_precision=False):
    lines = ["elements,e,eta,eta_tilde"]
    for row in table.rows:
        lines.append(",".join([str(row.elements), _fmt(row.error, full_precision),
                               _fmt(row.eta, full_precision),
                               _fmt(row.eta_tilde, full_precision)]))
    lines.append(f"eff,,{_fmt(table.eff_eta, full_precision)},"
                 f"{_fmt(table.eff_eta_tilde, full_precision)}")
    return "\n".join(lines) + "\n"


def table_to_markdown(table, full_precision=False):
    lines = ["| elements | e | eta | eta_tilde |",
             "| ---: | ---: | ---: | ---: |"]
    for row in table.rows:
        lines.append(f"| {row.elements} | {_fmt(row.error, full_precision)} "
                     f"| {_fmt(row.eta, full_precision)} "
                     f"| {_fmt(row.eta_tilde, full_precision)} |")
    lines.append(f"| eff | N/A | {_fmt(table.eff_eta, full_precision)} "
                 f"| {_fmt(table.eff_eta_tilde, full_precision)} |")
    return "\n".join(lines) + "\n"


def emit(table, fmt="csv", path=None, full_precision=False):
    """Render a convergence table and optionally write it to a file."""
    if fmt == "csv":
        text = table_to_csv(table, full_precision)
    elif fmt == "markdown":
        text = table_to_markdown(table, full_precision)
    else:
        raise ValueError(f"unknown output format {fmt!r}")
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


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
    config.validate()
    problem = config.make_problem()
    solver_tol = config.solver_tol or default_solver_tol(problem)
    mesh = build_structured_unit_square(config.initial_n)
    if problem.classifier is not None:
        if problem.interface_abscissa is not None:
            check_interface_alignment(mesh, problem.interface_abscissa)
        mesh = tag_regions(mesh, problem.classifier)

    rows = []
    hierarchy = edge_fem.Hierarchy()
    try:
        for level in range(config.levels):
            sample = problem.sample(edge_fem.error_points(mesh))
            solution = edge_fem.solve(mesh, problem.coefficients, sample.f,
                                      rel_tol=solver_tol, hierarchy=hierarchy)
            if level + 1 == config.levels:
                hierarchy = None  # freed before the last estimation's peak memory
            error = edge_fem.energy_error(solution, problem.coefficients,
                                          sample.u, sample.curl_u)
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
        if config.out is not None:
            partial = ConvergenceTable.from_rows(rows)
            text = emit(partial, config.fmt, None, config.full_precision)
            with open(config.out, "w") as fh:
                fh.write(text)
                fh.write(f"# FAILED at level {len(rows)}: {exc}\n")
        raise

    table = ConvergenceTable.from_rows(rows)
    if config.out is not None:
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
    first one is solved.
    """
    runs = []
    for ratio in ratios:
        if not 1 <= ratio < np.inf:
            raise ValueError("contrast ratios must be finite and >= 1")
        for kappa in kappas:
            config = RunConfig(problem="interface", eps1=ratio * eps2, eps2=eps2,
                               kappa=kappa, levels=levels, solver_tol=solver_tol)
            config.validate()
            runs.append((ratio, kappa, config))
    rows = []
    for ratio, kappa, config in runs:
        table = run_table(config)
        rows.append(SweepRow(float(ratio), float(kappa), table.eff_eta, table.eff_eta_tilde))
    if out is not None:
        with open(out, "w") as fh:
            fh.write("ratio,kappa,eff_eta,eff_eta_tilde\n")
            for row in rows:
                fh.write(f"{row.ratio:g},{row.kappa:g},{float(row.eff_eta)!r},"
                         f"{float(row.eff_eta_tilde)!r}\n")
    return rows
