"""Command-line driver for convergence tables, robustness sweeps and
adaptive runs."""

import argparse
import sys

from .amr import adaptive_solve
from .estimators import EstimatorKind
from .report import (RunConfig, emit, records_to_csv, run_robustness_sweep, run_table,
                     sweep_table)


def _add_problem_args(parser):
    parser.add_argument("--problem", choices=("paper", "interface"), default="paper")
    parser.add_argument("--eps", type=float, default=0.1,
                        help="eps for the constant-coefficient problem")
    parser.add_argument("--kappa", type=float, default=10.0)
    parser.add_argument("--eps1", type=float, help="eps left of the interface")
    parser.add_argument("--eps2", type=float, help="eps right of the interface")
    parser.add_argument("--split", type=float, default=0.5,
                        help="x-coordinate of the interface")


def _parse_floats(text):
    return [float(tok) for tok in text.split(",") if tok]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="curladapt",
        description="2D H(curl) edge-element solver with robust a posteriori "
                    "error estimation")
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("run-table", help="uniform-refinement convergence study")
    _add_problem_args(table)
    table.add_argument("--levels", type=int, default=5)
    table.add_argument("--initial-n", type=int, default=4)
    table.add_argument("--solver-tol", type=float)
    table.add_argument("--out", help="output file path")
    table.add_argument("--format", choices=("csv", "markdown"), default="csv")
    table.add_argument("--full-precision", action="store_true",
                       help="write full float precision instead of 3 digits")
    table.add_argument("--dump-indicators", action="store_true",
                       help="write per-element indicator CSVs per level")
    table.add_argument("--dump-mesh", action="store_true",
                       help="write plain-text mesh files per level")

    sweep = sub.add_parser("run-sweep", help="two-phase robustness sweep")
    sweep.add_argument("--ratios", default="1,100,10000",
                       help="comma-separated eps1/eps2 contrast ratios")
    sweep.add_argument("--kappas", default="1,10000", help="comma-separated kappas")
    sweep.add_argument("--levels", type=int, default=4)
    sweep.add_argument("--eps2", type=float, default=1.0)
    sweep.add_argument("--solver-tol", type=float, default=1e-6)
    sweep.add_argument("--out")

    adaptive = sub.add_parser("run-adaptive", help="adaptive bisection run")
    _add_problem_args(adaptive)
    adaptive.add_argument("--theta", type=float, default=0.5)
    adaptive.add_argument("--max-dofs", type=int, default=2000)
    adaptive.add_argument("--estimator", choices=("robust", "classical"),
                          default="robust")
    adaptive.add_argument("--out")
    return parser


def _run_table(args):
    config = RunConfig(problem=args.problem, eps=args.eps, kappa=args.kappa,
                       eps1=args.eps1, eps2=args.eps2, split=args.split,
                       levels=args.levels, initial_n=args.initial_n,
                       solver_tol=args.solver_tol, out=args.out, fmt=args.format,
                       full_precision=args.full_precision,
                       dump_indicators=args.dump_indicators,
                       dump_mesh=args.dump_mesh)
    table = run_table(config)
    print(emit(table, "markdown"), end="")
    if args.out:
        print(f"wrote {args.out}")
    return 0


def _run_sweep(args):
    rows = run_robustness_sweep(_parse_floats(args.ratios), _parse_floats(args.kappas),
                                levels=args.levels, eps2=args.eps2,
                                solver_tol=args.solver_tol, out=args.out)
    print(sweep_table(rows, "markdown"), end="")
    if args.out:
        print(f"wrote {args.out}")
    return 0


def _run_adaptive(args):
    config = RunConfig(problem=args.problem, eps=args.eps, kappa=args.kappa,
                       eps1=args.eps1, eps2=args.eps2, split=args.split)
    config.validate()
    problem = config.make_problem()
    kind = EstimatorKind(args.estimator)
    records = adaptive_solve(problem, kind=kind, theta=args.theta,
                             max_dofs=args.max_dofs)
    header = ("iter", "elements", "dofs", "eta", "error", "marked")
    cells = [(str(r.iteration), str(r.n_elements), str(r.n_dofs), f"{r.eta:.3e}",
              f"{r.error:.3e}", str(r.n_marked)) for r in records]
    # each column as wide as its header or its widest entry, two spaces apart
    widths = [max(map(len, column)) for column in zip(header, *cells)]
    print("  ".join(map(str.ljust, header, widths)))
    for row in cells:
        print("  ".join(map(str.rjust, row, widths)))
    if args.out:
        records_to_csv(records, args.out)
        print(f"wrote {args.out}")
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    handlers = {"run-table": _run_table, "run-sweep": _run_sweep,
                "run-adaptive": _run_adaptive}
    try:
        return handlers[args.command](args)
    except Exception as exc:  # contract violations exit nonzero with a diagnostic
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
