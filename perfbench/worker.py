"""One repetition of a workload, run in a fresh interpreter.

    python3 perfbench/worker.py run <trace 0|1> '<workload spec as JSON>'
    python3 perfbench/worker.py setup 0 '<workload spec as JSON>'

``run`` calls the workload's public drivers exactly as a user does and
prints, as JSON, the wall time, the memory high-water mark and the raw
per-call data the gate and the metrics are computed from.  Every energy
error the drivers compute is timestamped at that one call site.  With
trace 1 the layer functions are wrapped at the places the drivers look
them up, and the spans and per-layer metrics are added to the output.

``setup`` runs the first driver call only up to its first solve and
prints the system-wide monotonic time at that moment, so that the caller
can time a fresh interpreter from spawn to first solve.
"""

import json
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

from spans import Tracer, self_times

SRC = Path(__file__).resolve().parents[1] / "src"

# Computed bytes of one CSR product y = A x: 8-byte values, 4-byte column
# indices and row offsets (scipy's index width below 2**31 entries), x read
# and y written once.  Cache misses are ignored.
VALUE_BYTES, INDEX_BYTES = 8, 4


def spmv_bytes(n, nnz):
    return nnz * (VALUE_BYTES + INDEX_BYTES) + (n + 1) * INDEX_BYTES + 2 * n * VALUE_BYTES


def import_curladapt():
    """Import the package from this checkout's ``src``, never another copy."""
    sys.path.insert(0, str(SRC))
    import curladapt
    if SRC.resolve() not in Path(curladapt.__file__).resolve().parents:
        raise SystemExit(f"curladapt imported from {curladapt.__file__}, "
                         f"not from {SRC}")
    return curladapt


def driver_calls(spec):
    """(label, column, driver name, thunk) for each driver call of a spec."""
    from curladapt import amr, problems, report
    from curladapt.estimators import EstimatorKind

    if spec["driver"] == "run_table":
        for eps, kappa in spec["columns"]:
            config = report.RunConfig(eps=eps, kappa=kappa, levels=spec["levels"],
                                      initial_n=spec["initial_n"])
            yield (f"eps={eps:g} kappa={kappa:g}", [eps, kappa], "report.run_table",
                   lambda config=config: report.run_table(config))
        return
    kind, *params = spec["problem"]
    make = {"paper": problems.paper_problem,
            "interface": problems.interface_problem}[kind]

    def thunk():
        return amr.adaptive_solve(make(*params), EstimatorKind.ROBUST,
                                  theta=spec["theta"], max_dofs=spec["max_dofs"])
    yield f"{kind}{tuple(params)}", None, "amr.adaptive_solve", thunk


def _rows(result):
    """Plain per-level (run_table) or per-iteration (adaptive_solve) rows."""
    if hasattr(result, "rows"):
        return [{"elements": r.elements, "error": r.error, "eta": r.eta,
                 "eta_tilde": r.eta_tilde} for r in result.rows]
    return [{"elements": r.n_elements, "dofs": r.n_dofs, "error": r.error,
             "eta": r.eta, "marked": r.n_marked} for r in result]


# Probes: counts recorded at the layer boundaries, from arguments and results.

def _cg_probe(tracer, args, result, exc):
    matrix = args[0]
    outcome = result if exc is None else exc
    if not hasattr(outcome, "iterations"):
        return  # refused before iterating
    tracer.add("linalg.cg_iters", outcome.iterations)
    tracer.peak("linalg.cg_iters_max", outcome.iterations)
    tracer.peak("linalg.cg_residual_max", outcome.residual)
    tracer.add("linalg.cg_failures", exc is not None)
    tracer.add("linalg.spmv_bytes_computed",
               (outcome.iterations + 1) * spmv_bytes(matrix.shape[0], matrix.nnz))


def _assemble_probe(tracer, args, result, exc):
    if exc is None:
        tracer.add("edge_fem.assemble.nnz", result[0].nnz)


def _indicator_probe(tracer, args, result, exc):
    tracer.add("estimators.indicator.elems", args[0].mesh.num_triangles)


def _bisect_probe(tracer, args, result, exc):
    if exc is None:
        tracer.add("mesh.bisect_refine.tris", result.num_triangles)


def _mark_probe(tracer, args, result, exc):
    if exc is None:
        tracer.add("amr.marked", len(result))
        tracer.add("amr.candidates", len(args[0]))


# (module, attribute looked up by the drivers, span name, probe)
TRACED = [
    ("report", "build_structured_unit_square", "mesh.build", None),
    ("report", "tag_regions", "mesh.tag_regions", None),
    ("report", "red_refine", "mesh.red_refine", None),
    ("report", "indicator", "estimators.indicator", _indicator_probe),
    ("amr", "build_structured_unit_square", "mesh.build", None),
    ("amr", "tag_regions", "mesh.tag_regions", None),
    ("amr", "bisect_refine", "mesh.bisect_refine", _bisect_probe),
    ("amr", "indicator", "estimators.indicator", _indicator_probe),
    ("amr", "doerfler_mark", "amr.doerfler_mark", _mark_probe),
    ("edge_fem", "solve", "edge_fem.solve", None),
    ("edge_fem", "assemble_system", "edge_fem.assemble", _assemble_probe),
    ("linalg", "cg_solve", "linalg.cg", _cg_probe),
]


def install(tracer, curladapt, traced):
    """Patch ``edge_fem.energy_error`` to timestamp every iteration and,
    when ``traced``, every layer of TRACED.  Returns the iteration log of
    (time, free dofs, energy error)."""
    log = []

    def log_iteration(tracer, args, result, exc):
        if exc is None:
            log.append((tracer.clock(), args[0].dofmap.n_free, result))

    tracer.patch(curladapt.edge_fem, "energy_error", "edge_fem.energy_error",
                 log_iteration)
    if traced:
        for module, attr, name, probe in TRACED:
            tracer.patch(getattr(curladapt, module), attr, name, probe)
    return log


def layer_metrics(tracer):
    """Per-layer metrics of one traced repetition."""
    spans = tracer.spans
    busy = defaultdict(float)
    calls = defaultdict(int)
    for span in spans:
        busy[span.name] += span.end - span.start
        calls[span.name] += 1
    sums, maxima = tracer.sums, tracer.maxima

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    return {
        "linalg.cg_s": busy["linalg.cg"],
        "linalg.cg_calls": calls["linalg.cg"],
        "linalg.cg_iters": sums["linalg.cg_iters"],
        "linalg.cg_iters_max": maxima["linalg.cg_iters_max"],
        "linalg.cg_s_per_iter": rate(busy["linalg.cg"], sums["linalg.cg_iters"]),
        "linalg.cg_residual_max": maxima["linalg.cg_residual_max"],
        "linalg.cg_failures": sums["linalg.cg_failures"],
        "linalg.spmv_bytes_computed": sums["linalg.spmv_bytes_computed"],
        "estimators.indicator_s": busy["estimators.indicator"],
        "estimators.indicator_calls": calls["estimators.indicator"],
        "estimators.indicator.elems_per_s": rate(sums["estimators.indicator.elems"],
                                                 busy["estimators.indicator"]),
        "edge_fem.solve_s": busy["edge_fem.solve"],
        "edge_fem.assemble_s": busy["edge_fem.assemble"],
        "edge_fem.assemble.nnz": sums["edge_fem.assemble.nnz"],
        "edge_fem.energy_error_s": busy["edge_fem.energy_error"],
        "mesh.bisect_refine_s": busy["mesh.bisect_refine"],
        "mesh.bisect_refine.tris_per_s": rate(sums["mesh.bisect_refine.tris"],
                                              busy["mesh.bisect_refine"]),
        "mesh.red_refine_s": busy["mesh.red_refine"],
        "mesh.build_s": busy["mesh.build"],
        "mesh.tag_regions_s": busy["mesh.tag_regions"],
        "amr.marked_frac": rate(sums["amr.marked"], sums["amr.candidates"]),
        "amr.doerfler_mark_s": busy["amr.doerfler_mark"],
        "report.self_s": sum(t for span, t in zip(spans, self_times(spans))
                             if span.parent < 0),
    }


def run(spec, traced):
    curladapt = import_curladapt()
    out = {"python": sys.version.split()[0],
           "numpy": sys.modules["numpy"].__version__,
           "scipy": sys.modules["scipy"].__version__,
           "calls": []}
    with Tracer() as tracer:
        log = install(tracer, curladapt, traced)
        start = tracer.clock()
        for run_id, (label, column, driver, thunk) in enumerate(driver_calls(spec)):
            tracer.run_id = run_id
            first = len(log)
            call = {"label": label, "column": column, "error": None, "rows": []}
            try:
                call["rows"] = _rows(tracer.call(driver, thunk))
            except Exception as exc:  # a failed call is data, not a crash
                call["error"] = f"{type(exc).__name__}: {exc}"
            call["log"] = [[t - start, dofs, err] for t, dofs, err in log[first:]]
            out["calls"].append(call)
        out["wall_s"] = tracer.clock() - start
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if traced:
        out["layers"] = layer_metrics(tracer)
        out["spans"] = [[s.name, s.start - start, s.end - start, s.parent, s.run_id]
                        for s in tracer.spans]
    return out


class _FirstSolve(Exception):
    pass


def setup(spec):
    """Run the first driver call up to its first solve; return the
    system-wide monotonic time at that solve."""
    curladapt = import_curladapt()
    original = curladapt.edge_fem.solve

    def first_solve(*args, **kwargs):
        raise _FirstSolve(time.monotonic())

    curladapt.edge_fem.solve = first_solve
    try:
        next(driver_calls(spec))[3]()
    except _FirstSolve as stop:
        return {"first_solve": stop.args[0]}
    finally:
        curladapt.edge_fem.solve = original
    raise RuntimeError("the driver returned without solving")


def main(argv):
    mode, trace, spec = argv[1], argv[2], json.loads(argv[3])
    out = setup(spec) if mode == "setup" else run(spec, trace == "1")
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv)
