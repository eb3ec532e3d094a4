"""Workload specifications and the correctness gate of the benchmark.

A workload is a plain dict that names a public driver and its fixed
inputs, so that the same spec can be handed to a worker interpreter as
JSON.  Nothing here imports ``curladapt``; the gate works on the raw
per-call data a worker returns (see ``worker.py``).
"""

# Published three-digit figures of the constant-coefficient study, per
# level (32, 128, 512, 2048, 8192 triangles): (eps, kappa) -> quantity.
REFERENCE_STUDY = {
    (0.1, 10.0): {
        "error": [8.42e-1, 4.35e-1, 2.19e-1, 1.10e-1, 5.49e-2],
        "eta": [3.72, 2.04, 1.04, 5.26e-1, 2.64e-1],
        "eta_tilde": [3.94, 2.04, 1.04, 5.26e-1, 2.64e-1],
    },
    (1e-3, 1e3): {
        "error": [8.24, 4.30, 2.18, 1.10, 5.49e-1],
        "eta": [3.72e1, 2.04e1, 1.06e1, 5.36, 2.69],
        "eta_tilde": [1.46e3, 3.80e2, 9.70e1, 2.48e1, 6.61],
    },
    (1e-5, 1e5): {
        "error": [8.24e1, 4.30e1, 2.18e1, 1.10e1, 5.49],
        "eta": [3.72e2, 2.04e2, 1.06e2, 5.36e1, 2.69e1],
        "eta_tilde": [1.46e6, 3.80e5, 9.64e4, 2.42e4, 6.06e3],
    },
}
REFERENCE_TOL = 0.10
EFFECTIVITY_RANGE = (0.1, 0.5)

# The column the seed's Jacobi-CG cannot solve: it is attempted on every
# run and counted as a failed call while it raises CgNonConvergence.
KNOWN_FAILURE = {"column": (1.0, 1e-4), "error": "CgNonConvergence"}

WORKLOADS = {
    # The paper's three-column reproduction plus the regime where the
    # solver fails.  Estimation, assembly, energy error and red refinement
    # dominate; no bisection and no marking.
    "uniform_study": {
        "driver": "run_table",
        "columns": [[0.1, 10.0], [1e-3, 1e3], [1e-5, 1e5], [1.0, 1e-4]],
        "levels": 6,
        "initial_n": 4,
    },
    # Contrast 1e4 at the two-phase solver tolerance 1e-6: Jacobi-CG is
    # about 90% of the run.
    "adaptive_interface": {
        "driver": "adaptive_solve",
        "problem": ["interface", 1e4, 1.0, 1.0],
        "theta": 0.5,
        "max_dofs": 10_000,
        "target_error": 0.02,
    },
    # Mass-dominated, so CG needs few iterations; bisection, one
    # estimator kind per iteration, assembly and energy error dominate.
    "adaptive_smooth": {
        "driver": "adaptive_solve",
        "problem": ["paper", 1e-5, 1e5],
        "theta": 0.5,
        "max_dofs": 40_000,
        "target_error": 3.0,
    },
}


def column_target(column, levels):
    """Error a reproduction column must reach: 110% of the published
    error at the finest level that has a published figure.  None for a
    column without published figures."""
    reference = REFERENCE_STUDY.get(tuple(column))
    if reference is None:
        return None
    return (1.0 + REFERENCE_TOL) * reference["error"][min(levels, 5) - 1]


def effectivities(call):
    """Robust effectivities error/eta of one finished driver call."""
    return [row["error"] / row["eta"] for row in call["rows"]]


def check_call(spec, call):
    """Correctness problems of one driver call, as a list of messages.

    ``call`` is one entry of a worker's ``calls`` list.  An empty list
    means the call passed the gate.
    """
    if call["error"] is not None:
        return [call["error"]]
    problems = []
    rows = call["rows"]
    low, high = EFFECTIVITY_RANGE
    for i, eff in enumerate(effectivities(call)):
        if not low <= eff <= high:
            problems.append(f"robust effectivity {eff:.4g} at step {i} "
                            f"outside [{low}, {high}]")
    if spec["driver"] == "run_table":
        if len(rows) != spec["levels"]:
            problems.append(f"{len(rows)} levels, expected {spec['levels']}")
        reference = REFERENCE_STUDY.get(tuple(call["column"]), {})
        for name, published in reference.items():
            for level, (row, ref) in enumerate(zip(rows, published)):
                deviation = abs(row[name] / ref - 1.0)
                if deviation > REFERENCE_TOL:
                    problems.append(f"{name} at level {level + 1} is "
                                    f"{row[name]:.4g}, published {ref:.3g} "
                                    f"({deviation:.1%} off)")
    else:
        best = min(row["error"] for row in rows)
        if best > spec["target_error"]:
            problems.append(f"best error {best:.4g} misses the target "
                            f"{spec['target_error']:g}")
        if rows[-1]["dofs"] < spec["max_dofs"]:
            problems.append(f"stopped at {rows[-1]['dofs']} dofs, budget "
                            f"{spec['max_dofs']}")
    return problems


def is_known_failure(spec, call):
    """True when the call is the documented solver failure of the seed."""
    return (spec["driver"] == "run_table"
            and tuple(call["column"]) == KNOWN_FAILURE["column"]
            and call["error"] is not None
            and call["error"].startswith(KNOWN_FAILURE["error"] + ":"))
