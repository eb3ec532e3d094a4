"""Benchmark of the curladapt drivers.

    python3 perfbench/run.py --workload uniform_study --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Every repetition runs in a fresh interpreter (``worker.py``) with BLAS and
OpenMP pinned to one thread, so solver iteration counts repeat exactly.
With ``--trace 0`` the run times untraced repetitions and reports the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it alternates
untraced and traced repetitions and reports the per-layer metrics.  Every
repetition passes through the correctness gate of ``workloads.py``.  The
last line of standard output is one JSON object; the full result,
including machine settings and spans, goes to ``.bench_out/``.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import (WORKLOADS, check_call, column_target, effectivities,
                       is_known_failure)

ROOT = Path(__file__).resolve().parents[1]
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
MIN_ROUNDS = 3        # untraced repetitions per run, at least
SETUP_SAMPLES = 7     # fresh interpreters timed per run for setup_s
TIME_LIMIT = 170.0    # seconds; a run must end within 180


def worker(mode, traced, spec, deadline):
    """Run ``worker.py`` in a fresh interpreter and return its JSON."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), mode,
           str(int(traced)), json.dumps(spec)]
    proc = subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, **THREADS),
                          capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def setup_time(spec, deadline):
    """Seconds from spawning an interpreter to the first solve of the
    workload's first driver call."""
    spawned = time.monotonic()
    return worker("setup", False, spec, deadline)["first_solve"] - spawned


def collect(spec, traced, seconds, min_rounds=MIN_ROUNDS,
            setup_samples=SETUP_SAMPLES):
    """Run repetitions for about ``seconds``: rounds of one untraced
    repetition (followed by a traced one when ``traced``), at least
    ``min_rounds`` of them untraced or one round traced."""
    deadline = time.monotonic() + TIME_LIMIT
    setups = []
    if not traced:
        setup_time(spec, deadline)  # compiles bytecode, warms the file cache
        setups = [setup_time(spec, deadline) for _ in range(setup_samples)]
    reps, rounds = [], []
    start = time.monotonic()
    while True:
        begun = time.monotonic()
        for flag in (False, True) if traced else (False,):
            reps.append(dict(worker("run", flag, spec, deadline), traced=flag))
        rounds.append(time.monotonic() - begun)
        now, typical = time.monotonic(), statistics.median(rounds)
        done = len(rounds) >= (1 if traced else min_rounds)
        if now + typical > deadline or (done and now - start + typical > seconds):
            return setups, reps


def gate(spec, reps):
    """Check every driver call of every repetition.

    Returns (attempted, failed, problems, known): problems are failures
    other than the documented one of the seed, which goes to known.
    """
    attempted, failed, problems, known = 0, 0, [], []
    for rep in reps:
        for call in rep["calls"]:
            attempted += 1
            messages = check_call(spec, call)
            if not messages:
                continue
            failed += 1
            target = known if is_known_failure(spec, call) else problems
            target.extend(f"{call['label']}: {m}" for m in messages)
    return attempted, failed, problems, known


def time_to_target(spec, rep):
    """Seconds from the start of the repetition until the target error is
    first met: the adaptive target, or for the uniform study the published
    finest-level accuracy in every reproduction column.  The full wall time
    if it is never met (the gate fails that repetition)."""
    reached = []
    for call in rep["calls"]:
        if spec["driver"] == "run_table":
            target = column_target(call["column"], spec["levels"])
        else:
            target = spec["target_error"]
        if target is None:
            continue
        times = [t for t, _dofs, error in call["log"] if error <= target]
        reached.append(times[0] if times else math.inf)
    worst = max(reached)
    return worst if worst < math.inf else rep["wall_s"]


def rep_metrics(spec, rep):
    """End-to-end metrics of one untraced repetition."""
    finished = [call for call in rep["calls"] if call["rows"]]
    finest = [call["rows"][-1]["error"] for call in finished]
    effs = [e for call in finished for e in effectivities(call)]
    dofs = sum(d for call in rep["calls"] for _t, d, _e in call["log"])
    return {
        "wall_s": rep["wall_s"],
        "dofs_per_s": dofs / rep["wall_s"],
        "time_to_target_s": time_to_target(spec, rep),
        "final_error": math.exp(statistics.fmean(math.log(e) for e in finest)),
        "eff_spread": max(effs) / min(effs),
        "peak_rss_mb": rep["peak_rss_mb"],
    }


def end_to_end(spec, setups, reps, attempted, failed):
    per_rep = [rep_metrics(spec, rep) for rep in reps]
    metrics = {name: statistics.median(m[name] for m in per_rep)
               for name in per_rep[0]}
    metrics["setup_s"] = statistics.median(setups)
    metrics["ok_frac"] = (attempted - failed) / attempted
    return metrics


def per_layer(spec, reps):
    traced = [rep for rep in reps if rep["traced"]]
    plain = [rep["wall_s"] for rep in reps if not rep["traced"]]
    metrics = {name: statistics.median(rep["layers"][name] for rep in traced)
               for name in traced[0]["layers"]}
    metrics["amr.iterations"] = (len(traced[0]["calls"][0]["rows"])
                                 if spec["driver"] == "adaptive_solve" else 0)
    metrics["trace.wall_s"] = statistics.median(rep["wall_s"] for rep in traced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(plain)
    return metrics


def measure(spec, traced, seconds, **collect_options):
    """Run one workload and return its result: ``correct``, ``attempted``,
    ``failed``, every metric the mode computes, and the gate's messages."""
    setups, reps = collect(spec, traced, seconds, **collect_options)
    attempted, failed, problems, known = gate(spec, reps)
    metrics = per_layer(spec, reps) if traced else end_to_end(
        spec, setups, reps, attempted, failed)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics, "problems": problems, "known_failures": known,
            "setups": setups, "reps": reps}


def git_commit():
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine(rep):
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "unknown")
    except OSError:
        cpu = "unknown"
    return {"threads": THREADS, "cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": rep["python"], "numpy": rep["numpy"], "scipy": rep["scipy"],
            "commit": git_commit()}


def report(name, seed, traced, result, declared, settings):
    """Print the human-readable result lines and the final JSON line."""
    missing = [m["name"] for m in declared if m["name"] not in result["metrics"]]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
               for m in declared}
    rounds = sum(not rep["traced"] for rep in result["reps"])
    print(f"== {name} (seed {seed}, trace {int(traced)}, "
          f"{len(result['reps'])} repetitions, {rounds} untraced; "
          f"times are medians)")
    for key, metric in metrics.items():
        print(f"  {key:36s} {metric['value']:.6g} {metric['unit']}")
    print(f"  machine: {json.dumps(settings)}")
    status = "PASS" if result["correct"] else "FAIL"
    print(f"  gate: {status}, {result['failed']} of {result['attempted']} "
          f"driver calls failed")
    for message in result["problems"]:
        print(f"    unexpected: {message}")
    for message in sorted(set(result["known_failures"])):
        print(f"    known: {message}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


def main(argv=None):
    spec_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "curladapt" / "__init__.py").is_file() or not spec_file.is_file():
        print(f"no curladapt sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    declared = json.loads(spec_file.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded only: the workload inputs are fixed")
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    traced = bool(args.trace)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    for name in names:
        spec = WORKLOADS[name]
        result = measure(spec, traced, args.seconds)
        settings = machine(result["reps"][0])
        record = dict(result, workload=name, seed=args.seed, trace=args.trace,
                      spec=spec, machine=settings)
        path = out_dir / f"{name}-trace{args.trace}-seed{args.seed}.json"
        path.write_text(json.dumps(record))
        report(name, args.seed, traced, result,
               declared["per_layer" if traced else "end_to_end"], settings)
    return 0


if __name__ == "__main__":
    sys.exit(main())
