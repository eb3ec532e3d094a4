"""Tests of the benchmark's own code: tracing, self time, the gate and a
smoke run of the whole pipeline on tiny inputs."""

import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import worker  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMOKE = {
    "uniform_study": dict(WORKLOADS["uniform_study"], levels=2),
    "adaptive_interface": dict(WORKLOADS["adaptive_interface"], max_dofs=200,
                               target_error=0.15),
}


def declared(kind):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return {metric["name"] for metric in spec[kind]}


def test_self_time_on_synthetic_spans():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 3.0, 0, 0),
        Span("b", 2.0, 5.0, 0, 0),     # overlaps a: [1, 5] counted once
        Span("c", 8.0, 12.0, 0, 0),    # only [8, 10] lies inside the root
        Span("a.1", 1.5, 2.5, 1, 0),   # grandchild: not subtracted from root
        Span("other", 20.0, 21.0, -1, 1),
    ]
    assert self_times(spans) == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0, 1.0])


def test_tracer_nests_spans_and_restores_after_an_error():
    ticks = iter(range(100))
    module = types.SimpleNamespace(inner=lambda: 1, outer=None)

    def outer():
        module.inner()
        raise ValueError("boom")

    module.outer = outer
    originals = dict(vars(module))
    with pytest.raises(ValueError):
        with Tracer(clock=lambda: float(next(ticks))) as tracer:
            tracer.patch(module, "inner", "inner")
            tracer.patch(module, "outer", "outer")
            module.outer()
    assert vars(module) == originals
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer", -1), ("inner", 0)]
    assert tracer.spans[0].start < tracer.spans[1].start < tracer.spans[1].end \
        < tracer.spans[0].end


def test_traced_run_restores_every_wrapped_attribute():
    curladapt = worker.import_curladapt()
    targets = [(getattr(curladapt, module), attr)
               for module, attr, _name, _probe in worker.TRACED]
    targets.append((curladapt.edge_fem, "energy_error"))
    originals = [getattr(module, attr) for module, attr in targets]
    out = worker.run(SMOKE["uniform_study"], traced=True)
    assert out["layers"]["linalg.cg_iters"] > 0
    for (module, attr), original in zip(targets, originals):
        assert getattr(module, attr) is original, attr


def test_gate_counts_a_failed_check_without_aborting():
    spec = WORKLOADS["adaptive_interface"]
    rows = [{"dofs": 10_500, "elements": 7000, "error": 0.03, "eta": 0.13,
             "marked": 0}]
    rep = {"calls": [{"label": "short", "column": None, "error": None,
                      "rows": rows}]}
    attempted, failed, problems, known = run.gate(spec, [rep, rep])
    assert (attempted, failed, known) == (2, 2, [])
    assert "misses the target" in problems[0]


@pytest.fixture(scope="module", params=[False, True], ids=["untraced", "traced"])
def smoke(request):
    return {name: run.measure(spec, request.param, seconds=0.0, min_rounds=1,
                              setup_samples=1)
            for name, spec in SMOKE.items()}, request.param


def test_smoke_run_emits_every_metric(smoke):
    results, traced = smoke
    names = declared("per_layer" if traced else "end_to_end")
    for name, result in results.items():
        assert result["correct"], (name, result["problems"])
        assert names <= set(result["metrics"]), names - set(result["metrics"])
        for value in result["metrics"].values():
            assert isinstance(value, (int, float))


def test_known_cg_failure_is_counted_not_raised(smoke):
    results, traced = smoke
    study = results["uniform_study"]
    assert study["attempted"] == 4 * len(study["reps"])
    assert study["failed"] == len(study["reps"])
    assert study["problems"] == []
    assert all("CgNonConvergence" in m for m in study["known_failures"])
    if not traced:
        assert study["metrics"]["ok_frac"] == 0.75
        assert results["adaptive_interface"]["metrics"]["ok_frac"] == 1.0
