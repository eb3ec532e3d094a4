import dataclasses

import numpy as np
import pytest
from scipy.sparse.linalg import spsolve

from curladapt import amr, edge_fem, linalg
from curladapt.amr import adaptive_solve, doerfler_mark
from curladapt.edge_fem import error_points
from curladapt.estimators import EstimatorKind, indicator
from curladapt.mesh import bisect_refine, build_structured_unit_square, tag_regions
from curladapt.problems import interface_problem, paper_problem
from curladapt.report import records_to_csv
from reference import counting_trig_problem, records_digest


def test_doerfler_theta_one_marks_all_nonzero():
    marked = doerfler_mark([0.0, 1.0, 2.0, 0.0, 3.0], theta=1.0)
    assert marked == {1, 2, 4}


def test_doerfler_greedy_hand_example():
    assert doerfler_mark([4.0, 1.0, 1.0, 1.0, 1.0], theta=0.5) == {0}


def test_doerfler_equal_indicators():
    assert doerfler_mark(np.ones(8), theta=0.5) == {0, 1, 2, 3}


def test_doerfler_all_zero():
    assert doerfler_mark(np.zeros(5), theta=0.7) == set()


def test_doerfler_rejects_bad_input():
    with pytest.raises(ValueError):
        doerfler_mark([1.0, 2.0], theta=0.0)
    with pytest.raises(ValueError):
        doerfler_mark([1.0, 2.0], theta=1.5)
    with pytest.raises(ValueError):
        doerfler_mark([1.0, -2.0], theta=0.5)
    # a nan would drop out of the ranking, an inf would take all the bulk
    with pytest.raises(ValueError):
        doerfler_mark(np.array([np.nan, 1.0]), theta=0.5)
    with pytest.raises(ValueError):
        doerfler_mark(np.array([np.inf, 1.0]), theta=0.5)


def test_doerfler_minimality_randomized():
    # dropping the smallest marked indicator must break the bulk bound
    rng = np.random.default_rng(123)
    for _ in range(1000):
        n = rng.integers(1, 40)
        indicators = rng.random(n) * rng.choice([0.0, 1.0, 10.0], size=n)
        theta = rng.uniform(0.05, 1.0)
        marked = doerfler_mark(indicators, theta)
        total = indicators.sum()
        if not marked:
            assert total == 0.0
            continue
        marked_sum = indicators[list(marked)].sum()
        assert marked_sum >= theta * total - 1e-12 * total
        smallest = min(marked, key=lambda t: (indicators[t], -t))
        assert marked_sum - indicators[smallest] < theta * total


def test_adaptive_stops_after_single_refinement():
    problem = paper_problem(1.0, 1.0)
    records = adaptive_solve(problem, max_dofs=41)  # initial mesh has 40 dofs
    assert len(records) == 2
    assert records[-1].n_dofs >= 41
    assert records[-1].n_marked == 0


@pytest.mark.parametrize("options", [{"theta": 0.0}, {"theta": 1.5},
                                     {"max_dofs": np.inf}, {"max_dofs": np.nan}])
def test_adaptive_refuses_bad_input_before_any_solve(monkeypatch, options):
    # solve is stubbed: an unbounded budget would otherwise refine until
    # memory runs out
    calls = []
    monkeypatch.setattr(edge_fem, "solve", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValueError):
        adaptive_solve(paper_problem(1.0, 1.0), **{"max_dofs": 60, **options})
    assert calls == []


def test_adaptive_rejects_non_increasing_budget():
    problem = paper_problem(1.0, 1.0)
    with pytest.raises(ValueError):
        adaptive_solve(problem, max_dofs=40)


def test_adaptive_records_monotone_elements_and_eta():
    problem = paper_problem(0.1, 10.0)
    records = adaptive_solve(problem, max_dofs=1200)
    elements = [r.n_elements for r in records]
    assert elements == sorted(elements)
    etas = [r.eta for r in records]
    violations = sum(1 for a, b in zip(etas, etas[1:]) if b > a)
    assert violations <= 1
    assert all(np.isfinite(r.error) for r in records)
    assert records[0].n_dofs == 40


def test_adaptive_smooth_problem_stays_quasi_uniform():
    problem = paper_problem(0.1, 10.0)
    mesh = build_structured_unit_square(4)
    while True:
        solution = edge_fem.solve(mesh, problem.coefficients, problem.f(error_points(mesh)))
        if solution.dofmap.n_free >= 1200:
            break
        breakdown = indicator(solution, problem, EstimatorKind.ROBUST)
        mesh = bisect_refine(mesh, doerfler_mark(breakdown.total, 0.5))
        assert mesh.diameters.max() / mesh.diameters.min() <= 8.0


def test_adaptive_interface_concentrates_near_interface():
    # with a strong eps contrast the early marks cluster on the phase
    # boundary; fractions frozen from the first verified run (0.45, 0.50,
    # 0.42 for the first three iterations)
    problem = interface_problem(1e4, 1.0, 1.0)
    mesh = tag_regions(build_structured_unit_square(4), problem.classifier)
    for iteration in range(3):
        solution = edge_fem.solve(mesh, problem.coefficients, problem.f(error_points(mesh)),
                                  rel_tol=1e-6)
        breakdown = indicator(solution, problem, EstimatorKind.ROBUST)
        marked = doerfler_mark(breakdown.total, 0.5)
        xs = mesh.vertices[mesh.triangles][:, :, 0]
        touches = np.isclose(xs, 0.5, atol=1e-12).any(axis=1)
        fraction = sum(bool(touches[t]) for t in marked) / len(marked)
        assert fraction >= 0.30
        mesh = bisect_refine(mesh, marked)


def test_records_csv(tmp_path):
    problem = paper_problem(1.0, 1.0)
    records = adaptive_solve(problem, max_dofs=60)
    path = tmp_path / "records.csv"
    records_to_csv(records, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,elements,dofs,eta,error,marked"
    assert len(lines) == len(records) + 1
    first = lines[1].split(",")
    assert int(first[0]) == 0 and int(first[2]) == 40


def test_adaptive_solve_without_an_exact_solution(tmp_path):
    # f and div f alone drive the loop; the error column reads nan
    problem = paper_problem(1.0, 1.0)
    records = adaptive_solve(dataclasses.replace(problem, u=None, curl_u=None), max_dofs=60)
    reference = adaptive_solve(problem, max_dofs=60)
    assert [(r.n_dofs, r.eta, r.n_marked) for r in records] == \
        [(r.n_dofs, r.eta, r.n_marked) for r in reference]
    assert len(records) > 1 and all(np.isnan(r.error) for r in records)
    lines = records_to_csv(records, tmp_path / "records.csv").splitlines()
    assert all(line.split(",")[4] == "nan" for line in lines[1:])


# (n_elements, n_dofs, eta, error, n_marked) per iteration of
# adaptive_solve(interface_problem(1e4, 1, 1), max_dofs=2000), frozen from a
# verified run.  A rounding change in the estimator can flip a Doerfler
# near-tie and silently grow a different mesh, so the counts are exact.
# CG stops on its energy estimate, and every solve after the first starts
# from the prolongated previous field.  eta and the error were re-frozen
# when the load moved onto the degree-6 sample (largest changes 4.6e-7 and
# 5.9e-11 relative); meshes, marks and CG iterations did not move.
FROZEN_INTERFACE_ENERGY_RUN = [
    (32, 40, 1.120950039841819, 0.2668974978588877, 11),
    (46, 61, 0.8213791100613076, 0.18129599477086314, 18),
    (80, 112, 0.6625839296419211, 0.1409546568391397, 19),
    (107, 151, 0.5775547502994023, 0.13181006909290524, 37),
    (158, 225, 0.4859169064456645, 0.10816125001582255, 45),
    (215, 307, 0.40727693080852545, 0.09133583175742607, 67),
    (301, 435, 0.3358876406556394, 0.07304928361825043, 91),
    (416, 600, 0.2905846566722913, 0.06707582033882735, 151),
    (608, 884, 0.24717236863682854, 0.057366898219481745, 171),
    (806, 1181, 0.20571711365362175, 0.04586130697450235, 284),
    (1188, 1754, 0.16936515656262785, 0.03626112381957649, 340),
    (1572, 2314, 0.14870779128354847, 0.03370119661553347, 0),
]
# total CG iterations of the energy run: 604 when every solve started from zero
FROZEN_INTERFACE_ENERGY_CG_ITERATIONS = 395


def test_adaptive_interface_energy_stop_is_frozen(monkeypatch):
    iterations = []
    cg_solve = linalg.cg_solve

    def spy(*args, **kwargs):
        result = cg_solve(*args, **kwargs)
        iterations.append(result.iterations)
        return result

    monkeypatch.setattr(linalg, "cg_solve", spy)
    records = adaptive_solve(interface_problem(1e4, 1.0, 1.0), max_dofs=2000)
    assert [(r.n_elements, r.n_dofs, r.n_marked) for r in records] == \
        [(n, d, m) for n, d, _, _, m in FROZEN_INTERFACE_ENERGY_RUN]
    for record, (_, _, eta, error, _) in zip(records, FROZEN_INTERFACE_ENERGY_RUN):
        assert record.eta == pytest.approx(eta, rel=1e-12)
        assert record.error == pytest.approx(error, rel=1e-12)
    assert len(iterations) == len(records)
    assert sum(iterations) == FROZEN_INTERFACE_ENERGY_CG_ITERATIONS


# records_digest of adaptive_solve(paper_problem(1e-5, 1e5), max_dofs=5000),
# frozen from a verified run: 15 iterations to 3,804 elements and 5,646
# dofs, the mass-dominated regime where CG is cheap and the estimator, the
# energy error and bisection set the cost.  Re-frozen when the load moved
# onto the degree-6 sample: no eta or error moved by more than 3.0e-6
# relative, and the meshes did not move.  Re-frozen when the sample was
# reduced to per-element projections and the energy error and residual
# norms took closed forms: no eta moved by more than 1.6e-16 relative, no
# error by more than 4.3e-16, and the meshes, marks and CG iteration
# counts did not move.
FROZEN_SMOOTH_RUN_DIGEST = "3760a2bbb7f54c721b8024be47a32a3ddf753f60a9351052e4aaa34b0ab99a42"


def test_adaptive_smooth_run_is_frozen():
    records = adaptive_solve(paper_problem(1e-5, 1e5), max_dofs=5000)
    assert (len(records), records[-1].n_elements, records[-1].n_dofs) == (15, 3804, 5646)
    assert records_digest(records) == FROZEN_SMOOTH_RUN_DIGEST


def sampled_once(meshes):
    """The point sets (N, 16), in order, that sample each triangle of the
    bisection sequence ``meshes`` once in its life, below one block per
    mesh: the first mesh whole, then the triangles of each mesh whose
    vertex triple its predecessor lacks (a child of a bisected triangle
    holds a new midpoint)."""
    shapes, before = [], set()
    for mesh in meshes:
        triples = set(map(tuple, mesh.triangles.tolist()))
        shapes.append((len(triples - before), 16))
        before = triples
    return shapes


def test_adaptive_solve_samples_the_problem_once_per_mesh(monkeypatch):
    # one sample at the 16 degree-6 points per triangle, which every load,
    # every estimate (the resumed ones too) and the energy error of every
    # mesh it lives in read: bisection carries the rows of the triangles
    # it keeps
    problem, shapes = counting_trig_problem(interface_problem(1e4, 1.0, 1.0))
    meshes = []
    solve, estimate = edge_fem.solve, amr.indicator

    def solve_spy(mesh, *args, **kwargs):
        meshes.append(mesh)
        return solve(mesh, *args, **kwargs)

    def indicator_spy(solution, problem, kind, sample):
        breakdown = estimate(solution, problem, kind, sample)
        if len(meshes) == 2:  # first estimate on the second mesh: force a resume
            breakdown = dataclasses.replace(breakdown, r1=breakdown.r1 / 100,
                                            r2=breakdown.r2 / 100, j1=breakdown.j1 / 100,
                                            j2=breakdown.j2 / 100)
        return breakdown

    monkeypatch.setattr(edge_fem, "solve", solve_spy)
    monkeypatch.setattr(amr, "indicator", indicator_spy)
    records = adaptive_solve(problem, max_dofs=300)
    assert len(meshes) == len(records) + 1 and len(records) >= 4
    assert meshes[1] is meshes[2]  # the resumed mesh
    del meshes[2]
    assert [m.num_triangles for m in meshes] == [r.n_elements for r in records]
    assert shapes[0] == (32, 16) and shapes == sampled_once(meshes)


def test_adaptive_solve_samples_a_problem_without_exact_solution_once_per_mesh(monkeypatch):
    # f and div f alone take the trig field's one pass too, not one each
    problem, shapes = counting_trig_problem(interface_problem(1e4, 1.0, 1.0))
    problem = dataclasses.replace(problem, u=None, curl_u=None)
    meshes = []
    bisect = amr.bisect_refine

    def bisect_spy(mesh, marked):
        meshes[:] = meshes or [mesh]
        meshes.append(bisect(mesh, marked))
        return meshes[-1]

    monkeypatch.setattr(amr, "bisect_refine", bisect_spy)
    records = adaptive_solve(problem, max_dofs=300)
    assert len(records) >= 4 and all(np.isnan(r.error) for r in records)
    assert [m.num_triangles for m in meshes] == [r.n_elements for r in records]
    assert shapes[0] == (32, 16) and shapes == sampled_once(meshes)


def test_adaptive_solve_warm_starts_from_the_prolongated_field(monkeypatch):
    solves = []
    solve = edge_fem.solve

    def spy(mesh, coefficients, f, **kwargs):
        solves.append((mesh, kwargs, solve(mesh, coefficients, f, **kwargs)))
        return solves[-1][2]

    monkeypatch.setattr(edge_fem, "solve", spy)
    adaptive_solve(paper_problem(1.0, 1.0), max_dofs=100)
    assert len(solves) >= 3 and solves[0][1]["x0"] is None
    for (_, _, previous), (mesh, kwargs, _) in zip(solves, solves[1:]):
        assert np.array_equal(kwargs["x0"], edge_fem.prolongate(previous, mesh))


def test_resume_branch_restarts_from_the_iterate_and_reports_the_new_eta(monkeypatch):
    solves, etas = [], []
    solve, estimate = edge_fem.solve, amr.indicator

    def solve_spy(mesh, coefficients, f, **kwargs):
        solves.append((kwargs, solve(mesh, coefficients, f, **kwargs)))
        return solves[-1][1]

    def indicator_spy(solution, problem, kind, sample):
        breakdown = estimate(solution, problem, kind, sample)
        if len(etas) == 1:  # first estimate on the second mesh: eta drops by 10x
            breakdown = dataclasses.replace(breakdown, r1=breakdown.r1 / 100,
                                            r2=breakdown.r2 / 100, j1=breakdown.j1 / 100,
                                            j2=breakdown.j2 / 100)
        etas.append(breakdown.global_estimate)
        return breakdown

    monkeypatch.setattr(edge_fem, "solve", solve_spy)
    monkeypatch.setattr(amr, "indicator", indicator_spy)
    records = adaptive_solve(interface_problem(1e4, 1.0, 1.0), max_dofs=41)
    assert len(records) == 2 and len(solves) == 3 and len(etas) == 3
    assert etas[1] < etas[0] / 2
    _, (warm, iterate), (resume, resumed) = solves
    assert warm["energy_target"] == amr.ALGEBRAIC_FRACTION * etas[0] / 4
    assert resume["rel_tol"] is None
    assert resume["x0"] is iterate.coefficients
    assert resume["energy_target"] == amr.ALGEBRAIC_FRACTION * etas[1] / 4
    assert resumed.iterations > 0
    assert records[1].eta == etas[2] != etas[1]


def test_resume_repeats_until_eta_keeps_half_its_basis(monkeypatch):
    solves, etas = [], []
    solve, estimate = edge_fem.solve, amr.indicator

    def solve_spy(mesh, coefficients, f, **kwargs):
        solves.append((mesh, kwargs))
        return solve(mesh, coefficients, f, **kwargs)

    def indicator_spy(solution, problem, kind, sample):
        breakdown = estimate(solution, problem, kind, sample)
        if len(etas) in (1, 2):  # first two estimates on the second mesh: eta / 10, / 100
            scale = 100.0 ** len(etas)
            breakdown = dataclasses.replace(breakdown, r1=breakdown.r1 / scale,
                                            r2=breakdown.r2 / scale, j1=breakdown.j1 / scale,
                                            j2=breakdown.j2 / scale)
        etas.append(breakdown.global_estimate)
        return breakdown

    monkeypatch.setattr(edge_fem, "solve", solve_spy)
    monkeypatch.setattr(amr, "indicator", indicator_spy)
    records = adaptive_solve(interface_problem(1e4, 1.0, 1.0), max_dofs=41)
    assert len(records) == 2 and len(solves) == len(etas) == 4
    assert etas[1] < etas[0] / 2 and etas[2] < etas[1] / 2 and etas[3] >= etas[2] / 2
    assert solves[1][0] is solves[2][0] is solves[3][0]  # three solves on the second mesh
    for (_, kwargs), basis in zip(solves[1:], etas):
        assert kwargs["energy_target"] == amr.ALGEBRAIC_FRACTION * basis / 4
    assert records[1].eta == etas[3]


@pytest.mark.parametrize("problem", [interface_problem(1e4, 1.0, 1.0),
                                     paper_problem(1.0, 1e-4), paper_problem(0.1, 10.0)],
                         ids=["interface-1e4", "paper-1-1e-4", "paper-0.1-10"])
def test_energy_stop_keeps_algebraic_error_below_eta(monkeypatch, problem):
    # the last solution estimated on each mesh is the one its record reports
    final = {}
    estimate = amr.indicator

    def spy(solution, problem, kind, sample):
        breakdown = estimate(solution, problem, kind, sample)
        final[id(solution.mesh)] = solution, breakdown.global_estimate
        return breakdown

    monkeypatch.setattr(amr, "indicator", spy)
    records = adaptive_solve(problem, max_dofs=3000)
    assert len(final) == len(records)
    for solution, eta in final.values():
        matrix, b, _ = edge_fem.assemble_system(solution.mesh, problem.coefficients,
                                                problem.f(error_points(solution.mesh)))
        error = spsolve(matrix.tocsc(), b) - solution.coefficients
        assert np.sqrt(error @ (matrix @ error)) <= amr.ALGEBRAIC_FRACTION * eta
