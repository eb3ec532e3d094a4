import dataclasses

import numpy as np
import pytest

from curladapt import edge_fem
from curladapt.edge_fem import (DiscreteSolution, DofMap, curl_uh, energy_error,
                                eval_uh, solve)
from curladapt.estimators import (EstimatorKind, capped_size, edge_jumps,
                                  element_residuals, indicator, oscillations,
                                  weighted_sizes)
from curladapt.mesh import (bisect_refine, build_structured_unit_square, red_refine,
                            tag_regions)
from curladapt.problems import (CoefficientField, ManufacturedProblem,
                                interface_problem, paper_problem)
from curladapt.quadrature import edge_rule


def zero_field_problem(eps=1.0, kappa=1.0):
    zero_vec = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    zero_scalar = lambda x: np.zeros(np.asarray(x).shape[:-1])
    return ManufacturedProblem(
        coefficients=CoefficientField(eps={1: eps}, kappa=kappa),
        u=zero_vec, curl_u=zero_scalar, f=zero_vec, div_f=zero_scalar,
        tag="zero")


def zero_solution(mesh):
    dofmap = DofMap(mesh)
    return DiscreteSolution(mesh, dofmap, np.zeros(dofmap.n_free))


# -- weighted sizes -----------------------------------------------------


def test_capped_size_hand_values():
    assert capped_size(0.25, 0.01, 100.0) == pytest.approx(0.1)  # kappa branch
    assert capped_size(0.5, 1.0, 1.0) == pytest.approx(0.5)      # size branch


def test_weighted_sizes_invariants():
    mesh = tag_regions(build_structured_unit_square(4),
                       lambda c: 1 if c[0] < 0.5 else 2)
    coeffs = CoefficientField(eps={1: 1e4, 2: 1.0}, kappa=25.0)
    sizes = weighted_sizes(mesh, coeffs)
    assert (sizes.element_size == 0.5 * mesh.diameters).all()
    assert (sizes.hbar_element <= sizes.element_size / np.sqrt(sizes.eps_element) + 1e-15).all()
    assert (sizes.hbar_element <= 1 / np.sqrt(coeffs.kappa) + 1e-15).all()
    assert (sizes.hbar_edge <= 1 / np.sqrt(coeffs.kappa) + 1e-15).all()
    interior = ~mesh.is_boundary_edge
    for side in (0, 1):
        eps_adjacent = sizes.eps_element[mesh.edge_tris[interior, side]]
        assert (sizes.eps_edge[interior] >= eps_adjacent - 1e-15).all()


def test_weighted_sizes_interface_edge_takes_max_eps():
    mesh = tag_regions(build_structured_unit_square(4),
                       lambda c: 1 if c[0] < 0.5 else 2)
    coeffs = CoefficientField(eps={1: 1e4, 2: 1.0}, kappa=1.0)
    sizes = weighted_sizes(mesh, coeffs)
    on_gamma = [e for e in range(mesh.num_edges)
                if not mesh.is_boundary_edge[e]
                and np.allclose(mesh.vertices[mesh.edges[e]][:, 0], 0.5)]
    assert np.allclose(sizes.eps_edge[on_gamma], 1e4)


# -- residuals ----------------------------------------------------------


def test_residuals_vanish_for_zero_data():
    mesh = build_structured_unit_square(2)
    problem = zero_field_problem()
    sol = zero_solution(mesh)
    for t in range(mesh.num_triangles):
        r1, r2 = element_residuals(sol, problem, t)
        assert r1 == 0.0 and r2 == 0.0


def test_r1_for_linear_source():
    # f = (x1, x2) has div f = 2, and the discrete field is divergence
    # free, so ||R1||_T = 2 sqrt(|T|) on every element
    mesh = build_structured_unit_square(4)
    linear = ManufacturedProblem(
        coefficients=CoefficientField(eps={1: 1.0}, kappa=1.0),
        u=None, curl_u=None,
        f=lambda x: np.asarray(x, dtype=float),
        div_f=lambda x: np.full(np.asarray(x).shape[:-1], 2.0),
        tag="linear")
    sol = zero_solution(mesh)
    for t in (0, 9, 31):
        r1, _ = element_residuals(sol, problem := linear, tri_id=t)
        assert r1 == pytest.approx(2.0 * np.sqrt(mesh.areas[t]), rel=1e-13)


def test_r1_matches_analytic_norm_for_smooth_source():
    mesh = build_structured_unit_square(4)
    problem = paper_problem(0.5, 4.0)
    sol = zero_solution(mesh)
    # high-degree quadrature of the analytic residual as oracle
    from curladapt.quadrature import triangle_rule
    quad = triangle_rule(10)
    for t in (0, 17):
        points = np.einsum("qi,ie->qe", quad.points, mesh.vertices[mesh.triangles[t]])
        oracle = np.sqrt(mesh.areas[t]
                         * (quad.weights * problem.div_f(points) ** 2).sum())
        r1, _ = element_residuals(sol, problem, t)
        # degree-6 vs degree-10 rules differ only by quadrature consistency
        assert r1 == pytest.approx(oracle, rel=1e-5)


def test_r2_reduces_to_source_norm_for_zero_solution():
    mesh = build_structured_unit_square(4)
    problem = paper_problem(1.0, 2.0)
    sol = zero_solution(mesh)
    from curladapt.quadrature import triangle_rule
    quad = triangle_rule(10)
    for t in (1, 6):
        points = np.einsum("qi,ie->qe", quad.points, mesh.vertices[mesh.triangles[t]])
        f_vals = problem.f(points)
        oracle = np.sqrt(mesh.areas[t]
                         * (quad.weights * (f_vals ** 2).sum(-1)).sum())
        _, r2 = element_residuals(sol, problem, t)
        assert r2 == pytest.approx(oracle, rel=1e-5)


def test_residuals_require_div_f():
    mesh = build_structured_unit_square(2)
    problem = zero_field_problem()
    broken = ManufacturedProblem(coefficients=problem.coefficients, u=problem.u,
                                 curl_u=problem.curl_u, f=problem.f, div_f=None,
                                 tag="no-divf")
    with pytest.raises(ValueError):
        element_residuals(zero_solution(mesh), broken, 0)


# -- jumps --------------------------------------------------------------


def test_jumps_vanish_for_zero_solution_continuous_source():
    mesh = build_structured_unit_square(2)
    problem = paper_problem(1.0, 1.0)
    sol = zero_solution(mesh)
    for e in np.nonzero(~mesh.is_boundary_edge)[0]:
        j1, j2 = edge_jumps(sol, problem, int(e))
        assert j1 == pytest.approx(0.0, abs=1e-13)
        assert j2 == 0.0


def test_jump_rejects_boundary_edge():
    mesh = build_structured_unit_square(2)
    problem = paper_problem(1.0, 1.0)
    boundary = int(np.nonzero(mesh.is_boundary_edge)[0][0])
    with pytest.raises(ValueError):
        edge_jumps(zero_solution(mesh), problem, boundary)


def test_j2_constant_jump_integral():
    # on the two-triangle square the single free dof gives opposite
    # elementwise curls cderiving ||J2||^2 = (eps+ c+ - eps- c-)^2 * h
    mesh = build_structured_unit_square(1)
    problem = paper_problem(1.0, 1.0)
    dofmap = DofMap(mesh)
    assert dofmap.n_free == 1
    sol = DiscreteSolution(mesh, dofmap, np.array([0.75]))
    diagonal = int(np.nonzero(~mesh.is_boundary_edge)[0][0])
    t_plus, t_minus = mesh.edge_tris[diagonal]
    c_plus = curl_uh(sol, int(t_plus))
    c_minus = curl_uh(sol, int(t_minus))
    assert c_plus == pytest.approx(-c_minus)
    assert abs(c_plus) == pytest.approx(1.5)  # 0.75 / |T| with |T| = 1/2
    _, j2 = edge_jumps(sol, problem, diagonal)
    expected_sq = (c_plus - c_minus) ** 2 * np.sqrt(2.0)
    assert j2 ** 2 == pytest.approx(expected_sq, rel=1e-13)


def test_j1_against_two_sided_evaluation_oracle():
    mesh = build_structured_unit_square(4)
    problem = paper_problem(0.1, 10.0)
    sol = solve(mesh, problem.coefficients, problem.f)
    pts, wts = edge_rule(4)
    kappa = problem.coefficients.kappa
    for e in np.nonzero(~mesh.is_boundary_edge)[0][::7]:
        e = int(e)
        a, b = mesh.edges[e]
        n = mesh.edge_normals[e]
        t_plus, t_minus = (int(t) for t in mesh.edge_tris[e])
        samples = []
        for s in pts:
            x = mesh.vertices[a] + s * (mesh.vertices[b] - mesh.vertices[a])
            f_val = problem.f(x)
            jump = ((f_val - kappa * eval_uh(sol, t_plus, x))
                    - (f_val - kappa * eval_uh(sol, t_minus, x)))
            samples.append(jump @ n)
        oracle = np.sqrt(mesh.edge_lengths[e] * (wts * np.array(samples) ** 2).sum())
        j1, _ = edge_jumps(sol, problem, e)
        assert j1 == pytest.approx(oracle, abs=1e-12 * max(1.0, oracle))
    _assert_edge_oscillation_matches_oracle(sol, problem,
                                            np.nonzero(~mesh.is_boundary_edge)[0][::7])

    # eps contrast 1e4 across the interface of a bisected two-region mesh
    problem = interface_problem(1e4, 1.0, 1.0)
    mesh = tag_regions(build_structured_unit_square(4), problem.classifier)
    mesh = bisect_refine(mesh, {0, 5, 17, 30})
    mesh = bisect_refine(mesh, set(range(0, mesh.num_triangles, 3)))
    sol = solve(mesh, problem.coefficients, problem.f, rel_tol=1e-6)
    interior = np.nonzero(~mesh.is_boundary_edge)[0]
    for e in interior:
        samples = _j1_oracle_samples(sol, problem, int(e))
        oracle = np.sqrt(mesh.edge_lengths[e] * (wts * samples ** 2).sum())
        j1, _ = edge_jumps(sol, problem, int(e))
        assert j1 == pytest.approx(oracle, abs=1e-12 * max(1.0, oracle))
    _assert_edge_oscillation_matches_oracle(sol, problem, interior)


def _j1_oracle_samples(sol, problem, e):
    """[[f - kappa u_h]] . n at the edge_rule(4) points of edge e, each side
    evaluated pointwise on its own element."""
    mesh = sol.mesh
    kappa = problem.coefficients.kappa
    a, b = mesh.edges[e]
    t_plus, t_minus = (int(t) for t in mesh.edge_tris[e])
    samples = []
    for s in edge_rule(4)[0]:
        x = mesh.vertices[a] + s * (mesh.vertices[b] - mesh.vertices[a])
        f_val = problem.f(x)
        jump = ((f_val - kappa * eval_uh(sol, t_plus, x))
                - (f_val - kappa * eval_uh(sol, t_minus, x)))
        samples.append(jump @ mesh.edge_normals[e])
    return np.array(samples)


def _assert_edge_oscillation_matches_oracle(sol, problem, edges):
    # the J1 oscillation is the weighted squared distance of the oracle
    # samples from their edge mean
    mesh = sol.mesh
    wts = edge_rule(4)[1]
    edge_size = weighted_sizes(mesh, problem.coefficients).edge_size
    edge_part1 = oscillations(sol, problem).edge_part1
    for e in edges:
        samples = _j1_oracle_samples(sol, problem, int(e))
        mean = wts @ samples
        oracle = edge_size[e] * mesh.edge_lengths[e] * (wts * (samples - mean) ** 2).sum()
        assert abs(edge_part1[e] - oracle) <= 1e-12 * edge_part1.max()


def test_indicator_evaluates_f_once():
    # f enters the estimators at element points only: J1 reads no f
    mesh = build_structured_unit_square(4)
    problem = paper_problem(0.1, 10.0)
    sol = solve(mesh, problem.coefficients, problem.f)
    calls = []

    def counted_f(x):
        calls.append(np.shape(x))
        return problem.f(x)

    indicator(sol, dataclasses.replace(problem, f=counted_f))
    assert len(calls) == 1


def test_every_reader_shares_one_build_of_the_vertex_vectors(monkeypatch):
    mesh = build_structured_unit_square(4)
    problem = paper_problem(0.1, 10.0)
    sol = solve(mesh, problem.coefficients, problem.f)
    calls = []
    build = edge_fem._vertex_vectors

    def counted(*args):
        calls.append(1)
        return build(*args)

    monkeypatch.setattr(edge_fem, "_vertex_vectors", counted)
    indicator(sol, problem).as_kind(EstimatorKind.CLASSICAL)
    oscillations(sol, problem)
    energy_error(sol, problem.coefficients, problem.u, problem.curl_u)
    eval_uh(sol, 3, mesh.centroids[3])
    curl_uh(sol, 3)
    assert len(calls) == 1


def test_edge_jumps_do_not_need_div_f():
    # the jumps never read div f, so a problem without it still has them
    mesh = build_structured_unit_square(4)
    problem = paper_problem(0.1, 10.0)
    sol = solve(mesh, problem.coefficients, problem.f)
    no_div_f = ManufacturedProblem(coefficients=problem.coefficients, u=problem.u,
                                   curl_u=problem.curl_u, f=problem.f, div_f=None,
                                   tag="no-divf")
    for e in np.nonzero(~mesh.is_boundary_edge)[0][::9]:
        assert edge_jumps(sol, no_div_f, int(e)) == edge_jumps(sol, problem, int(e))


# -- indicators ---------------------------------------------------------


def test_indicator_zero_for_zero_source():
    mesh = build_structured_unit_square(2)
    problem = zero_field_problem()
    sol = solve(mesh, problem.coefficients, problem.f)
    for kind in EstimatorKind:
        breakdown = indicator(sol, problem, kind)
        assert breakdown.global_estimate == 0.0


def test_indicator_positive_iff_source_nonzero():
    mesh = build_structured_unit_square(2)
    problem = paper_problem(1.0, 1.0)
    sol = solve(mesh, problem.coefficients, problem.f)
    breakdown = indicator(sol, problem, EstimatorKind.ROBUST)
    assert breakdown.global_estimate > 0.1


def test_indicator_parts_nonnegative_and_sum_exact():
    mesh = build_structured_unit_square(4)
    problem = paper_problem(0.1, 10.0)
    sol = solve(mesh, problem.coefficients, problem.f)
    for kind in EstimatorKind:
        b = indicator(sol, problem, kind)
        for part in (b.r1, b.r2, b.j1, b.j2):
            assert (part >= 0).all()
        assert np.array_equal(b.total, b.r1 + b.r2 + b.j1 + b.j2)


def test_indicator_reference_values_32_elements():
    mesh = build_structured_unit_square(4)
    problem = paper_problem(0.1, 10.0)
    sol = solve(mesh, problem.coefficients, problem.f)
    eta = indicator(sol, problem, EstimatorKind.ROBUST).global_estimate
    eta_tilde = indicator(sol, problem, EstimatorKind.CLASSICAL).global_estimate
    assert eta == pytest.approx(3.72, rel=0.10)
    assert eta_tilde == pytest.approx(3.94, rel=0.10)


def test_indicator_extreme_column_32_elements():
    mesh = build_structured_unit_square(4)
    problem = paper_problem(1e-5, 1e5)
    sol = solve(mesh, problem.coefficients, problem.f)
    eta = indicator(sol, problem, EstimatorKind.ROBUST).global_estimate
    eta_tilde = indicator(sol, problem, EstimatorKind.CLASSICAL).global_estimate
    assert eta == pytest.approx(3.72e2, rel=0.10)
    assert eta_tilde == pytest.approx(1.46e6, rel=0.10)


def test_edge_terms_credited_to_both_neighbours():
    mesh = build_structured_unit_square(1)
    problem = paper_problem(1.0, 1.0)
    sol = solve(mesh, problem.coefficients, problem.f)
    breakdown = indicator(sol, problem, EstimatorKind.ROBUST)
    diagonal = int(np.nonzero(~mesh.is_boundary_edge)[0][0])
    j1, j2 = edge_jumps(sol, problem, diagonal)
    sizes = weighted_sizes(mesh, problem.coefficients)
    expected_j2 = sizes.hbar_edge[diagonal] / np.sqrt(sizes.eps_edge[diagonal]) * j2 ** 2
    assert breakdown.j2 == pytest.approx([expected_j2, expected_j2], rel=1e-13)


def test_estimators_coincide_in_constant_eps_small_mesh_regime():
    # with eps = kappa = 1 on the coarse meshes all capped sizes take the
    # size branch and the two weight families agree term by term
    mesh = build_structured_unit_square(4)
    problem = paper_problem(1.0, 1.0)
    for _ in range(2):
        sol = solve(mesh, problem.coefficients, problem.f)
        robust = indicator(sol, problem, EstimatorKind.ROBUST)
        classical = indicator(sol, problem, EstimatorKind.CLASSICAL)
        scale = np.maximum(robust.total, 1e-300)
        rel = np.abs(robust.total - classical.total) / scale
        assert rel.max() <= 1e-14
        mesh = red_refine(mesh)


def test_estimators_differ_when_kappa_branch_active():
    mesh = build_structured_unit_square(4)
    problem = paper_problem(1.0, 1e4)  # 1/sqrt(kappa) = 0.01 < element sizes
    sol = solve(mesh, problem.coefficients, problem.f)
    robust = indicator(sol, problem, EstimatorKind.ROBUST).global_estimate
    classical = indicator(sol, problem, EstimatorKind.CLASSICAL).global_estimate
    assert classical > 2.0 * robust


def test_as_kind_matches_a_fresh_call():
    mesh = tag_regions(build_structured_unit_square(4),
                       lambda c: 1 if c[0] < 0.5 else 2)
    problem = interface_problem(1e4, 1.0, 1e4)
    sol = solve(mesh, problem.coefficients, problem.f, rel_tol=1e-6)
    fresh = {kind: indicator(sol, problem, kind) for kind in EstimatorKind}
    assert not np.array_equal(fresh[EstimatorKind.ROBUST].total,
                              fresh[EstimatorKind.CLASSICAL].total)
    for kind, other in ((EstimatorKind.ROBUST, EstimatorKind.CLASSICAL),
                        (EstimatorKind.CLASSICAL, EstimatorKind.ROBUST)):
        converted = fresh[kind].as_kind(other)
        assert converted.kind is other
        for part in ("r1", "r2", "j1", "j2"):
            assert np.array_equal(getattr(converted, part), getattr(fresh[other], part))


# -- oscillations -------------------------------------------------------


def test_oscillations_zero_for_zero_source():
    mesh = build_structured_unit_square(2)
    problem = zero_field_problem()
    sol = solve(mesh, problem.coefficients, problem.f)
    osc = oscillations(sol, problem)
    assert osc.osc1 == 0.0 and osc.osc2 == 0.0


def test_oscillation_element_part_zero_for_constant_residual():
    # div f constant: the piecewise constant projection reproduces R1
    mesh = build_structured_unit_square(2)
    linear = ManufacturedProblem(
        coefficients=CoefficientField(eps={1: 1.0}, kappa=1.0),
        u=None, curl_u=None,
        f=lambda x: np.asarray(x, dtype=float),
        div_f=lambda x: np.full(np.asarray(x).shape[:-1], 2.0),
        tag="linear")
    sol = zero_solution(mesh)
    osc = oscillations(sol, linear)
    assert np.abs(osc.element_part1).max() <= 1e-26


def test_oscillations_superconverge():
    # data oscillation drops one order faster than the estimate itself
    problem = paper_problem(0.1, 10.0)
    mesh = build_structured_unit_square(4)
    values = []
    for _ in range(3):
        sol = solve(mesh, problem.coefficients, problem.f)
        osc = oscillations(sol, problem)
        values.append(osc.osc1 + osc.osc2)
        mesh = red_refine(mesh)
    rates = [values[i] / values[i + 1] for i in range(2)]
    assert min(rates) > 2.0 ** 1.8  # observed order beyond 1.8 per halving
