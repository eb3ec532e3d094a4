import dataclasses

import numpy as np
import pytest

from curladapt import edge_fem
from curladapt.amr import adaptive_solve
from curladapt.edge_fem import assemble_system, energy_error, error_points, solve
from curladapt.estimators import edge_jumps
from curladapt.mesh import OMEGA1, OMEGA2, build_structured_unit_square, red_refine, tag_regions
from curladapt.problems import (CoefficientField, ManufacturedProblem,
                                check_interface_alignment, interface_problem,
                                paper_problem, verify_consistency)
from reference import checkerboard, horizontal_split


def test_curl_is_zero_at_random_points():
    problem = paper_problem(1.0, 1.0)
    rng = np.random.default_rng(0)
    points = rng.random((100, 2))
    assert np.abs(problem.curl_u(points)).max() <= 1e-14


def test_boundary_tangential_trace():
    problem = paper_problem(1.0, 1.0)
    u = problem.u(np.array([0.0, 0.5]))
    assert u == pytest.approx([1.0, 0.0], abs=1e-15)  # tangential part along x2 is u2
    rng = np.random.default_rng(1)
    s = rng.random(200)
    for side, tangent in [
        (np.stack([s, np.zeros_like(s)], 1), np.array([1.0, 0.0])),
        (np.stack([s, np.ones_like(s)], 1), np.array([1.0, 0.0])),
        (np.stack([np.zeros_like(s), s], 1), np.array([0.0, 1.0])),
        (np.stack([np.ones_like(s), s], 1), np.array([0.0, 1.0])),
    ]:
        trace = problem.u(side) @ tangent
        assert np.abs(trace).max() <= 1e-14


def test_source_at_symmetry_point():
    problem = paper_problem(2.0, 7.0)
    assert problem.f(np.array([0.5, 0.5])) == pytest.approx([0.0, 0.0], abs=1e-14)


def test_div_f_formula():
    problem = paper_problem(1.0, 3.0)
    x = np.array([0.3, 0.7])
    expected = -2 * 3.0 * np.pi * np.sin(np.pi * 0.3) * np.sin(np.pi * 0.7)
    assert problem.div_f(x) == pytest.approx(expected, rel=1e-14)


def test_coefficient_field_validation():
    with pytest.raises(ValueError):
        CoefficientField(eps={1: 1.0}, kappa=0.0)
    with pytest.raises(ValueError):
        CoefficientField(eps={1: -1.0}, kappa=1.0)
    with pytest.raises(ValueError):
        CoefficientField(eps={1: 1.0, 2: 10.0}, kappa=1.0)  # eps1 < eps2
    for eps, kappa in [(np.nan, 1.0), (np.inf, 1.0), (1.0, np.nan), (1.0, np.inf)]:
        with pytest.raises(ValueError):
            CoefficientField(eps={1: eps}, kappa=kappa)
    field = CoefficientField(eps={1: 10.0, 2: 1.0}, kappa=1.0)
    assert field.eps_of(1) == 10.0
    assert field.eps_of(np.int64(2)) == 1.0
    with pytest.raises(ValueError):
        field.eps_of(3)
    # tags are integers: 1.9, True and 2.5 would truncate to regions 1 and 2
    for tag in (1.9, True, 2.5, np.float64(1.0)):
        with pytest.raises(ValueError, match="region tag must be an integer"):
            field.eps_of(tag)
    for region in (1.5, True):
        with pytest.raises(ValueError, match="region tag must be an integer"):
            CoefficientField(eps={region: 1.0}, kappa=1.0)
    with pytest.raises(ValueError, match="at least one region"):
        CoefficientField(eps={}, kappa=1.0)


def test_eps_by_region_is_the_per_tag_lookup():
    field = CoefficientField(eps={7: 3, 1: 10.0, 2: 0.1, -4: 1e-5}, kappa=1.0)
    regions = np.random.default_rng(2).choice([-4, 1, 2, 7], size=500)
    eps = field.eps_by_region(regions)
    assert eps.dtype == float
    assert np.array_equal(eps, [field.eps_of(tag) for tag in regions])
    empty = field.eps_by_region(np.array([], dtype=np.int64))
    assert empty.shape == (0,) and empty.dtype == float
    # the smallest missing tag is named, whether below, between or above the keys
    for regions, missing in (([-5, 1], -5), ([2, 3, 0, 99], 0), ([8, 7], 8)):
        with pytest.raises(ValueError, match=f"no eps value for region tag {missing}$"):
            field.eps_by_region(np.array(regions))
    with pytest.raises(ValueError, match="region tags must be integers"):
        field.eps_by_region(np.array([1.0, 2.0]))
    # both lookups read the dict as it is now
    field.eps[2] = 0.5
    assert field.eps_by_region(np.array([2]))[0] == field.eps_of(2) == 0.5


def test_paper_problem_rejects_bad_parameters():
    with pytest.raises(ValueError):
        paper_problem(0.0, 1.0)
    with pytest.raises(ValueError):
        interface_problem(1.0, 2.0, 1.0)  # eps1 < eps2
    for split in (0.0, 1.0, 2.0, -0.5, np.nan):  # one region would hold every element
        with pytest.raises(ValueError, match="split"):
            interface_problem(2.0, 1.0, 1.0, split)


def test_verify_consistency_passes_for_shipped_problems():
    for problem in (paper_problem(1.0, 1.0), paper_problem(1e-3, 1e3),
                    interface_problem(1e4, 1.0, 1.0)):
        report = verify_consistency(problem)
        assert report.passed, str(report)
        assert str(report).startswith("consistency ok: interior residual ")
        assert report.max_boundary_trace <= 1e-14


def test_verify_consistency_detects_perturbed_source():
    base = paper_problem(1.0, 1.0)
    broken = ManufacturedProblem(
        coefficients=base.coefficients,
        u=base.u, curl_u=base.curl_u,
        f=lambda x: base.f(x) + np.array([1e-3, 0.0]),
        div_f=base.div_f, tag="perturbed")
    report = verify_consistency(broken)
    assert not report.passed
    assert report.max_interior_residual == pytest.approx(1e-3, rel=1e-6)
    # any change to the sampling of the check points moves the worst point
    assert report.worst_point == (0.5488583059261819, 0.5983387433850835)
    assert str(report).startswith("consistency FAILED: interior residual 1.000e-03 at "
                                  "(0.5488583059261819, 0.5983387433850835), boundary trace ")


def test_verify_consistency_refuses_a_classifier_with_no_one_region_stencil():
    # tags alternate every 1e-5 in x1, the finite-difference step: every
    # stencil of the check straddles two regions, so no point can be kept
    def stripes(x):
        return np.where((x[..., 0] // 1e-5) % 2 == 0, OMEGA1, OMEGA2)

    problem = dataclasses.replace(interface_problem(10.0, 1.0, 1.0), classifier=stripes)
    with pytest.raises(RuntimeError, match="could not sample enough interior points"):
        verify_consistency(problem)


def _curl_carrying_problem(sign):
    """u = (0, phi(x1) sin(pi x2)) with phi = x1^2 (1 - x1)^2 and eps = kappa
    = 1: curl u = phi' sin(pi x2), and with curl* w = (dw/dx2, -dw/dx1) the
    source is f = (pi phi' cos(pi x2), -phi'' sin(pi x2)) + u.  ``sign=-1``
    builds f with the opposite curl*."""
    pi = np.pi

    def phi(x):
        return x ** 2 * (1 - x) ** 2

    def dphi(x):
        return 2 * x - 6 * x ** 2 + 4 * x ** 3

    def ddphi(x):
        return 2 - 12 * x + 12 * x ** 2

    def u(p):
        return np.stack([np.zeros(p.shape[:-1]), phi(p[..., 0]) * np.sin(pi * p[..., 1])],
                        axis=-1)

    def curl_u(p):
        return dphi(p[..., 0]) * np.sin(pi * p[..., 1])

    def f(p):
        x, y = p[..., 0], p[..., 1]
        return sign * np.stack([pi * dphi(x) * np.cos(pi * y),
                                -ddphi(x) * np.sin(pi * y)], axis=-1) + u(p)

    def div_f(p):
        return pi * phi(p[..., 0]) * np.cos(pi * p[..., 1])

    return ManufacturedProblem(CoefficientField(eps={1: 1.0}, kappa=1.0), u, curl_u, f,
                               div_f, tag=f"curl-carrying(sign={sign})")


@pytest.mark.parametrize("problem", [paper_problem(1e-3, 1e3),
                                     interface_problem(1e4, 1.0, 2.0),
                                     _curl_carrying_problem(1),
                                     dataclasses.replace(interface_problem(1e4, 1.0, 2.0),
                                                         u=None, curl_u=None)],
                         ids=["paper", "interface", "plain-callables", "without-u"])
@pytest.mark.parametrize("shape", [(2,), (5, 2), (7, 16, 2)])
def test_sample_matches_the_fields_bit_for_bit(problem, shape):
    points = np.random.default_rng(3).random(shape)
    sample = problem.sample(points)
    for name in ("u", "curl_u", "f", "div_f"):
        field = getattr(problem, name)
        if field is None:
            assert getattr(sample, name) is None, name
        else:
            assert np.array_equal(getattr(sample, name), field(points)), name


@pytest.mark.parametrize("missing, message", [({"f": None}, "must provide its source f"),
                                              ({"u": None}, "both u and curl u, or neither"),
                                              ({"curl_u": None}, "both u and curl u, or neither")],
                         ids=["f", "u", "curl_u"])
def test_a_problem_without_f_or_with_half_the_solution_is_refused(missing, message):
    base = paper_problem(1.0, 1.0)
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(base, **missing)
    # a problem without div f, or without the exact solution, is legal
    dataclasses.replace(base, div_f=None)
    dataclasses.replace(base, u=None, curl_u=None)


@pytest.mark.parametrize("shape", [(2,), (5, 2), (7, 16, 2)])
def test_the_classifier_defaults_to_one_region(shape):
    # left out or given as None, it tags every point OMEGA1
    points = np.random.default_rng(4).random(shape)
    for problem in (_curl_carrying_problem(1),
                    dataclasses.replace(interface_problem(1.0, 1.0, 1.0), classifier=None)):
        assert np.array_equal(problem.classifier(points), np.full(shape[:-1], OMEGA1))


def test_sample_calls_plain_callables_once_each():
    base = _curl_carrying_problem(1)
    calls = []

    def counted(name):
        field = getattr(base, name)
        return lambda x: calls.append(name) or field(x)

    problem = ManufacturedProblem(base.coefficients, *(counted(name) for name in
                                                       ("u", "curl_u", "f", "div_f")),
                                  tag="counted")
    problem.sample(np.zeros((3, 2)))
    assert sorted(calls) == ["curl_u", "div_f", "f", "u"]


def test_verify_consistency_uses_the_adjoint_curl():
    # both shipped problems are curl free, so only a field with curl sees
    # the sign of curl*
    right, wrong = _curl_carrying_problem(1), _curl_carrying_problem(-1)
    report = verify_consistency(right)
    assert report.passed, str(report)
    assert not verify_consistency(wrong).passed
    # the FEM solves the equation with this curl*: the error of the right
    # source halves under red refinement, that of the wrong one stalls
    for problem, low, high in ((right, 1.8, 2.2), (wrong, 0.9, 1.1)):
        mesh, errors = build_structured_unit_square(4), []
        for _ in range(4):
            exact = problem.sample(error_points(mesh))
            sol = solve(mesh, problem.coefficients, exact)
            errors.append(energy_error(sol, problem.coefficients, exact))
            mesh = red_refine(mesh)
        ratios = np.array(errors[:-1]) / errors[1:]
        assert ((low < ratios) & (ratios < high)).all(), (problem.tag, errors)


def test_interface_reduces_to_constant_coefficients():
    mesh = build_structured_unit_square(4)
    const = paper_problem(1.0, 2.0)
    iface = interface_problem(1.0, 1.0, 2.0)
    tagged = tag_regions(mesh, iface.classifier)
    a1, b1, _ = assemble_system(mesh, const.coefficients, const.sample(error_points(mesh)))
    a2, b2, _ = assemble_system(tagged, iface.coefficients, iface.sample(error_points(tagged)))
    assert np.array_equal(a1.indptr, a2.indptr)
    assert np.array_equal(a1.indices, a2.indices)
    assert np.array_equal(a1.data, a2.data)
    assert np.array_equal(b1, b2)


def test_interface_source_consistent_for_any_jump():
    # curl u = 0 makes f = kappa * u independent of the eps split
    for ratio in (1.0, 1e2, 1e4):
        problem = interface_problem(ratio, 1.0, 5.0)
        rng = np.random.default_rng(2)
        x = rng.random((50, 2))
        assert np.abs(problem.f(x) - 5.0 * problem.u(x)).max() == 0.0


def disk(x):
    return np.where(((x - 0.5) ** 2).sum(axis=-1) < 0.1, OMEGA1, OMEGA2)


def small_disk(x):
    # reaches no centroid and no corner of the 4x4 mesh
    return np.where(((x - (0.125, 0.0)) ** 2).sum(axis=-1) < 0.05 ** 2, OMEGA2, OMEGA1)


def test_interface_alignment_check():
    # every layout goes through the one check, on the 4x4 mesh whose grid
    # lines lie at multiples of 1/4
    mesh = build_structured_unit_square(4)
    two_phase = interface_problem(2.0, 1.0, 1.0, 0.5)
    for problem in (two_phase, dataclasses.replace(two_phase, classifier=horizontal_split),
                    dataclasses.replace(two_phase, classifier=checkerboard),
                    paper_problem(1.0, 1.0), interface_problem(1e4, 1.0, 1.0, 0.25)):
        check_interface_alignment(mesh, problem)
    for problem, message in [
            (interface_problem(2.0, 1.0, 1.0, 0.3), "not aligned"),
            (dataclasses.replace(two_phase, classifier=disk), "not aligned"),
            # an inclusion no triangle is tagged with would vanish in tag_regions
            (dataclasses.replace(two_phase, classifier=small_disk),
             "eps names region 2, but no triangle"),
            # refused here, not by the first assembly
            (dataclasses.replace(paper_problem(1.0, 1.0), classifier=horizontal_split),
             "no eps value for region tag 2")]:
        with pytest.raises(ValueError, match=message):
            check_interface_alignment(mesh, problem)


def test_adaptive_solve_refuses_an_empty_region_before_any_solve(monkeypatch):
    calls = []
    monkeypatch.setattr(edge_fem, "solve", lambda *args, **kwargs: calls.append(args))
    problem = dataclasses.replace(interface_problem(2.0, 1.0, 1.0), classifier=small_disk)
    with pytest.raises(ValueError, match="region 2"):
        adaptive_solve(problem)
    assert calls == []


def test_interface_curl_jumps_present_on_interface():
    """The eps-weighted curl jump terms on the interface stay of
    comparable size as the contrast grows (the discrete curl adapts to
    the jump); they must remain nonzero so the eps_s weighting is
    actually exercised.  Values frozen from the first verified run."""
    mesh = tag_regions(build_structured_unit_square(4),
                       interface_problem(2.0, 1.0, 1.0).classifier)
    gamma_edges = [e for e in range(mesh.num_edges)
                   if not mesh.is_boundary_edge[e]
                   and np.allclose(mesh.vertices[mesh.edges[e]][:, 0], 0.5)]
    assert len(gamma_edges) == 4
    totals = []
    for ratio in (1.0, 1e2, 1e4):
        problem = interface_problem(ratio, 1.0, 1.0)
        sol = solve(mesh, problem.coefficients, problem.sample(error_points(mesh)), rel_tol=1e-9)
        total = sum(edge_jumps(sol, problem, e)[1] ** 2 for e in gamma_edges)
        totals.append(total)
    assert totals[0] == pytest.approx(2.4558e-05, rel=1e-3)
    assert totals[2] == pytest.approx(2.4512e-05, rel=1e-3)
    ratios = np.array(totals) / totals[0]
    assert (ratios > 0.9).all() and (ratios < 1.1).all()
