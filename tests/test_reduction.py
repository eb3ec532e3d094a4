"""The problem reduced on each element (``edge_fem``): the load, the energy
error, the norms of R1 and R2 and the element parts of the oscillations
read only per-element projections, and their closed forms equal the
quadrature at the points (``reference``), as sums of parts that are never
negative."""

import dataclasses
import functools

import numpy as np
import pytest

from curladapt import edge_fem
from curladapt import mesh as mesh_module
from curladapt.amr import adaptive_solve
from curladapt.edge_fem import (_Reduced, _linear_norms_sq, _mesh_sample, _projection,
                                _reduce_blocks, _reduced, energy_error, error_points, solve)
from curladapt.estimators import element_residuals, indicator, oscillations
from curladapt.mesh import (OMEGA1, OMEGA2, bisect_refine, build_structured_unit_square,
                            red_refine, tag_regions)
from curladapt.problems import (CoefficientField, ManufacturedProblem, interface_problem,
                                verify_consistency)
from reference import (bisected_two_region_mesh, point_energy_error, point_oscillation_parts,
                       point_residual_norms, random_field)


def two_phase_curl_problem(eps1, eps2, kappa, split=0.5):
    """u = (0, phi(x1) / eps(x1) sin(pi x2)) with phi = x (x - split) (x - 1)
    and eps jumping at x1 = split: eps curl u = phi' sin(pi x2) and u2 are
    continuous across the interface, curl u is not zero, and f = (pi phi'
    cos(pi x2), -phi'' sin(pi x2)) + kappa u is not kappa u; div f = kappa
    pi phi / eps cos(pi x2).  Plain callables, sampled one by one."""
    pi = np.pi

    def eps(x):
        return np.where(x < split, eps1, eps2)

    def phi(x):
        return x * (x - split) * (x - 1)

    def dphi(x):
        return 3 * x ** 2 - 2 * (1 + split) * x + split

    def ddphi(x):
        return 6 * x - 2 * (1 + split)

    def u(p):
        x, y = p[..., 0], p[..., 1]
        return np.stack([np.zeros(x.shape), phi(x) / eps(x) * np.sin(pi * y)], axis=-1)

    def curl_u(p):
        x, y = p[..., 0], p[..., 1]
        return dphi(x) / eps(x) * np.sin(pi * y)

    def f(p):
        x, y = p[..., 0], p[..., 1]
        return np.stack([pi * dphi(x) * np.cos(pi * y), -ddphi(x) * np.sin(pi * y)],
                        axis=-1) + kappa * u(p)

    def div_f(p):
        x, y = p[..., 0], p[..., 1]
        return kappa * pi * phi(x) / eps(x) * np.cos(pi * y)

    return ManufacturedProblem(
        coefficients=CoefficientField(eps={OMEGA1: eps1, OMEGA2: eps2}, kappa=kappa),
        u=u, curl_u=curl_u, f=f, div_f=div_f, tag="two-phase-curl",
        classifier=lambda p: np.where(p[..., 0] < split, OMEGA1, OMEGA2))


def linear_problem(kappa):
    """A linear u with f = kappa u: its projections are exact."""
    matrix, offset = np.array([[2.0, -1.0], [0.5, 3.0]]), np.array([1.0, -2.0])

    def u(p):
        return p @ matrix.T + offset

    return ManufacturedProblem(
        coefficients=CoefficientField(eps={OMEGA1: 1.0, OMEGA2: 1e-2}, kappa=kappa),
        u=u, curl_u=lambda p: np.full(p.shape[:-1], matrix[1, 0] - matrix[0, 1]),
        f=lambda p: kappa * u(p), div_f=lambda p: np.full(p.shape[:-1], kappa * np.trace(matrix)),
        tag="linear", classifier=lambda p: np.where(p[..., 0] < 0.5, OMEGA1, OMEGA2))


PROBLEMS = {"trig": interface_problem(1e2, 1.0, 3.0),
            "plain-callables": two_phase_curl_problem(1e2, 1.0, 3.0)}


def test_the_plain_callable_problem_solves_its_equation():
    problem = PROBLEMS["plain-callables"]
    report = verify_consistency(problem)
    assert report.passed, str(report)
    sample = problem.sample(error_points(build_structured_unit_square(4)))
    assert np.abs(sample.curl_u).max() > 0.01
    assert np.abs(sample.f - problem.coefficients.kappa * sample.u).max() > 0.1


@pytest.fixture(scope="module", params=sorted(PROBLEMS))
def case(request):
    problem = PROBLEMS[request.param]
    mesh = bisected_two_region_mesh(problem)
    return problem, mesh, problem.sample(error_points(mesh)), _mesh_sample(problem, mesh)


def assert_close(actual, expected):
    # rel 1e-12 of each element or of the largest one: where an element's
    # part is 1e-11 of the largest, both sides lose digits to cancellation
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert np.abs(actual - expected).max() <= 1e-12 * np.abs(expected).max()
    assert actual.sum() == pytest.approx(expected.sum(), rel=1e-12)


@pytest.mark.parametrize("field", ["solved", "random"])
def test_reduced_path_matches_the_point_quadrature(case, field):
    problem, mesh, points_sample, driver_sample = case
    coeffs = problem.coefficients
    if field == "solved":
        solution = solve(mesh, coeffs, driver_sample, rel_tol=1e-8)
    else:
        solution = random_field(mesh, 3)
    expected = point_energy_error(solution, coeffs, points_sample.u, points_sample.curl_u)
    for sample in (points_sample, driver_sample):
        assert energy_error(solution, coeffs, sample.u, sample.curl_u) == pytest.approx(
            expected, rel=1e-12)

    r1, r2 = point_residual_norms(solution, coeffs.kappa, points_sample)
    for sample in (points_sample, driver_sample):
        norms = indicator(solution, problem, sample=sample).norms
        assert_close(norms.r1, r1)
        assert_close(norms.r2, r2)
    for t in (0, 77, mesh.num_triangles - 1):
        assert element_residuals(solution, problem, t) == pytest.approx(
            (np.sqrt(r1[t]), np.sqrt(r2[t])), rel=1e-12)

    osc = oscillations(solution, problem)
    part1, part2 = point_oscillation_parts(solution, problem, points_sample)
    assert_close(osc.element_part1, part1)
    assert_close(osc.element_part2, part2)


def test_a_linear_field_leaves_no_remainder_and_no_part_is_negative():
    kappa = 1e3
    problem = linear_problem(kappa)
    mesh = bisected_two_region_mesh(problem)
    sample = _mesh_sample(problem, mesh)
    areas = mesh.areas
    assert ((0 <= sample.u.rem) & (sample.u.rem <= 1e-28 * areas)).all()
    assert ((0 <= sample.f.rem) & (sample.f.rem <= 1e-28 * kappa ** 2 * areas)).all()
    for solution in (random_field(mesh, 4), solve(mesh, problem.coefficients, sample)):
        # the parts of the energy error, in the order energy_error sums them
        d = _projection(sample.u.y, areas) - solution.vertex_vectors
        parts = [sample.u.rem, _linear_norms_sq(d, areas), sample.curl_u.rem,
                 areas * (sample.curl_u.mean - solution.curls) ** 2]
        norms = indicator(solution, problem, sample=sample).norms
        osc = oscillations(solution, problem)
        parts += [norms.r1, norms.r2, osc.element_part1, osc.element_part2]
        assert all((part >= 0).all() for part in parts)


@pytest.mark.parametrize("name, floats", [("trig", 9), ("plain-callables", 18)])
def test_the_drivers_sample_keeps_a_few_floats_per_triangle(name, floats):
    problem = PROBLEMS[name]
    mesh = build_structured_unit_square(4)
    sample = _mesh_sample(problem, mesh)
    # the distinct memory its arrays hold: the u of a trig problem shares
    # f's arrays, and its zero curl u holds one float in all
    held = {}
    for part in sample:
        for a in part[:2]:
            while a.base is not None:
                a = a.base
            held[id(a)] = a.nbytes
    assert sum(held.values()) // (8 * mesh.num_triangles) == floats


@pytest.mark.parametrize("replace", [lambda p: dataclasses.replace(p, u=functools.partial(p.u)),
                                     lambda p: dataclasses.replace(p, f=lambda x: 2 * p.f(x))],
                         ids=["u", "f"])
def test_a_trig_problem_with_a_field_replaced_reduces_u_from_its_values(replace):
    trig = PROBLEMS["trig"]
    mesh = build_structured_unit_square(4)
    sample = _mesh_sample(trig, mesh)
    assert np.shares_memory(sample.u.y, sample.f.y)
    problem = replace(trig)
    assert problem._trig_field() is None
    sample = _mesh_sample(problem, mesh)
    expected = _reduced(mesh, problem.sample(error_points(mesh)), ("u", "curl_u")).u
    assert sample.u.scale == 1.0
    assert all(x.tobytes() == y.tobytes() for x, y in zip(sample.u[:2], expected[:2]))
    assert not any(np.shares_memory(a, b) for a in sample.u[:2] for b in sample.f[:2])


def test_a_reduced_sample_of_another_mesh_is_refused():
    # unchecked, the load would read the first T rows of a finer mesh's
    # sample, and the estimator and the energy error broadcast a
    # one-triangle one
    problem = PROBLEMS["trig"]
    mesh = tag_regions(build_structured_unit_square(4), problem.classifier)
    sample = _mesh_sample(problem, mesh)
    solution = solve(mesh, problem.coefficients, sample, rel_tol=1e-8)
    for other in (bisect_refine(mesh, {0}), tag_regions(build_structured_unit_square(1),
                                                       problem.classifier)):
        wrong = _mesh_sample(problem, other)
        with pytest.raises(ValueError, match="the sample must be of this mesh"):
            solve(mesh, problem.coefficients, wrong)
        with pytest.raises(ValueError, match="the sample must be of this mesh"):
            indicator(solution, problem, sample=wrong)
        with pytest.raises(ValueError, match="the sample must be of this mesh"):
            energy_error(solution, problem.coefficients, wrong.u, wrong.curl_u)
        with pytest.raises(ValueError, match="the sample must be of this mesh"):
            energy_error(solution, problem.coefficients, sample.u, wrong.curl_u)
    # the values of one field and the reduction of the other are refused
    values = problem.sample(error_points(mesh))
    with pytest.raises(ValueError, match="u and curl u must both"):
        energy_error(solution, problem.coefficients, sample.u, values.curl_u)
    with pytest.raises(ValueError, match="u and curl u must both"):
        energy_error(solution, problem.coefficients, values.u, sample.curl_u)


def bisected_red_level(mesh):
    """``mesh`` bisected at every fifth triangle, and the ids of the
    triangles it does not keep, scattered over the bisected mesh."""
    fine = bisect_refine(mesh, set(range(0, mesh.num_triangles, 5)))
    return fine, np.flatnonzero(np.bincount(fine.parent_ids)[fine.parent_ids] != 1)


ROW_SETS = {"range": lambda mesh: (mesh, np.arange(2048, 6144)),
            "unaligned-range": lambda mesh: (mesh, np.arange(2049, 6142)),
            "scattered": bisected_red_level}


@pytest.mark.parametrize("rows, block", [("range", None), ("range", 4),
                                         ("unaligned-range", None), ("scattered", None)],
                         ids=["default", "4", "unaligned-range", "scattered"])
@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_a_row_range_reduces_to_the_same_rows_of_the_whole_mesh(monkeypatch, name, rows,
                                                                 block):
    # the one reducer over a set of rows of the 32,768-triangle red level,
    # or of its bisection, alone gives those rows of the drivers'
    # whole-mesh sample, byte for byte, wherever the set starts: every
    # reduction is row-local
    problem = PROBLEMS[name]
    mesh = tag_regions(build_structured_unit_square(4), problem.classifier)
    for _ in range(5):
        mesh = red_refine(mesh)
    assert mesh.num_triangles == 32_768
    mesh, tris = ROW_SETS[rows](mesh)
    if block is not None:
        monkeypatch.setattr(mesh_module, "_BLOCK", block)
    whole = _mesh_sample(problem, mesh)
    # the fields _mesh_sample reduces: a trig problem's u is f / kappa
    fields = ("f", "div_f") if problem._trig_field() else _Reduced._fields
    part = _reduce_blocks(mesh.areas[tris],
                          lambda rows: problem.sample(error_points(mesh, tris[rows])), fields)
    for field in fields:
        for got, full in zip(getattr(part, field)[:2], getattr(whole, field)[:2]):
            assert got.dtype == full.dtype and got.tobytes() == full[tris].tobytes(), field


def assert_same_bytes(actual, expected):
    """Two reduced samples hold the same fields, arrays of the same dtype
    and bytes, and scales."""
    assert [part is None for part in actual] == [part is None for part in expected]
    for got, want in zip(filter(None, actual), filter(None, expected)):
        assert type(got) is type(want)
        for a, b in zip(got, want):
            if isinstance(b, np.ndarray):
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
            else:
                assert a == b


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_the_carried_sample_is_the_fresh_sample_byte_for_byte(name):
    # the seeded bisection chain of the mesh tests, on the tagged 4x4
    # square until it spans more than two blocks: each sample carried from
    # the last one is the sample the mesh takes afresh
    problem = PROBLEMS[name]
    rng = np.random.default_rng(7)
    mesh = tag_regions(build_structured_unit_square(4), problem.classifier)
    sample = _mesh_sample(problem, mesh)
    while mesh.num_triangles <= 2 * mesh_module._BLOCK:
        marked = rng.choice(mesh.num_triangles, size=max(1, mesh.num_triangles // 4),
                            replace=False)
        mesh = bisect_refine(mesh, set(marked))
        sample = _mesh_sample(problem, mesh, sample)
        assert_same_bytes(sample, _mesh_sample(problem, mesh))


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_the_adaptive_driver_carries_the_fresh_sample(monkeypatch, name):
    problem = PROBLEMS[name]
    carried = []
    sample_of = _mesh_sample

    def spy(problem, mesh, previous=None):
        carried.append((mesh, previous is not None, sample_of(problem, mesh, previous)))
        return carried[-1][2]

    monkeypatch.setattr(edge_fem, "_mesh_sample", spy)
    adaptive_solve(problem, max_dofs=3000)
    assert [was_carried for _, was_carried, _ in carried] == [False] + [True] * (len(carried) - 1)
    assert len(carried) >= 5
    for mesh, _, sample in carried:
        assert_same_bytes(sample, sample_of(problem, mesh))


def test_a_previous_sample_of_another_mesh_is_refused():
    problem = PROBLEMS["plain-callables"]
    mesh = tag_regions(build_structured_unit_square(4), problem.classifier)
    sample = _mesh_sample(problem, mesh)
    fine = bisect_refine(mesh, {0, 7})
    for wrong in (_mesh_sample(problem, fine), sample._replace(div_f=None)):
        with pytest.raises(ValueError, match="the previous sample must hold u, curl_u, f, div_f"):
            _mesh_sample(problem, fine, wrong)
    # a mesh that refines no other has no parent to carry a row from
    with pytest.raises(ValueError, match="the previous sample must hold"):
        _mesh_sample(problem, mesh, sample)
    # a trig problem reduces f and div f, and carries those two
    trig = PROBLEMS["trig"]
    trig_sample = _mesh_sample(trig, mesh)
    assert_same_bytes(_mesh_sample(trig, fine, trig_sample._replace(u=None, curl_u=None)),
                      _mesh_sample(trig, fine))
    with pytest.raises(ValueError, match="the previous sample must hold f, div_f"):
        _mesh_sample(trig, fine, trig_sample._replace(f=None))
