import dataclasses
import functools
import hashlib

import numpy as np
import pytest
import scipy.sparse

from curladapt import edge_fem, linalg
from curladapt.edge_fem import (DiscreteSolution, DofMap, Hierarchy, assemble_system,
                                curl_uh, discrete_gradient,
                                element_matrices, energy_error, error_points,
                                eval_uh, prolongate, prolongation, solve, whitney_eval)
from curladapt.estimators import indicator
from curladapt.linalg import CgNonConvergence, Level, cg_solve, hybrid_smoother
from curladapt.mesh import (Mesh, bisect_refine, build_structured_unit_square,
                            red_refine, tag_regions)
from curladapt.problems import (CoefficientField, _Sample, interface_problem,
                                paper_problem)
from curladapt.quadrature import triangle_rule
from reference import edge_rule, from_triplet_arrays, galerkin_residual

REFERENCE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def signed_area(coords):
    u = coords[1] - coords[0]
    v = coords[2] - coords[0]
    return 0.5 * (u[0] * v[1] - u[1] * v[0])


def random_triangle(rng, min_area=0.05):
    while True:
        coords = rng.random((3, 2)) * 2.0
        area = signed_area(coords)
        if area > min_area:
            return coords
        if area < -min_area:
            return coords[[0, 2, 1]]


def zero_solution(mesh):
    dofmap = DofMap(mesh)
    return DiscreteSolution(mesh, dofmap, np.zeros(dofmap.n_free))


def solution_from_edge_values(mesh, edge_values):
    dofmap = DofMap(mesh)
    free = dofmap.edge_dof >= 0
    return DiscreteSolution(mesh, dofmap, np.asarray(edge_values, float)[free])


def basis_values(g, signs, lam):
    """Reference signed basis values (N, Q, 3, 2) from barycentric
    gradients (N, 3, 2), orientation signs (N, 3) and barycentric points
    lam, (Q, 3) shared by all elements or (N, Q, 3) per element:
    ``s_k (lam_i grad(lam_j) - lam_j grad(lam_i))`` for local edge k from
    vertex i to vertex j."""
    if lam.ndim == 2:
        lam = lam[None]
    phi = np.empty((len(g), lam.shape[-2], 3, 2))
    for k, (i, j) in enumerate([(0, 1), (1, 2), (2, 0)]):
        phi[..., k, :] = (lam[..., i, None] * g[:, None, j, :]
                          - lam[..., j, None] * g[:, None, i, :])
    return phi * signs[:, None, :, None]


# -- basis ------------------------------------------------------------


def test_whitney_curls_on_reference_triangle():
    _, curls = whitney_eval(REFERENCE, np.array([1 / 3, 1 / 3, 1 / 3]))
    assert np.abs(curls) == pytest.approx([2.0, 2.0, 2.0])  # = 1/|T|
    assert curls == pytest.approx([2.0, 2.0, 2.0])  # ccw local orientation


def test_whitney_tangential_moment_duality():
    rng = np.random.default_rng(1)
    pts, wts = edge_rule(4)
    local = [(0, 1), (1, 2), (2, 0)]
    for _ in range(20):
        coords = random_triangle(rng)
        moments = np.zeros((3, 3))
        for e, (i, j) in enumerate(local):
            tangent = coords[j] - coords[i]
            lam = np.zeros((len(pts), 3))
            lam[:, i] = 1 - pts
            lam[:, j] = pts
            values, _ = whitney_eval(coords, lam)
            moments[e] = np.einsum("q,qk->k", wts, values @ tangent)
        assert moments == pytest.approx(np.eye(3), abs=1e-13)


def test_whitney_divergence_free_gauss_identity():
    # int_T div(phi) q = boundary flux - int_T phi . grad(q) must vanish
    # for affine q since the basis is divergence free
    rng = np.random.default_rng(2)
    tri_quad = triangle_rule(4)
    pts, wts = edge_rule(4)
    local = [(0, 1), (1, 2), (2, 0)]
    for _ in range(25):
        coords = random_triangle(rng)
        area = signed_area(coords)
        q_coef = rng.standard_normal(3)  # q = c0 + c1 x + c2 y

        def q(x):
            return q_coef[0] + q_coef[1] * x[..., 0] + q_coef[2] * x[..., 1]

        interior_vals, _ = whitney_eval(coords, tri_quad.points)
        interior_pts = tri_quad.points @ coords
        volume = area * np.einsum("q,qke->ke", tri_quad.weights, interior_vals) @ q_coef[1:]

        flux = np.zeros(3)
        for i, j in local:
            tangent = coords[j] - coords[i]
            length = np.linalg.norm(tangent)
            outward = np.array([tangent[1], -tangent[0]]) / length
            lam = np.zeros((len(pts), 3))
            lam[:, i] = 1 - pts
            lam[:, j] = pts
            values, _ = whitney_eval(coords, lam)
            edge_pts = coords[i] + pts[:, None] * tangent
            flux += length * np.einsum("q,q,qk->k", wts, q(edge_pts), values @ outward)
        scale = max(1.0, np.abs(flux).max())
        assert np.abs(flux - volume).max() < 1e-13 * scale


def test_whitney_eval_matches_the_reference_basis():
    rng = np.random.default_rng(4)
    lam = triangle_rule(6).points
    for _ in range(5):
        coords = random_triangle(rng)
        signs = rng.choice([-1.0, 1.0], size=3)
        g = edge_fem._one_triangle(coords, signs)[0]
        expected = basis_values(g, signs[None], lam)[0]
        values, _ = whitney_eval(coords, lam, signs)
        assert values.shape == expected.shape == (len(lam), 3, 2)
        assert np.abs(values - expected).max() <= 1e-14 * np.abs(expected).max()
        single, _ = whitney_eval(coords, lam[0], signs)
        assert single.shape == (3, 2)
        assert np.abs(single - expected[0]).max() <= 1e-14 * np.abs(expected).max()


def test_whitney_rejects_outside_point():
    with pytest.raises(ValueError):
        whitney_eval(REFERENCE, np.array([1.2, -0.1, -0.1]))


def test_whitney_rejects_degenerate_triangle():
    with pytest.raises(ValueError):
        whitney_eval(np.array([[0, 0], [1, 0], [2, 0]]), np.array([1 / 3, 1 / 3, 1 / 3]))


# -- element matrices --------------------------------------------------


def test_element_matrices_reference_stiffness():
    stiffness, _ = element_matrices(REFERENCE, eps=1.0, kappa=1.0)
    assert np.abs(stiffness) == pytest.approx(np.full((3, 3), 2.0))


def test_element_matrices_kappa_zero_mass():
    _, mass = element_matrices(REFERENCE, eps=1.0, kappa=0.0)
    assert np.array_equal(mass, np.zeros((3, 3)))


@pytest.mark.parametrize("eps, kappa", [(0.0, 1.0), (np.nan, 1.0), (np.inf, 1.0),
                                        (1.0, -1.0), (1.0, np.nan), (1.0, np.inf)])
def test_element_matrices_rejects_bad_coefficients(eps, kappa):
    with pytest.raises(ValueError):
        element_matrices(REFERENCE, eps, kappa)


def test_element_matrices_against_quadrature_oracle():
    rng = np.random.default_rng(42)
    quad = triangle_rule(8)
    for _ in range(100):
        coords = random_triangle(rng)
        eps = float(rng.uniform(0.5, 2.0))
        kappa = float(rng.uniform(0.5, 2.0))
        signs = rng.choice([-1.0, 1.0], size=3)
        stiffness, mass = element_matrices(coords, eps, kappa, signs)
        area = signed_area(coords)
        values, curls = whitney_eval(coords, quad.points, signs)
        mass_oracle = kappa * area * np.einsum("q,qae,qbe->ab", quad.weights,
                                               values, values)
        stiff_oracle = eps * area * np.outer(curls, curls)
        assert np.abs(mass - mass_oracle).max() < 1e-13
        assert np.abs(stiffness - stiff_oracle).max() < 1e-13
        assert mass == pytest.approx(mass.T)
        assert stiffness == pytest.approx(stiffness.T)


def test_element_matrices_rejects_degenerate():
    with pytest.raises(ValueError):
        element_matrices(np.array([[0, 0], [1, 0], [2, 0]]), 1.0, 1.0)


# -- assembly and solve -------------------------------------------------


def constant_coeffs(eps=1.0, kappa=1.0):
    return CoefficientField(eps={1: eps}, kappa=kappa)


def test_assemble_zero_rhs():
    mesh = build_structured_unit_square(4)
    zero = _Sample(None, None, np.zeros_like(error_points(mesh)), None)
    matrix, b, dofmap = assemble_system(mesh, constant_coeffs(), zero)
    assert np.array_equal(b, np.zeros(dofmap.n_free))
    sol = solve(mesh, constant_coeffs(), zero)
    assert np.array_equal(sol.coefficients, np.zeros(dofmap.n_free))


def test_assemble_without_free_edges():
    # every edge of a lone triangle is on the boundary; the empty sums stay float
    mesh = Mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]])
    problem = paper_problem(1.0, 1.0)
    matrix, b, dofmap = assemble_system(mesh, problem.coefficients,
                                        problem.sample(error_points(mesh)))
    assert dofmap.n_free == 0 and matrix.shape == (0, 0)
    assert matrix.indptr.tolist() == [0]
    assert matrix.data.dtype == b.dtype == np.float64 and b.shape == (0,)
    parts = indicator(zero_solution(mesh), problem)
    assert parts.j1.dtype == parts.j2.dtype == np.float64
    assert parts.j1.tolist() == parts.j2.tolist() == [0.0]


def test_assemble_dimensions_and_symmetry():
    mesh = build_structured_unit_square(4)
    problem = paper_problem(0.1, 10.0)
    matrix, b, dofmap = assemble_system(mesh, problem.coefficients,
                                        problem.sample(error_points(mesh)))
    assert matrix.shape == (40, 40)  # interior edges of the 4x4 mesh
    assert isinstance(matrix, scipy.sparse.csr_matrix) and matrix.has_canonical_format
    transpose = matrix.T.tocsr()
    assert np.array_equal(matrix.indptr, transpose.indptr)
    assert np.array_equal(matrix.indices, transpose.indices)
    assert matrix.data == pytest.approx(transpose.data, abs=1e-15)


def _seed7_chain_mesh():
    # the 129-triangle mesh of test_bisect_chain_is_frozen
    rng = np.random.default_rng(7)
    mesh = build_structured_unit_square(2)
    for _ in range(6):
        mesh = bisect_refine(mesh, set(rng.choice(
            mesh.num_triangles, size=max(1, mesh.num_triangles // 4), replace=False)))
    return mesh


def _sha256(*arrays):
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


# sha256 of (A.indptr, A.indices, A.data) and of b from assemble_system, and
# of the reference galerkin_residual for a fixed field.  The matrix is
# unchanged since the triplet sort and the np.add.at loops of the assembly
# were replaced by one bincount scatter, and again since scipy's COO-to-CSR
# conversion took over that scatter's duplicate sums; b and the residual
# were frozen when the load became the adjoint of the vertex vectors, and
# the residual kept its digests when it moved out of the package into the
# test oracle, operation for operation.  Both were re-frozen when the load
# moved from the degree-4 points onto those of error_points: b moved by at
# most 2.2e-5 of its largest entry (seed7_chain; 1.3e-5 two_region, 7.0e-8
# red_contrast_1e6), the residual by at most 1.3e-7 of its largest entry
FROZEN_ASSEMBLY = {
    "seed7_chain": ("90f71cf199979c784d2498eaf7807381bc5e6f5e8e743f1a9b05480cbad17fa1",
                    "cae4a455268cb34fdde2818e4b42cd1bc693adcb2d2f4aee03fe0fc2c72f9c46",
                    "623e2fb12d0200f5147dbd595021b50ad8de6233a315ccc96b48e817c818c88f"),
    "two_region": ("a08557b64fd3486e0a174274729e27f01f4b18d3a8cc110daa903388768bd6d4",
                   "1d8eecf6b479b1807eabeba858eb2c732a211270c13f7e8693aed9fcbb59bb52",
                   "03727e85be09fbebbd7ea18474a36c387f39c6768e222aee09d3ac306a551fb2"),
    "red_contrast_1e6": ("7532ac2808c6d631fc37dda8abb05cc0f29ec9ef871bd05574c52e09fbd0f942",
                         "e7118a9547a100cde164cdbcb7dee48ed91edcac221cf9ef83fe31c64d0954f7",
                         "973e38dafb375ea9446e2c7b052f52a2ca41c433f3504efec196534d9d580fdd"),
}


@pytest.mark.parametrize("case", sorted(FROZEN_ASSEMBLY))
def test_assembly_is_frozen(case):
    if case == "seed7_chain":
        mesh, problem = _seed7_chain_mesh(), paper_problem(0.1, 10.0)
    elif case == "red_contrast_1e6":
        problem = interface_problem(1e6, 1.0, 1e-2)
        mesh = tag_regions(build_structured_unit_square(4), problem.classifier)
        mesh = red_refine(red_refine(mesh))
    else:
        problem = interface_problem(1e4, 1.0, 1.0)
        mesh = tag_regions(build_structured_unit_square(4), problem.classifier)
    matrix, b, dofmap = assemble_system(mesh, problem.coefficients,
                                        problem.sample(error_points(mesh)))
    field = DiscreteSolution(mesh, dofmap, np.sin(np.arange(dofmap.n_free) + 0.5))
    residual = galerkin_residual(field, problem)
    assert (_sha256(matrix.indptr.astype(np.int64), matrix.indices.astype(np.int64),
                    matrix.data),
            _sha256(b), _sha256(residual)) == FROZEN_ASSEMBLY[case]
    # no matrix or load entry sums more than two element terms, so the
    # order of those sums cannot change a bit
    ed = dofmap.element_dofs
    rows, cols = np.broadcast_arrays(ed[:, :, None], ed[:, None, :])
    keep = (rows >= 0) & (cols >= 0)
    _, inv = np.unique(rows[keep] * dofmap.n_free + cols[keep], return_inverse=True)
    assert len(inv) and np.bincount(inv).max() <= 2
    assert np.bincount(ed[ed >= 0]).max() <= 2


def plain_callables(problem):
    """``problem`` with its fields behind plain callables, sampled one by one."""
    return dataclasses.replace(problem, **{name: functools.partial(getattr(problem, name))
                                           for name in ("u", "curl_u", "f", "div_f")})


@pytest.mark.parametrize("other", [lambda mesh: error_points(mesh)[:1],
                                   lambda mesh: error_points(build_structured_unit_square(8))],
                         ids=["one-triangle", "8x8-mesh"])
@pytest.mark.parametrize("problem", [paper_problem(0.1, 10.0),
                                     plain_callables(paper_problem(0.1, 10.0))],
                         ids=["trig", "plain-callables"])
def test_load_refuses_a_sample_of_another_mesh(problem, other):
    # the sample is reduced one block of rows at a time, so its shape is
    # checked before the blocks are read: a (1, Q) sample would broadcast
    # and a (4T, Q) one be cut to T rows
    mesh = build_structured_unit_square(4)
    sample = problem.sample(error_points(mesh))
    assemble_system(mesh, problem.coefficients, sample)
    wrong = problem.sample(other(mesh))
    with pytest.raises(ValueError, match="f must hold the values at error_points"):
        assemble_system(mesh, problem.coefficients, wrong)
    with pytest.raises(ValueError, match="f must hold the values at error_points"):
        solve(mesh, problem.coefficients, wrong)


def test_assemble_rejects_missing_region():
    mesh = build_structured_unit_square(2)
    coeffs = CoefficientField(eps={2: 1.0}, kappa=1.0)  # mesh is tagged 1
    problem = paper_problem(1.0, 1.0)
    with pytest.raises(ValueError):
        assemble_system(mesh, coeffs, problem.sample(error_points(mesh)))


def test_values_at_other_points_are_refused():
    # a sample of one triangle would broadcast over the 4x4 mesh (energy
    # error 2.697 instead of 0.837); one of the red-refined mesh, or at
    # the degree-4 points, has the wrong count of triangles or points
    mesh = build_structured_unit_square(4)
    problem = paper_problem(0.1, 10.0)
    exact = problem.sample(error_points(mesh))
    sol = solve(mesh, problem.coefficients, exact)
    for points in (error_points(mesh)[:1], error_points(red_refine(mesh)),
                   np.matmul(triangle_rule(4).points, mesh.vertices[mesh.triangles])):
        wrong = problem.sample(points)
        with pytest.raises(ValueError, match="f must hold the values at error_points"):
            assemble_system(mesh, problem.coefficients, wrong)
        with pytest.raises(ValueError, match="u must hold the values at error_points"):
            energy_error(sol, problem.coefficients, exact._replace(u=wrong.u))
        with pytest.raises(ValueError, match="curl u must hold the values at error_points"):
            energy_error(sol, problem.coefficients, exact._replace(curl_u=wrong.curl_u))
    # a vector field is no curl, a scalar one no load
    with pytest.raises(ValueError, match="curl u"):
        energy_error(sol, problem.coefficients, exact._replace(curl_u=exact.u))
    with pytest.raises(ValueError, match="f must"):
        assemble_system(mesh, problem.coefficients, exact._replace(f=exact.div_f))


@pytest.mark.parametrize("take", [lambda problem, mesh: problem.sample(error_points(mesh)),
                                  edge_fem._mesh_sample], ids=["points", "drivers"])
def test_energy_error_refuses_a_sample_without_u(take):
    # a problem may leave out its exact solution: the load and the
    # estimators read its sample, the energy error has nothing to measure
    problem = dataclasses.replace(paper_problem(1, 1), u=None, curl_u=None)
    mesh = build_structured_unit_square(4)
    sample = take(problem, mesh)
    sol = solve(mesh, problem.coefficients, sample)
    indicator(sol, problem, sample=sample)
    with pytest.raises(ValueError, match="exact solution u"):
        energy_error(sol, problem.coefficients, sample)


@pytest.mark.parametrize("read", [
    lambda mesh, sol, problem, values: assemble_system(mesh, problem.coefficients, values),
    lambda mesh, sol, problem, values: solve(mesh, problem.coefficients, values),
    lambda mesh, sol, problem, values: energy_error(sol, problem.coefficients, values),
    lambda mesh, sol, problem, values: indicator(sol, problem, sample=values),
], ids=["assemble_system", "solve", "energy_error", "indicator"])
def test_readers_refuse_bare_values(read):
    # the sample is the one form of problem data: values of f alone, even
    # of the right shape, are no sample
    mesh = build_structured_unit_square(2)
    problem = paper_problem(1.0, 1.0)
    values = problem.sample(error_points(mesh)).f
    with pytest.raises(TypeError, match="got ndarray"):
        read(mesh, zero_solution(mesh), problem, values)


def test_dofmap_layout():
    mesh = build_structured_unit_square(4)
    dofmap = DofMap(mesh)
    assert dofmap.n_free == 40
    free = dofmap.edge_dof[dofmap.edge_dof >= 0]
    assert np.array_equal(np.sort(free), np.arange(40))
    assert (dofmap.edge_dof[mesh.is_boundary_edge] == -1).all()


def test_galerkin_orthogonality_algebraic_and_quadrature():
    mesh = build_structured_unit_square(8)
    problem = paper_problem(0.1, 10.0)
    sample = problem.sample(error_points(mesh))
    matrix, b, dofmap = assemble_system(mesh, problem.coefficients, sample)
    sol = solve(mesh, problem.coefficients, sample)
    algebraic = b - matrix @ sol.coefficients
    assert np.abs(algebraic).max() <= 1e-10 * np.linalg.norm(b)
    # same identity via quadrature against the analytic solution
    residual = galerkin_residual(sol, problem)
    assert np.abs(residual).max() <= 1e-9 * np.abs(b).max()


# -- evaluation ---------------------------------------------------------


def test_eval_zero_solution():
    mesh = build_structured_unit_square(2)
    sol = zero_solution(mesh)
    assert np.array_equal(eval_uh(sol, 0, mesh.centroids[0]), np.zeros(2))
    assert curl_uh(sol, 0) == 0.0


def test_eval_single_basis_matches_whitney():
    mesh = build_structured_unit_square(2)
    dofmap = DofMap(mesh)
    free_edges = np.nonzero(dofmap.edge_dof >= 0)[0]
    edge = int(free_edges[0])
    values = np.zeros(mesh.num_edges)
    values[edge] = 1.0
    sol = solution_from_edge_values(mesh, values)
    tri = int(mesh.edge_tris[edge, 0])
    local = int(mesh.edge_tri_local[edge, 0])
    lam = np.array([0.3, 0.45, 0.25])
    point = lam @ mesh.vertices[mesh.triangles[tri]]
    expected, expected_curls = whitney_eval(
        mesh.vertices[mesh.triangles[tri]], lam, mesh.tri_edge_signs[tri])
    assert eval_uh(sol, tri, point) == pytest.approx(expected[local], abs=1e-14)
    assert curl_uh(sol, tri) == pytest.approx(expected_curls[local], abs=1e-12)


def test_eval_rejects_outside_point():
    mesh = build_structured_unit_square(2)
    sol = zero_solution(mesh)
    outside = mesh.centroids[0] + 10.0
    with pytest.raises(ValueError):
        eval_uh(sol, 0, outside)


def test_tangential_continuity_of_random_field():
    mesh = build_structured_unit_square(4)
    dofmap = DofMap(mesh)
    rng = np.random.default_rng(9)
    sol = DiscreteSolution(mesh, dofmap, rng.standard_normal(dofmap.n_free))
    pts, _ = edge_rule(4)
    interior = np.nonzero(~mesh.is_boundary_edge)[0]
    for edge in interior[::5]:
        a, b = mesh.edges[edge]
        tangent = mesh.vertices[b] - mesh.vertices[a]
        tangent = tangent / np.linalg.norm(tangent)
        for s in pts:
            point = mesh.vertices[a] + s * (mesh.vertices[b] - mesh.vertices[a])
            t_plus, t_minus = mesh.edge_tris[edge]
            v_plus = eval_uh(sol, int(t_plus), point) @ tangent
            v_minus = eval_uh(sol, int(t_minus), point) @ tangent
            assert v_plus == pytest.approx(v_minus, abs=1e-12)


def test_normal_traces_jump_in_general():
    mesh = build_structured_unit_square(4)
    dofmap = DofMap(mesh)
    rng = np.random.default_rng(10)
    sol = DiscreteSolution(mesh, dofmap, rng.standard_normal(dofmap.n_free))
    interior = np.nonzero(~mesh.is_boundary_edge)[0]
    jumps = []
    for edge in interior:
        a, b = mesh.edges[edge]
        point = 0.5 * (mesh.vertices[a] + mesh.vertices[b])
        n = mesh.edge_normals[edge]
        t_plus, t_minus = mesh.edge_tris[edge]
        jumps.append(eval_uh(sol, int(t_plus), point) @ n
                     - eval_uh(sol, int(t_minus), point) @ n)
    assert np.abs(jumps).max() > 1e-3



def two_sign_mesh():
    # bisected two-region mesh whose elements carry both orientation signs
    mesh = tag_regions(build_structured_unit_square(4),
                       interface_problem(2.0, 1.0, 1.0).classifier)
    mesh = bisect_refine(mesh, {0, 5, 17, 30})
    return bisect_refine(mesh, set(range(0, mesh.num_triangles, 3)))


def test_vertex_vectors_match_the_basis_tensor():
    # u_h = lam @ w must equal the sum of coefficients times the signed
    # basis values, at shared points and at per-element edge points
    mesh = two_sign_mesh()
    g, signs = mesh.barycentric_gradients, mesh.tri_edge_signs
    assert (signs == 1).any() and (signs == -1).any()
    coeffs = np.random.default_rng(11).standard_normal((mesh.num_triangles, 3))
    w = edge_fem._vertex_vectors(g, signs, coeffs)

    def reference(tris, lam):
        phi = basis_values(g[tris], signs[tris], lam)
        return np.einsum("nk,nqke->nqe", coeffs[tris], phi)

    def assert_close(actual, expected):
        assert actual.shape == expected.shape
        assert np.abs(actual - expected).max() <= 1e-14 * np.abs(expected).max()

    tris = np.arange(mesh.num_triangles)
    lam = triangle_rule(6).points
    assert_close(np.matmul(lam, w[tris]), reference(tris, lam))
    # w itself is u_h at the vertices, the values the J1 jumps read
    assert_close(w, reference(tris, np.eye(3)))
    # per-element points: the local edge midpoints, cycled by element id
    midpoints = 0.5 * (np.eye(3) + np.roll(np.eye(3), -1, axis=0))
    lam = midpoints[(np.arange(3)[None, :] + tris[:, None]) % 3]
    assert_close(np.matmul(lam, w[tris]), reference(tris, lam))


def jittered_two_sign_mesh(jitter):
    # the bisected areas are powers of two, whose products are exact; the
    # jitter makes every area and gradient inexact
    mesh = two_sign_mesh()
    shift = np.random.default_rng(2).uniform(-jitter, jitter, mesh.vertices.shape)
    mesh = Mesh(mesh.vertices + shift, mesh.triangles, regions=mesh.regions)
    assert (mesh.tri_edge_signs == 1).any() and (mesh.tri_edge_signs == -1).any()
    return mesh


@pytest.mark.parametrize("jitter", [0.0, 1e-3], ids=["bisected", "jittered"])
def test_load_moments_are_the_adjoint_of_the_vertex_vectors(jitter):
    # _moments(y of v) . c = sum_T |T| sum_q w_q v_q . u_c(x_q), where u_c is the
    # field with local coefficients c, read from its vertex vectors
    mesh = jittered_two_sign_mesh(jitter)
    rule = edge_fem._ERROR_RULE
    rng = np.random.default_rng(5)
    values = rng.standard_normal((mesh.num_triangles, len(rule.weights), 2))
    coeffs = rng.standard_normal((mesh.num_triangles, 3))
    w = edge_fem._vertex_vectors(mesh.barycentric_gradients, mesh.tri_edge_signs, coeffs)
    expected = mesh.areas * np.einsum("q,tqe,tqe->t", rule.weights, values,
                                      np.matmul(rule.points, w))
    y = edge_fem._reduce_vector(values, mesh.areas).y
    actual = (edge_fem._moments(mesh, y) * coeffs).sum(axis=1)
    assert np.abs(actual - expected).max() <= 1e-13 * np.abs(expected).max()


@pytest.mark.parametrize("jitter", [0.0, 1e-3], ids=["bisected", "jittered"])
def test_load_moments_match_the_basis_einsum(jitter):
    mesh = jittered_two_sign_mesh(jitter)
    rule = edge_fem._ERROR_RULE
    values = np.random.default_rng(5).standard_normal((mesh.num_triangles, len(rule.weights), 2))
    phi = basis_values(mesh.barycentric_gradients, mesh.tri_edge_signs, rule.points)
    expected = np.einsum("q,tqe,tqke,t->tk", rule.weights, values, phi, mesh.areas)
    actual = edge_fem._moments(mesh, edge_fem._reduce_vector(values, mesh.areas).y)
    assert actual.shape == expected.shape
    assert np.abs(actual - expected).max() <= 1e-14 * np.abs(expected).max()


# -- energy error -------------------------------------------------------


def test_energy_error_exact_for_field_in_discrete_space():
    # u = grad(hat) for the centre vertex of the 2x2 mesh lies in the
    # discrete space with zero tangential boundary trace, so setting the
    # dofs to its exact edge moments reproduces it identically
    mesh = build_structured_unit_square(2)
    centre = 4  # vertex at (0.5, 0.5) in row-major numbering
    assert np.array_equal(mesh.vertices[centre], [0.5, 0.5])

    grads = np.zeros((mesh.num_triangles, 2))
    for t in range(mesh.num_triangles):
        local = np.nonzero(mesh.triangles[t] == centre)[0]
        if len(local):
            grads[t] = mesh.barycentric_gradients[t, local[0]]

    def locate(point):
        for t in range(mesh.num_triangles):
            coords = mesh.vertices[mesh.triangles[t]]
            mat = np.stack([coords[1] - coords[0], coords[2] - coords[0]], axis=1)
            lam12 = np.linalg.solve(mat, point - coords[0])
            lam = np.array([1 - lam12.sum(), lam12[0], lam12[1]])
            if lam.min() >= -1e-12:
                return t
        raise AssertionError(f"point {point} not located")

    def u(x):
        flat = x.reshape(-1, 2)
        out = np.array([grads[locate(p)] for p in flat])
        return out.reshape(x.shape)

    def curl_u(x):
        return np.zeros(np.asarray(x).shape[:-1])

    moments = ((mesh.edges[:, 1] == centre).astype(float)
               - (mesh.edges[:, 0] == centre).astype(float))
    sol = solution_from_edge_values(mesh, moments)
    coeffs = constant_coeffs(eps=2.0, kappa=3.0)
    points = error_points(mesh)
    assert energy_error(sol, coeffs, _Sample(u(points), curl_u(points), None, None)) <= 1e-12


def test_energy_error_reference_values():
    mesh = build_structured_unit_square(4)
    problem = paper_problem(0.1, 10.0)
    exact = problem.sample(error_points(mesh))
    sol = solve(mesh, problem.coefficients, exact)
    e = energy_error(sol, problem.coefficients, exact)
    assert e == pytest.approx(8.42e-1, rel=0.10)
    assert e == pytest.approx(0.83709, rel=1e-3)  # regression pin


def test_energy_error_quadrature_degree_stable(monkeypatch):
    mesh = build_structured_unit_square(4)
    problem = paper_problem(1.0, 1.0)
    exact = problem.sample(error_points(mesh))
    sol = solve(mesh, problem.coefficients, exact)
    e6 = energy_error(sol, problem.coefficients, exact)
    monkeypatch.setattr(edge_fem, "_ERROR_RULE", triangle_rule(8))
    exact = problem.sample(error_points(mesh))
    e8 = energy_error(sol, problem.coefficients, exact)
    assert e6 == pytest.approx(e8, rel=1e-8)


def test_element_curls_matches_scalar_api():
    mesh = build_structured_unit_square(3)
    problem = paper_problem(1.0, 1.0)
    sol = solve(mesh, problem.coefficients, problem.sample(error_points(mesh)))
    curls = sol.curls
    for t in (0, 5, 11):
        assert curls[t] == pytest.approx(curl_uh(sol, t), abs=1e-14)


def test_vertex_vectors_and_curls_are_read_only():
    mesh = build_structured_unit_square(2)
    problem = paper_problem(1.0, 1.0)
    sol = solve(mesh, problem.coefficients, problem.sample(error_points(mesh)))
    with pytest.raises(ValueError):
        sol.vertex_vectors[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        sol.curls[0] = 1.0


@pytest.mark.parametrize("extra", [5, -7], ids=["too_long", "too_short"])
def test_solution_refuses_coefficients_of_another_length(extra):
    # a single value (too_short) would broadcast into all n_free = 8 slots
    mesh = build_structured_unit_square(2)
    dofmap = DofMap(mesh)
    assert dofmap.n_free == 8
    with pytest.raises(ValueError, match=r"coefficients must have shape \(8,\)"):
        DiscreteSolution(mesh, dofmap, np.ones(dofmap.n_free + extra)).curls


# -- discrete gradient and the preconditioned solve ------------------------


def gradient_test_mesh(bisected):
    mesh = tag_regions(build_structured_unit_square(4),
                       interface_problem(2.0, 1.0, 1.0).classifier)
    return bisect_refine(mesh, {0, 5, 17}) if bisected else mesh


@pytest.mark.parametrize("bisected", [False, True], ids=["tagged", "bisected"])
def test_discrete_gradient_maps_nodal_values_to_curl_free_fields(bisected):
    mesh = gradient_test_mesh(bisected)
    dofmap = DofMap(mesh)
    gradient = discrete_gradient(dofmap)
    interior = np.ones(mesh.num_vertices, dtype=bool)
    interior[mesh.edges[mesh.is_boundary_edge]] = False
    # one column per interior vertex, none for boundary vertices
    assert gradient.shape == (dofmap.n_free, interior.sum())

    rng = np.random.default_rng(7)
    v = np.zeros(mesh.num_vertices)
    v[interior] = rng.standard_normal(interior.sum())
    coefficients = gradient @ v[interior]
    free = dofmap.edge_dof >= 0
    lo, hi = mesh.edges[free].T
    assert np.array_equal(coefficients[dofmap.edge_dof[free]], v[hi] - v[lo])
    curls = DiscreteSolution(mesh, dofmap, coefficients).curls
    assert np.abs(curls).max() <= 1e-13


@pytest.mark.parametrize("mesh", [
    gradient_test_mesh(False), gradient_test_mesh(True), build_structured_unit_square(1),
], ids=["tagged", "bisected", "n1"])
def test_discrete_gradient_matches_the_triplet_build(mesh):
    dofmap = DofMap(mesh)
    interior = np.ones(mesh.num_vertices, dtype=bool)
    interior[mesh.edges[mesh.is_boundary_edge]] = False
    vertex_dof = np.cumsum(interior) - 1
    free = dofmap.edge_dof >= 0
    rows = np.tile(dofmap.edge_dof[free], 2)
    lo, hi = mesh.edges[free].T
    cols = np.concatenate([vertex_dof[lo], vertex_dof[hi]])
    vals = np.repeat([-1.0, 1.0], free.sum())
    keep = np.concatenate([interior[lo], interior[hi]])
    reference = from_triplet_arrays(dofmap.n_free, int(interior.sum()),
                                    rows[keep], cols[keep], vals[keep])
    gradient = discrete_gradient(dofmap)
    assert isinstance(gradient, scipy.sparse.csr_matrix) and gradient.has_canonical_format
    assert gradient.shape == reference.shape
    for name in ("indptr", "indices", "data"):
        actual, expected = getattr(gradient, name), getattr(reference, name)
        assert actual.dtype == expected.dtype
        assert np.array_equal(actual, expected)


def test_discrete_gradient_without_interior_vertices():
    mesh = build_structured_unit_square(1)  # one free edge, the diagonal
    assert discrete_gradient(DofMap(mesh)).shape == (1, 0)
    problem = paper_problem(1.0, 1.0)
    sol = solve(mesh, problem.coefficients, problem.sample(error_points(mesh)))
    assert sol.residual <= 1e-12


# -- prolongation -----------------------------------------------------


def refinement_pair(case):
    coarse = gradient_test_mesh(case != "tagged-red")
    fine = red_refine(coarse) if case.endswith("red") else bisect_refine(coarse, {2, 9, 30})
    return coarse, fine


def random_solution(mesh, seed):
    dofmap = DofMap(mesh)
    return DiscreteSolution(mesh, dofmap, np.random.default_rng(seed).standard_normal(dofmap.n_free))


REFINEMENTS = ["tagged-red", "bisected-red", "bisected-bisected"]


@pytest.mark.parametrize("case", REFINEMENTS)
def test_prolongation_reproduces_the_coarse_field(case):
    coarse, fine = refinement_pair(case)
    assert fine.regions.max() == 2  # the two-region tagging carries over
    solution = random_solution(coarse, 11)
    prolongated = DiscreteSolution(fine, DofMap(fine), prolongate(solution, fine))
    # the coarse field at every fine vertex, from the scalar evaluator
    expected = np.array([[eval_uh(solution, parent, fine.vertices[v]) for v in tri]
                         for tri, parent in zip(fine.triangles, fine.parent_ids)])
    scale = np.abs(expected).max()
    assert np.abs(prolongated.vertex_vectors - expected).max() <= 1e-14 * scale
    assert np.abs(prolongated.curls - solution.curls[fine.parent_ids]).max() <= 1e-13 * scale


def p1_interpolant(coarse, fine, v):
    """Nodal values of the coarse P1 function v (all coarse vertices) at
    every fine vertex: new vertices are edge midpoints and take the mean
    of the edge's two end values."""
    ends = {tuple(0.5 * (coarse.vertices[a] + coarse.vertices[b])): (a, b)
            for a, b in coarse.edges}
    new = [ends[tuple(x)] for x in fine.vertices[coarse.num_vertices:]]
    return np.concatenate([v, v[np.array(new)].mean(axis=1)])


def interior_vertices(mesh):
    interior = np.ones(mesh.num_vertices, dtype=bool)
    interior[mesh.edges[mesh.is_boundary_edge]] = False
    return interior


@pytest.mark.parametrize("case", REFINEMENTS)
def test_prolongation_commutes_with_the_discrete_gradient(case):
    coarse, fine = refinement_pair(case)
    coarse_dofs = DofMap(coarse)
    interior = interior_vertices(coarse)
    v = np.zeros(coarse.num_vertices)
    v[interior] = np.random.default_rng(5).standard_normal(interior.sum())
    gradient = DiscreteSolution(coarse, coarse_dofs, discrete_gradient(coarse_dofs) @ v[interior])
    v_fine = p1_interpolant(coarse, fine, v)
    expected = discrete_gradient(DofMap(fine)) @ v_fine[interior_vertices(fine)]
    assert prolongate(gradient, fine) == pytest.approx(expected, rel=0, abs=1e-14 * np.abs(v).max())


def test_prolongation_refuses_a_mesh_not_refined_from_the_solution_mesh():
    coarse = gradient_test_mesh(True)
    solution = random_solution(coarse, 3)
    for mesh in (build_structured_unit_square(4),  # root mesh: -1
                 red_refine(red_refine(coarse)),    # ids of the middle mesh
                 bisect_refine(coarse, set())):     # coarse itself: ids of its parent
        with pytest.raises(ValueError, match="parent_ids"):
            prolongate(solution, mesh)
        with pytest.raises(ValueError, match="parent_ids"):
            prolongation(solution.dofmap, DofMap(mesh))


@pytest.mark.parametrize("case", REFINEMENTS)
def test_prolongation_matrix_is_prolongate(case):
    coarse, fine = refinement_pair(case)
    solution = random_solution(coarse, 17)
    matrix = prolongation(solution.dofmap, DofMap(fine))
    assert matrix.shape == (DofMap(fine).n_free, solution.dofmap.n_free)
    assert matrix.has_sorted_indices and np.diff(matrix.indptr).max() == 3
    expected = prolongate(solution, fine)
    assert np.abs(matrix @ solution.coefficients - expected).max() <= 1e-14 * np.abs(expected).max()


def red_levels(problem, levels):
    """The first ``levels`` red-refined meshes of the drivers' 4x4 start."""
    mesh = build_structured_unit_square(4)
    meshes = [tag_regions(mesh, problem.classifier)]
    for _ in range(levels - 1):
        meshes.append(red_refine(meshes[-1]))
    return meshes


def matrix_of(mesh, problem):
    return assemble_system(mesh, problem.coefficients, problem.sample(error_points(mesh)))[0]


@pytest.mark.parametrize("problem", [paper_problem(0.1, 10.0), interface_problem(1e4, 1.0, 1.0)],
                         ids=["paper-0.1-10", "interface-1e4"])
def test_galerkin_product_of_the_prolongation_is_the_coarse_matrix(problem):
    # nested spaces: rediscretising on the coarse mesh is P^T A_fine P
    _, coarse, fine = red_levels(problem, 3)
    p = prolongation(DofMap(coarse), DofMap(fine))
    expected = matrix_of(coarse, problem).toarray()
    galerkin = (p.T @ matrix_of(fine, problem) @ p).toarray()
    assert np.abs(galerkin - expected).max() <= 1e-12 * np.abs(expected).max()


def test_multilevel_preconditioner_is_symmetric():
    problem = interface_problem(1e4, 1.0, 1.0)
    meshes = red_levels(problem, 3)
    dofmaps = [DofMap(mesh) for mesh in meshes]
    smoothers = [hybrid_smoother(matrix_of(mesh, problem), discrete_gradient(dofmap))
                 for mesh, dofmap in zip(meshes, dofmaps)]
    coarse = [Level(smoother, prolongation(dofmap, finer))
              for smoother, dofmap, finer in zip(smoothers, dofmaps, dofmaps[1:])]
    apply_b = linalg._preconditioner(smoothers[-1], coarse)
    x, y = np.random.default_rng(8).standard_normal((2, dofmaps[-1].n_free))
    assert x @ apply_b(y) == pytest.approx(y @ apply_b(x), rel=1e-12)
    assert x @ apply_b(x) > 0


# sha256 of the solution x of cg_solve with the hybrid smoother of the
# matrix and no coarse level, on the 736-dof meshes of paper(0.1, 10) (at
# rel_tol 1e-12) and interface(1e4, 1, 1) (at 1e-6) and under the energy
# stop: the digests of the solver before it took coarse levels.
FROZEN_SINGLE_LEVEL = {
    ("paper", 1e-12): (68, "cf62290664c809429fdb44e37ee2d1a501d47cacf7d119dd7f8a1874ca0f2eb5"),
    ("paper", None): (36, "65e106a1125f96e52271be04a624b59ac09361d5755b6bc26a67d820d3722e21"),
    ("interface", 1e-6): (137, "88785ff9bbdd8aecb2d956e0a7cd0aa05633c43b81d90eea34e1233e79f3b4b1"),
    ("interface", None): (71, "992298becefb4728e5c322e175b3ca6de21df7b4bd40b4d8f01d0491b7a5cd6f"),
}


@pytest.mark.parametrize("case", sorted(FROZEN_SINGLE_LEVEL, key=str))
def test_cg_without_coarse_levels_is_frozen(case):
    name, rel_tol = case
    problem = paper_problem(0.1, 10.0) if name == "paper" else interface_problem(1e4, 1.0, 1.0)
    mesh = red_levels(problem, 3)[-1]
    matrix, b, dofmap = assemble_system(mesh, problem.coefficients,
                                        problem.sample(error_points(mesh)))
    result = cg_solve(matrix, b, rel_tol=rel_tol,
                      smoother=hybrid_smoother(matrix, discrete_gradient(dofmap)))
    assert (result.iterations, _sha256(result.x)) == FROZEN_SINGLE_LEVEL[case]


@pytest.mark.parametrize("problem, coarse_levels", [
    (paper_problem(0.1, 10.0), [0, 0, 1, 2]),  # kappa diam^2 > eps up to level 1
    (paper_problem(1e-3, 1e3), [0, 0, 0, 0]),
    (interface_problem(1e4, 1.0, 1.0), [0, 1, 2, 3]),
], ids=["paper-0.1-10", "paper-1e-3-1e3", "interface-1e4"])
def test_hierarchy_restarts_at_the_finest_mass_dominated_mesh(monkeypatch, problem,
                                                              coarse_levels):
    seen = []
    cg = linalg.cg_solve

    def counting(*args, coarse=(), **kwargs):
        seen.append(len(coarse))
        return cg(*args, coarse=coarse, **kwargs)

    monkeypatch.setattr(linalg, "cg_solve", counting)
    hierarchy = Hierarchy()
    for mesh in red_levels(problem, 4):
        solve(mesh, problem.coefficients, problem.sample(error_points(mesh)), rel_tol=1e-6,
              hierarchy=hierarchy)
    assert seen == coarse_levels


def uniform_3008_dof_mesh(problem):
    mesh = build_structured_unit_square(4)
    for _ in range(3):
        mesh = red_refine(mesh)
    return tag_regions(mesh, problem.classifier)


@pytest.mark.parametrize("problem, rel_tol, max_ratio", [
    (interface_problem(1e4, 1.0, 1.0), 1e-6, 0.1),  # measured 273 vs 6043
    (paper_problem(1e-5, 1e5), 1e-12, 2.0),         # measured 32 vs 21
], ids=["contrast-1e4", "mass-dominated"])
def test_gradient_correction_iterations_against_jacobi(problem, rel_tol, max_ratio):
    mesh = uniform_3008_dof_mesh(problem)
    sample = problem.sample(error_points(mesh))
    sol = solve(mesh, problem.coefficients, sample, rel_tol=rel_tol)
    assert sol.dofmap.n_free == 3008
    matrix, b, _ = assemble_system(mesh, problem.coefficients, sample)
    jacobi = cg_solve(matrix, b, rel_tol=rel_tol)
    assert sol.iterations <= max_ratio * jacobi.iterations
    assert sol.residual <= rel_tol
    true_residual = np.linalg.norm(b - matrix @ sol.coefficients) / np.linalg.norm(b)
    assert sol.residual == pytest.approx(true_residual, rel=1e-12)


def test_residual_contract_unchanged_at_contrast_1e6():
    problem = interface_problem(1e6, 1.0, 1e-2)
    mesh = uniform_3008_dof_mesh(problem)
    with pytest.raises(CgNonConvergence):
        solve(mesh, problem.coefficients, problem.sample(error_points(mesh)), rel_tol=1e-6)
