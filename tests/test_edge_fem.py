import hashlib

import numpy as np
import pytest

from curladapt import edge_fem
from curladapt.edge_fem import (DiscreteSolution, DofMap, assemble_system,
                                curl_uh, discrete_gradient,
                                element_matrices, energy_error, eval_uh,
                                galerkin_residual, load_solution, save_solution,
                                solve, whitney_eval)
from curladapt.estimators import indicator
from curladapt.linalg import CgNonConvergence, cg_solve, from_triplet_arrays, spmv
from curladapt.mesh import (Mesh, bisect_refine, build_structured_unit_square,
                            red_refine, tag_regions)
from curladapt.problems import (CoefficientField, interface_problem,
                                paper_problem)
from curladapt.quadrature import edge_rule, triangle_rule

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
    zero = lambda x: np.zeros_like(x)
    matrix, b, dofmap = assemble_system(mesh, constant_coeffs(), zero)
    assert np.array_equal(b, np.zeros(dofmap.n_free))
    sol = solve(mesh, constant_coeffs(), zero)
    assert np.array_equal(sol.coefficients, np.zeros(dofmap.n_free))


def test_assemble_without_free_edges():
    # every edge of a lone triangle is on the boundary; the empty sums stay float
    mesh = Mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]])
    problem = paper_problem(1.0, 1.0)
    matrix, b, dofmap = assemble_system(mesh, problem.coefficients, problem.f)
    assert dofmap.n_free == 0 and matrix.shape == (0, 0)
    assert matrix.indptr.tolist() == [0]
    assert matrix.data.dtype == b.dtype == np.float64 and b.shape == (0,)
    parts = indicator(zero_solution(mesh), problem)
    assert parts.j1.dtype == parts.j2.dtype == np.float64
    assert parts.j1.tolist() == parts.j2.tolist() == [0.0]


def test_assemble_dimensions_and_symmetry():
    mesh = build_structured_unit_square(4)
    problem = paper_problem(0.1, 10.0)
    matrix, b, dofmap = assemble_system(mesh, problem.coefficients, problem.f)
    assert matrix.shape == (40, 40)  # interior edges of the 4x4 mesh
    transpose = matrix.transpose()
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


# sha256 of (A.indptr, A.indices, A.data, b) from assemble_system and of
# galerkin_residual for a fixed field.  The first two were frozen before the
# triplet sort and the np.add.at loops of the assembly were replaced by one
# bincount scatter, "red_contrast_1e6" before the load and residual moments
# stopped building the (T, Q, 3, 2) basis tensor
FROZEN_ASSEMBLY = {
    "seed7_chain": ("2e7d3f28fab69b38b69c55be5e927d5dba5d22b12fc00be9abe76c8066b7973b",
                    "a8364466ec6a041172c81deb6ecf4649c9f53d8b9b9c66cb4852984305e09c49"),
    "two_region": ("0181c2edd15e4a70decd93d5624bd54311478f7550d6ee41c03e7b14b026408d",
                   "5cbd04c9e8389c0924bbb85f5cddef1567f639834464a8af5d9eb216a5e997ad"),
    "red_contrast_1e6": ("4df854113a662716170ce8852f687bb275f28c384e2f7654a8f8b13ff417de51",
                         "5808f348dc95e15ec53286bc9d6e6be2792cabdada3a23a43ff94be60dc0157a"),
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
    matrix, b, dofmap = assemble_system(mesh, problem.coefficients, problem.f)
    field = DiscreteSolution(mesh, dofmap, np.sin(np.arange(dofmap.n_free) + 0.5))
    residual = galerkin_residual(field, problem)
    assert (_sha256(matrix.indptr, matrix.indices, matrix.data, b),
            _sha256(residual)) == FROZEN_ASSEMBLY[case]
    # no matrix or load entry sums more than two element terms, so the
    # order of those sums cannot change a bit
    ed = dofmap.element_dofs
    rows, cols = np.broadcast_arrays(ed[:, :, None], ed[:, None, :])
    keep = (rows >= 0) & (cols >= 0)
    _, inv = np.unique(rows[keep] * dofmap.n_free + cols[keep], return_inverse=True)
    assert len(inv) and np.bincount(inv).max() <= 2
    assert np.bincount(ed[ed >= 0]).max() <= 2


def test_assemble_rejects_missing_region():
    mesh = build_structured_unit_square(2)
    coeffs = CoefficientField(eps={2: 1.0}, kappa=1.0)  # mesh is tagged 1
    problem = paper_problem(1.0, 1.0)
    with pytest.raises(ValueError):
        assemble_system(mesh, coeffs, problem.f)


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
    matrix, b, dofmap = assemble_system(mesh, problem.coefficients, problem.f)
    sol = solve(mesh, problem.coefficients, problem.f)
    from curladapt.linalg import spmv
    algebraic = b - spmv(matrix, sol.coefficients)
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
        phi = edge_fem._basis_values(g[tris], signs[tris], lam)
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


@pytest.mark.parametrize("jitter", [0.0, 1e-3], ids=["bisected", "jittered"])
def test_load_kernels_match_the_einsum_bit_for_bit(jitter):
    # the load and the Galerkin residual must keep the einsum's rounding.
    # The bisected areas are powers of two, whose products are exact; the
    # jittered mesh checks the order of the area factor as well
    mesh = two_sign_mesh()
    shift = np.random.default_rng(2).uniform(-jitter, jitter, mesh.vertices.shape)
    mesh = Mesh(mesh.vertices + shift, mesh.triangles, regions=mesh.regions)
    g, signs = mesh.barycentric_gradients, mesh.tri_edge_signs
    assert (signs == 1).any() and (signs == -1).any()
    rule = edge_fem._LOAD_RULE
    assert rule.points.shape == (9, 3)
    values = np.random.default_rng(5).standard_normal((mesh.num_triangles, 9, 2))
    phi = edge_fem._basis_values(g, signs, rule.points)
    expected = np.einsum("q,tqe,tqke,t->tk", rule.weights, values, phi, mesh.areas)
    assert np.array_equal(edge_fem._moments(mesh, values), expected)
    expected = np.einsum("qi,tie->tqe", rule.points, mesh.vertices[mesh.triangles])
    assert np.array_equal(edge_fem._load_points(mesh), expected)


def test_load_and_residual_build_no_basis_tensor(monkeypatch):
    def refuse(*args):
        raise AssertionError("_basis_values called")

    monkeypatch.setattr(edge_fem, "_basis_values", refuse)
    problem = interface_problem(1e4, 1.0, 1.0)
    mesh = tag_regions(build_structured_unit_square(4), problem.classifier)
    matrix, b, dofmap = assemble_system(mesh, problem.coefficients, problem.f)
    field = DiscreteSolution(mesh, dofmap, np.sin(np.arange(dofmap.n_free)))
    assert galerkin_residual(field, problem).shape == b.shape == (dofmap.n_free,)

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
    assert energy_error(sol, coeffs, u, curl_u) <= 1e-12


def test_energy_error_reference_values():
    mesh = build_structured_unit_square(4)
    problem = paper_problem(0.1, 10.0)
    sol = solve(mesh, problem.coefficients, problem.f)
    e = energy_error(sol, problem.coefficients, problem.u, problem.curl_u)
    assert e == pytest.approx(8.42e-1, rel=0.10)
    assert e == pytest.approx(0.83709, rel=1e-3)  # regression pin


def test_energy_error_quadrature_degree_stable():
    mesh = build_structured_unit_square(4)
    problem = paper_problem(1.0, 1.0)
    sol = solve(mesh, problem.coefficients, problem.f)
    e6 = energy_error(sol, problem.coefficients, problem.u, problem.curl_u, 6)
    e8 = energy_error(sol, problem.coefficients, problem.u, problem.curl_u, 8)
    assert e6 == pytest.approx(e8, rel=1e-8)


def test_solution_roundtrip(tmp_path):
    mesh = build_structured_unit_square(3)
    problem = paper_problem(1.0, 1.0)
    sol = solve(mesh, problem.coefficients, problem.f)
    path = tmp_path / "solution.txt"
    save_solution(sol, path)
    loaded = load_solution(mesh, path)
    assert np.array_equal(loaded.coefficients, sol.coefficients)


@pytest.mark.parametrize("edge_id", [-4, 16])
def test_load_solution_rejects_edge_id_out_of_range(tmp_path, edge_id):
    mesh = build_structured_unit_square(2)
    assert mesh.num_edges == 16
    path = tmp_path / "solution.txt"
    path.write_text(f"{edge_id} 2.5\n")
    with pytest.raises(ValueError, match=f"edge id {edge_id}"):
        load_solution(mesh, path)


def test_element_curls_matches_scalar_api():
    mesh = build_structured_unit_square(3)
    problem = paper_problem(1.0, 1.0)
    sol = solve(mesh, problem.coefficients, problem.f)
    curls = sol.curls
    for t in (0, 5, 11):
        assert curls[t] == pytest.approx(curl_uh(sol, t), abs=1e-14)


def test_vertex_vectors_and_curls_are_read_only():
    mesh = build_structured_unit_square(2)
    problem = paper_problem(1.0, 1.0)
    sol = solve(mesh, problem.coefficients, problem.f)
    with pytest.raises(ValueError):
        sol.vertex_vectors[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        sol.curls[0] = 1.0


@pytest.mark.parametrize("text, message", [
    ("{e} 0.5\n{e}\n", "line 2: expected 'edge_id value'"),
    ("{e} 0.5\n\n{e} 0.25\n", "line 3: edge id {e} given twice"),
    ("{e} 0.5 7\n", "line 1: expected 'edge_id value'"),
], ids=["missing_value", "repeated_edge", "extra_token"])
def test_load_solution_rejects_malformed_lines(tmp_path, text, message):
    mesh = build_structured_unit_square(2)
    e = int(np.nonzero(~mesh.is_boundary_edge)[0][0])
    path = tmp_path / "solution.txt"
    path.write_text(text.format(e=e))
    with pytest.raises(ValueError, match=message.format(e=e)):
        load_solution(mesh, path)


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
    coefficients = spmv(gradient, v[interior])
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
    assert gradient.shape == reference.shape
    for name in ("indptr", "indices", "data"):
        actual, expected = getattr(gradient, name), getattr(reference, name)
        assert actual.dtype == expected.dtype
        assert np.array_equal(actual, expected)


def test_discrete_gradient_without_interior_vertices():
    mesh = build_structured_unit_square(1)  # one free edge, the diagonal
    assert discrete_gradient(DofMap(mesh)).shape == (1, 0)
    problem = paper_problem(1.0, 1.0)
    sol = solve(mesh, problem.coefficients, problem.f)
    assert sol.residual <= 1e-12


def uniform_3008_dof_mesh(problem):
    mesh = build_structured_unit_square(4)
    for _ in range(3):
        mesh = red_refine(mesh)
    return tag_regions(mesh, problem.classifier) if problem.classifier else mesh


@pytest.mark.parametrize("problem, rel_tol, max_ratio", [
    (interface_problem(1e4, 1.0, 1.0), 1e-6, 0.1),  # measured 273 vs 6043
    (paper_problem(1e-5, 1e5), 1e-12, 2.0),         # measured 32 vs 21
], ids=["contrast-1e4", "mass-dominated"])
def test_gradient_correction_iterations_against_jacobi(problem, rel_tol, max_ratio):
    mesh = uniform_3008_dof_mesh(problem)
    sol = solve(mesh, problem.coefficients, problem.f, rel_tol=rel_tol)
    assert sol.dofmap.n_free == 3008
    matrix, b, _ = assemble_system(mesh, problem.coefficients, problem.f)
    jacobi = cg_solve(matrix, b, rel_tol=rel_tol)
    assert sol.iterations <= max_ratio * jacobi.iterations
    assert sol.residual <= rel_tol
    true_residual = np.linalg.norm(b - spmv(matrix, sol.coefficients)) / np.linalg.norm(b)
    assert sol.residual == pytest.approx(true_residual, rel=1e-12)


def test_residual_contract_unchanged_at_contrast_1e6():
    problem = interface_problem(1e6, 1.0, 1e-2)
    mesh = uniform_3008_dof_mesh(problem)
    with pytest.raises(CgNonConvergence):
        solve(mesh, problem.coefficients, problem.f, rel_tol=1e-6)
