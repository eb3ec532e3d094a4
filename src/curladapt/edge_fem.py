"""Lowest-order edge elements (Whitney 1-forms) on triangles.

The local basis attached to the edge from vertex i to vertex j is
``phi_ij = lam_i * grad(lam_j) - lam_j * grad(lam_i)``; its tangential
moment along that edge is one and zero along the other two, its 2D scalar
curl is the constant ``2 * grad(lam_i) x grad(lam_j)`` and it is
divergence free.  Degrees of freedom are tangential moments along the
globally oriented edges (low vertex id to high); a per-element sign flips
the local basis wherever the local counterclockwise traversal disagrees
with the global edge orientation, which makes tangential traces match
across elements.

Homogeneous tangential boundary conditions are imposed by eliminating the
boundary-edge unknowns.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .mesh import _LOCAL_EDGES, _cross2, _gradients, _signed_areas
from .quadrature import triangle_rule

# local edge k runs from vertex _TAIL[k] to vertex _HEAD[k]
_TAIL, _HEAD = np.array(_LOCAL_EDGES).T


def _basis_values(g, signs, lam):
    """Signed basis values (N, Q, 3, 2) from barycentric gradients
    (N, 3, 2), orientation signs (N, 3) and barycentric points lam, (Q, 3)
    shared by all elements or (N, Q, 3) per element."""
    if lam.ndim == 2:
        lam = lam[None]
    # one local edge at a time bounds the temporaries; the C-ordered result
    # also fixes einsum's summation order in the load vector and u_h
    phi = np.empty((len(g), lam.shape[-2], 3, 2))
    for k, (i, j) in enumerate(_LOCAL_EDGES):
        phi[..., k, :] = (lam[..., i, None] * g[:, None, j, :]
                          - lam[..., j, None] * g[:, None, i, :])
    phi *= signs[:, None, :, None]
    return phi


def _basis_curls(g, signs):
    """Signed constant curls (N, 3) of the local basis."""
    return 2.0 * _cross2(g[:, _TAIL], g[:, _HEAD]) * signs


def _local_matrices(g, areas, signs, eps, kappa):
    """Exact local curl-curl and mass matrices, each (N, 3, 3), for
    elementwise eps (N,) and a constant kappa.

    The mass entry of the local edges a = (i, j) and b = (k, l) expands
    ``int_T phi_a . phi_b`` by the identity
    ``int_T lam_i lam_j = |T| (1 + delta_ij) / 12``.
    """
    curls = _basis_curls(g, signs)
    stiffness = eps[:, None, None] * areas[:, None, None] * curls[:, :, None] * curls[:, None, :]
    integ = (np.ones((3, 3)) + np.eye(3)) / 12.0
    gg = np.einsum("tie,tje->tij", g, g)
    i, j = _TAIL[:, None], _HEAD[:, None]  # row edge a = (i, j)
    k, l = _TAIL, _HEAD                    # column edge b = (k, l)
    mass = (gg[:, j, l] * integ[i, k] - gg[:, j, k] * integ[i, l]
            - gg[:, i, l] * integ[j, k] + gg[:, i, k] * integ[j, l])
    mass *= (kappa * areas)[:, None, None]
    mass *= signs[:, :, None] * signs[:, None, :]
    return stiffness, mass


def _one_triangle(coords, signs):
    """Gradients (1, 3, 2), area (1,) and signs (1, 3) of one triangle,
    which must be counterclockwise with positive area."""
    coords = np.asarray(coords, dtype=float)[None]
    area = _signed_areas(coords)
    if area[0] <= 0:
        raise ValueError("degenerate or clockwise triangle")
    signs = np.ones((1, 3)) if signs is None else np.asarray(signs, dtype=float)[None]
    return _gradients(coords, area), area, signs


def whitney_eval(coords, point, signs=None):
    """Evaluate the three edge basis functions of one triangle.

    Parameters
    ----------
    coords : (3, 2) array
        Triangle vertices, counterclockwise.
    point : (3,) or (Q, 3) array
        Barycentric evaluation point(s) inside the closed triangle.
    signs : (3,) array, optional
        Orientation signs applied to the local basis (+1 default).

    Returns
    -------
    values : (3, 2) or (Q, 3, 2) array
    curls : (3,) array
        The constant scalar curl of each basis function.
    """
    g, _, signs = _one_triangle(coords, signs)
    lam = np.asarray(point, dtype=float)
    if (lam < -1e-12).any() or (lam > 1 + 1e-12).any():
        raise ValueError("barycentric point outside the closed triangle")
    values = _basis_values(g, signs, np.atleast_2d(lam))[0]
    curls = _basis_curls(g, signs)[0]
    return (values[0], curls) if lam.ndim == 1 else (values, curls)


def element_matrices(coords, eps, kappa, signs=None):
    """Exact 3x3 curl-curl and mass matrices of one triangle.

    ``stiffness[a, b] = eps * int_T curl(phi_a) curl(phi_b)`` (constants, so
    exact) and ``mass[a, b] = kappa * int_T phi_a . phi_b``; see
    :func:`_local_matrices`.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    g, area, signs = _one_triangle(coords, signs)
    stiffness, mass = _local_matrices(g, area, signs, np.array([eps], dtype=float), kappa)
    return stiffness[0], mass[0]


class DofMap:
    """Edge-to-unknown mapping with boundary edges eliminated.

    Free (interior) edges get dense indices 0..N-1 in edge-id order;
    boundary edges are constrained to zero.  ``element_dofs`` holds the
    global index (or -1) of each local edge and ``element_signs`` the
    orientation sign relating local and global edge directions.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        edge_dof = np.full(mesh.num_edges, -1, dtype=np.int64)
        free = ~mesh.is_boundary_edge
        edge_dof[free] = np.arange(free.sum())
        self.edge_dof = edge_dof
        self.n_free = int(free.sum())
        self.element_dofs = edge_dof[mesh.tri_edges]
        self.element_signs = mesh.tri_edge_signs


def discrete_gradient(dofmap):
    """Discrete gradient G from interior vertices to free edges.

    Column j belongs to the j-th interior vertex in vertex-id order; row
    i to free dof i.  The free edge from vertex lo to vertex hi (edges are
    oriented low to high) has +1 in the column of hi and -1 in the column
    of lo, so ``G @ v`` holds the edge moments of the gradient of the
    continuous piecewise-linear function with interior nodal values v and
    zero boundary values.  Boundary vertices have no column.
    """
    mesh = dofmap.mesh
    interior = np.ones(mesh.num_vertices, dtype=bool)
    interior[mesh.edges[mesh.is_boundary_edge]] = False
    n_interior = int(interior.sum())
    vertex_dof = np.full(mesh.num_vertices, -1, dtype=np.int64)
    vertex_dof[interior] = np.arange(n_interior)
    free = dofmap.edge_dof >= 0
    rows = np.tile(dofmap.edge_dof[free], 2)
    cols = vertex_dof[mesh.edges[free]].T.ravel()  # all lo, then all hi
    vals = np.repeat([-1.0, 1.0], free.sum())
    keep = cols >= 0
    return linalg.from_triplet_arrays(dofmap.n_free, n_interior,
                                      rows[keep], cols[keep], vals[keep])


@dataclass(frozen=True)
class DiscreteSolution:
    """Edge-element field: coefficient per free edge against a DofMap.

    A solution returned by :func:`solve` also carries the CG iteration
    count and the relative true residual it reached; both are None for
    fields built otherwise.
    """
    mesh: object
    dofmap: DofMap
    coefficients: np.ndarray
    iterations: int = None
    residual: float = None

    def edge_values(self):
        """Coefficients indexed by edge id, zero on boundary edges."""
        full = np.zeros(self.mesh.num_edges)
        free = self.dofmap.edge_dof >= 0
        full[free] = self.coefficients[self.dofmap.edge_dof[free]]
        return full

    def element_coefficients(self):
        """(T, 3) restriction of the global dof values to each element's
        edges; these multiply the orientation-signed local basis."""
        return self.edge_values()[self.mesh.tri_edges]


def _field_at(solution, tri_ids, lam):
    """Discrete field on chosen elements at barycentric points."""
    mesh = solution.mesh
    local = solution.element_coefficients()[tri_ids]
    phi = _basis_values(mesh.barycentric_gradients[tri_ids], mesh.tri_edge_signs[tri_ids], lam)
    return np.einsum("nk,nqke->nqe", local, phi)


def element_curls(solution):
    """Elementwise (constant) scalar curl of the discrete field, (T,)."""
    mesh = solution.mesh
    return np.einsum("tk,tk->t", solution.element_coefficients(),
                     _basis_curls(mesh.barycentric_gradients, mesh.tri_edge_signs))


def assemble_system(mesh, coefficients, f, quad=None):
    """Assemble the free-dof Galerkin matrix and load vector.

    The bilinear form is ``eps * (curl u, curl v) + kappa * (u, v)`` with
    elementwise-constant eps taken from the coefficient field by region
    tag.  The load ``int f . phi`` is integrated with ``quad`` (degree 4
    by default); ``f`` must accept points of shape (..., 2) and return
    values of the same shape.
    """
    if quad is None:
        quad = triangle_rule(4)
    elif quad.degree < 4:
        raise ValueError("load quadrature must be exact to degree >= 4")
    eps_t = coefficients.eps_by_region(mesh.regions)
    kappa = coefficients.kappa

    g = mesh.barycentric_gradients
    signs = mesh.tri_edge_signs
    area = mesh.areas
    stiffness, mass = _local_matrices(g, area, signs, eps_t, kappa)
    elem = stiffness + mass

    points = np.einsum("qi,tie->tqe", quad.points, mesh.vertices[mesh.triangles])
    f_vals = np.asarray(f(points), dtype=float)
    if f_vals.shape != points.shape:
        raise ValueError("f must map (..., 2) points to (..., 2) values")
    phi = _basis_values(g, signs, quad.points)
    load = np.einsum("q,tqe,tqke,t->tk", quad.weights, f_vals, phi, area)

    dofmap = DofMap(mesh)
    ed = dofmap.element_dofs
    b = np.zeros(dofmap.n_free)
    rows, cols, vals = [], [], []
    for a in range(3):
        free_a = ed[:, a] >= 0
        np.add.at(b, ed[free_a, a], load[free_a, a])
        for c in range(3):
            both = free_a & (ed[:, c] >= 0)
            rows.append(ed[both, a])
            cols.append(ed[both, c])
            vals.append(elem[both, a, c])
    matrix = linalg.from_triplet_arrays(dofmap.n_free, dofmap.n_free,
                                        np.concatenate(rows), np.concatenate(cols),
                                        np.concatenate(vals))
    return matrix, b, dofmap


def solve(mesh, coefficients, f, rel_tol=1e-12):
    """Solve the discrete problem and return a :class:`DiscreteSolution`.

    CG is preconditioned with Jacobi plus a diagonal solve on the
    gradients of interior nodal functions (:func:`discrete_gradient`),
    which keeps it converging when eps is large against kappa.
    """
    matrix, b, dofmap = assemble_system(mesh, coefficients, f)
    result = linalg.cg_solve(matrix, b, rel_tol=rel_tol, gradient=discrete_gradient(dofmap))
    return DiscreteSolution(mesh, dofmap, result.x, result.iterations, result.residual)


def _barycentric(mesh, tri_id, point):
    coords = mesh.vertices[mesh.triangles[tri_id]]
    mat = np.stack([coords[1] - coords[0], coords[2] - coords[0]], axis=1)
    lam12 = np.linalg.solve(mat, np.asarray(point, dtype=float) - coords[0])
    return np.array([1.0 - lam12.sum(), lam12[0], lam12[1]])


def eval_uh(solution, tri_id, point):
    """Discrete field value at a Cartesian point inside the triangle."""
    lam = _barycentric(solution.mesh, tri_id, point)
    if lam.min() < -1e-12:
        raise ValueError(f"point {point} lies outside triangle {tri_id}")
    return _field_at(solution, np.array([tri_id]), lam[None, :])[0, 0]


def curl_uh(solution, tri_id):
    """Scalar curl of the discrete field on one element (constant there)."""
    return float(element_curls(solution)[tri_id])


def energy_error(solution, coefficients, u_exact, curl_u_exact, quad_degree=6):
    """Energy-norm distance between an analytic field and the discrete one:
    ``sqrt(sum_T int_T eps (curl u - curl u_h)^2 + kappa |u - u_h|^2)``."""
    mesh = solution.mesh
    quad = triangle_rule(quad_degree)
    eps_t = coefficients.eps_by_region(mesh.regions)
    kappa = coefficients.kappa
    points = np.einsum("qi,tie->tqe", quad.points, mesh.vertices[mesh.triangles])
    u_vals = np.asarray(u_exact(points), dtype=float)
    uh_vals = _field_at(solution, np.arange(mesh.num_triangles), quad.points)
    curl_vals = np.asarray(curl_u_exact(points), dtype=float)
    curl_h = element_curls(solution)
    l2_part = np.einsum("q,tq,t->t", quad.weights, ((u_vals - uh_vals) ** 2).sum(-1),
                        mesh.areas)
    curl_part = np.einsum("q,tq,t->t", quad.weights, (curl_vals - curl_h[:, None]) ** 2,
                          mesh.areas)
    return float(np.sqrt((eps_t * curl_part + kappa * l2_part).sum()))


def galerkin_residual(solution, problem, quad_degree=4):
    """Residual of the discrete variational identity tested against every
    free basis function, computed by quadrature against the analytic
    solution: ``eps (curl u - curl u_h, curl phi) + kappa (u - u_h, phi)``.
    Vanishes up to quadrature and roundoff after a converged solve."""
    mesh = solution.mesh
    quad = triangle_rule(quad_degree)
    coeffs = problem.coefficients
    eps_t = coeffs.eps_by_region(mesh.regions)
    kappa = coeffs.kappa
    points = np.einsum("qi,tie->tqe", quad.points, mesh.vertices[mesh.triangles])
    u_vals = np.asarray(problem.u(points), dtype=float)
    uh_vals = _field_at(solution, np.arange(mesh.num_triangles), quad.points)
    curl_vals = np.asarray(problem.curl_u(points), dtype=float)
    curl_h = element_curls(solution)
    phi = _basis_values(mesh.barycentric_gradients, mesh.tri_edge_signs, quad.points)
    basis_curls = _basis_curls(mesh.barycentric_gradients, mesh.tri_edge_signs)
    mass_part = kappa * np.einsum("q,tqe,tqke,t->tk", quad.weights, u_vals - uh_vals,
                                  phi, mesh.areas)
    curl_diff = np.einsum("q,tq->t", quad.weights, curl_vals - curl_h[:, None])
    curl_part = (eps_t * mesh.areas * curl_diff)[:, None] * basis_curls
    local = mass_part + curl_part
    residual = np.zeros(solution.dofmap.n_free)
    ed = solution.dofmap.element_dofs
    for a in range(3):
        free_a = ed[:, a] >= 0
        np.add.at(residual, ed[free_a, a], local[free_a, a])
    return residual


def save_solution(solution, path):
    """Write (edge id, coefficient) pairs in plain text, boundary edges
    included with value zero."""
    values = solution.edge_values()
    with open(path, "w") as fh:
        for edge_id, value in enumerate(values):
            fh.write(f"{edge_id} {float(value)!r}\n")


def load_solution(mesh, path):
    """Rebuild a solution saved by :func:`save_solution` against a mesh."""
    values = np.zeros(mesh.num_edges)
    with open(path) as fh:
        for line in fh:
            tok = line.split()
            if tok:
                values[int(tok[0])] = float(tok[1])
    dofmap = DofMap(mesh)
    if np.abs(values[mesh.is_boundary_edge]).max(initial=0.0) > 0:
        raise ValueError("stored solution has nonzero boundary coefficients")
    return DiscreteSolution(mesh, dofmap, values[dofmap.edge_dof >= 0])
