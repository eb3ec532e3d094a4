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

A discrete field is linear on each element, so it is fixed there by three
vertex vectors: ``u_h = sum_i lam_i w_i``.  Local edge k from vertex i to
vertex j with coefficient c_k and sign s_k adds ``c_k s_k grad(lam_j)`` to
w_i and ``-c_k s_k grad(lam_i)`` to w_j (:func:`_vertex_vectors`).
``DiscreteSolution.vertex_vectors`` builds them once per field, and every
reader of u_h evaluates it from there as one (Q, 3) @ (N, 3, 2) product,
without a per-point basis tensor.

Homogeneous tangential boundary conditions are imposed by eliminating the
boundary-edge unknowns.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse

from . import linalg
from .mesh import _LOCAL_EDGES, _cross2, _gradients, _parse_fields, _signed_areas
from .quadrature import triangle_rule

# local edge k runs from vertex _TAIL[k] = k to vertex _HEAD[k]
_TAIL, _HEAD = np.array(_LOCAL_EDGES).T
_PREV = np.array([2, 0, 1])  # edge i starts at vertex i, edge _PREV[i] ends there

# the triangle rule of the load vector and of galerkin_residual
_LOAD_RULE = triangle_rule(4)


def _basis_values(g, signs, lam):
    """Signed basis values (N, Q, 3, 2) from barycentric gradients
    (N, 3, 2), orientation signs (N, 3) and barycentric points lam, (Q, 3)
    shared by all elements or (N, Q, 3) per element."""
    if lam.ndim == 2:
        lam = lam[None]
    # one local edge at a time bounds the temporaries.  Only whitney_eval
    # and the tests read this tensor: u_h comes from _vertex_vectors, and
    # _moments forms the basis one load-rule point at a time
    phi = np.empty((len(g), lam.shape[-2], 3, 2))
    for k, (i, j) in enumerate(_LOCAL_EDGES):
        phi[..., k, :] = (lam[..., i, None] * g[:, None, j, :]
                          - lam[..., j, None] * g[:, None, i, :])
    phi *= signs[:, None, :, None]
    return phi


def _vertex_vectors(g, signs, coeffs):
    """Vertex vectors w (N, 3, 2) of the fields with local coefficients
    coeffs (N, 3) against the signed basis; on each element the field is
    ``sum_i lam_i w_i``, so its values at barycentric points lam are
    ``lam @ w``."""
    a = (coeffs * signs)[..., None]
    return a * g[:, _HEAD] - a[:, _PREV] * g[:, _PREV]


def _load_points(mesh):
    """Cartesian load-rule points (T, Q, 2) of every element: the
    barycentric weights times the three vertices, added vertex by vertex
    as ``einsum("qi,tie->tqe", ...)`` adds them, so bit for bit the same.
    The sums run with the element axis last, which broadcasts faster."""
    lam = _LOAD_RULE.points[:, :, None, None]
    corners = mesh.vertices[mesh.triangles].transpose(1, 2, 0)
    points = lam[:, 0] * corners[0] + lam[:, 1] * corners[1] + lam[:, 2] * corners[2]
    return np.ascontiguousarray(points.transpose(2, 0, 1))


def _moments(mesh, values):
    """Moments ``int_T v . phi_k`` (T, 3) of values v (T, Q, 2) at the
    load-rule points against the signed basis.

    One point at a time, with no (T, Q, 3, 2) basis tensor, in the order of
    ``einsum("q,tqe,tqke,t->tk", weights, v, phi, areas)``: each product is
    ``weight * v``, then times phi, then times the area; the two components
    of a point are added first, then the points one after the other.  The
    signs are folded into the gradients, which is exact for +-1.  Keeping
    that rounding matters: a 1-ulp change in the load already lifts the
    float64 CG residual of a contrast-1e4 solve above a 1e-10 tolerance.
    """
    g, signs, areas = mesh.barycentric_gradients, mesh.tri_edge_signs, mesh.areas
    # element axis last: the broadcasts of the point loop run about twice
    # as fast as in the (T, 3, 2) layout
    s = signs.T[:, None]
    gt = g[:, _TAIL].transpose(1, 2, 0) * s
    gh = g[:, _HEAD].transpose(1, 2, 0) * s
    out = np.zeros((3, len(areas)))
    for lam, weight, v in zip(_LOAD_RULE.points, _LOAD_RULE.weights, values.transpose(1, 2, 0)):
        phi = lam[_TAIL, None, None] * gh - lam[_HEAD, None, None] * gt
        phi *= weight * v
        phi *= areas
        out += phi[:, 0] + phi[:, 1]
    return out.T


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
    if not 0 < eps < np.inf:
        raise ValueError("eps must be positive and finite")
    if not 0 <= kappa < np.inf:
        raise ValueError("kappa must be nonnegative and finite")
    g, area, signs = _one_triangle(coords, signs)
    stiffness, mass = _local_matrices(g, area, signs, np.array([eps], dtype=float), kappa)
    return stiffness[0], mass[0]


class DofMap:
    """Edge-to-unknown mapping with boundary edges eliminated.

    Free (interior) edges get dense indices 0..N-1 in edge-id order;
    boundary edges are constrained to zero.  ``element_dofs`` holds the
    global index (or -1) of each local edge.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        edge_dof = np.full(mesh.num_edges, -1, dtype=np.int64)
        free = ~mesh.is_boundary_edge
        edge_dof[free] = np.arange(free.sum())
        self.edge_dof = edge_dof
        self.n_free = int(free.sum())
        self.element_dofs = edge_dof[mesh.tri_edges]

    def scatter(self, local):
        """Sum local vectors (T, 3) into a free-dof vector, or local
        matrices (T, 3, 3) into a free-dof ``scipy.sparse.csr_matrix`` with
        sorted, unique columns per row; boundary slots drop.

        No entry sums more than two element terms (an edge has at most two
        triangles, two edges share at most one), every sum starts from 0.0
        and two-term float addition commutes: the order cannot change a bit.
        """
        ed, n = self.element_dofs, self.n_free
        if local.ndim == 2:
            free = ed >= 0
            return _weighted_count(ed[free], local[free], n)
        rows, cols = np.broadcast_arrays(ed[:, :, None], ed[:, None, :])
        keep = (rows >= 0) & (cols >= 0)
        keys, inv = np.unique(rows[keep] * n + cols[keep], return_inverse=True)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
        return scipy.sparse.csr_matrix(
            (_weighted_count(inv, local[keep], len(keys)), keys % n, indptr), shape=(n, n))


def _weighted_count(index, weights, n):
    # np.bincount returns integers for an empty index (a mesh without free edges)
    return np.bincount(index, weights=weights, minlength=n).astype(float, copy=False)


def discrete_gradient(dofmap):
    """Discrete gradient G from interior vertices to free edges.

    Column j belongs to the j-th interior vertex in vertex-id order; row
    i to free dof i.  The free edge from vertex lo to vertex hi (edges are
    oriented low to high) has +1 in the column of hi and -1 in the column
    of lo, so ``G @ v`` holds the edge moments of the gradient of the
    continuous piecewise-linear function with interior nodal values v and
    zero boundary values.  Boundary vertices have no column.  Returned as
    a ``scipy.sparse.csr_matrix`` with sorted rows.
    """
    mesh = dofmap.mesh
    interior = np.ones(mesh.num_vertices, dtype=bool)
    interior[mesh.edges[mesh.is_boundary_edge]] = False
    n_interior = int(interior.sum())
    vertex_dof = np.full(mesh.num_vertices, -1, dtype=np.int64)
    vertex_dof[interior] = np.arange(n_interior)
    # free dofs follow edge ids, so row i is free edge i: [lo, hi] with
    # lo < hi is already a sorted CSR row once boundary vertices drop out
    cols = vertex_dof[mesh.edges[dofmap.edge_dof >= 0]]
    keep = cols >= 0
    indptr = np.zeros(dofmap.n_free + 1, dtype=np.int64)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    vals = np.broadcast_to([-1.0, 1.0], cols.shape)[keep]
    return scipy.sparse.csr_matrix((vals, cols[keep], indptr), shape=(dofmap.n_free, n_interior))


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

    @cached_property
    def vertex_vectors(self):
        """Read-only vertex vectors w (T, 3, 2): on element t the field is
        ``lam @ w[t]``."""
        w = _vertex_vectors(self.mesh.barycentric_gradients, self.mesh.tri_edge_signs,
                            self.element_coefficients())
        w.flags.writeable = False
        return w

    @cached_property
    def curls(self):
        """Read-only elementwise (constant) scalar curl of the field, (T,)."""
        c = np.einsum("tk,tk->t", self.element_coefficients(),
                      _basis_curls(self.mesh.barycentric_gradients, self.mesh.tri_edge_signs))
        c.flags.writeable = False
        return c


def assemble_system(mesh, coefficients, f):
    """Assemble the free-dof Galerkin matrix and load vector.

    The bilinear form is ``eps * (curl u, curl v) + kappa * (u, v)`` with
    elementwise-constant eps taken from the coefficient field by region
    tag.  The load ``int f . phi`` is integrated with the degree-4 triangle
    rule (:func:`_load_points`, :func:`_moments`); ``f`` must accept points
    of shape (..., 2) and return values of the same shape.
    """
    eps_t = coefficients.eps_by_region(mesh.regions)
    stiffness, mass = _local_matrices(mesh.barycentric_gradients, mesh.areas,
                                      mesh.tri_edge_signs, eps_t, coefficients.kappa)

    points = _load_points(mesh)
    f_vals = np.asarray(f(points), dtype=float)
    if f_vals.shape != points.shape:
        raise ValueError("f must map (..., 2) points to (..., 2) values")
    load = _moments(mesh, f_vals)

    dofmap = DofMap(mesh)
    return dofmap.scatter(stiffness + mass), dofmap.scatter(load), dofmap


def solve(mesh, coefficients, f, rel_tol=1e-12, energy_target=None, x0=None):
    """Solve the discrete problem and return a :class:`DiscreteSolution`.

    CG is preconditioned with Jacobi plus a diagonal solve on the
    gradients of interior nodal functions (:func:`discrete_gradient`),
    which keeps it converging when eps is large against kappa.  It starts
    from the free-dof vector ``x0`` (zero if None) and stops on the
    relative residual ``rel_tol``, or with ``rel_tol=None`` on the energy
    estimate against ``energy_target`` (see :func:`linalg.cg_solve`).
    """
    matrix, b, dofmap = assemble_system(mesh, coefficients, f)
    result = linalg.cg_solve(matrix, b, rel_tol=rel_tol, gradient=discrete_gradient(dofmap),
                             x0=x0, energy_target=energy_target)
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
    return lam @ solution.vertex_vectors[tri_id]


def curl_uh(solution, tri_id):
    """Scalar curl of the discrete field on one element (constant there)."""
    return float(solution.curls[tri_id])


def _errors_at(solution, u, curl_u, rule, points):
    """``u - u_h`` (T, Q, 2) and ``curl u - curl u_h`` (T, Q) at the points
    of ``rule``, given in Cartesian coordinates as ``points`` (T, Q, 2)."""
    # each caller keeps its point formula: galerkin_residual's frozen digests
    # need the rounding of _load_points; the matmul points of energy_error
    # are about 5x faster, and the load formula would move its last bits
    u_vals = np.asarray(u(points), dtype=float)
    curl_vals = np.asarray(curl_u(points), dtype=float)
    return (u_vals - np.matmul(rule.points, solution.vertex_vectors),
            curl_vals - solution.curls[:, None])


def energy_error(solution, coefficients, u_exact, curl_u_exact, quad_degree=6):
    """Energy-norm distance between an analytic field and the discrete one:
    ``sqrt(sum_T int_T eps (curl u - curl u_h)^2 + kappa |u - u_h|^2)``."""
    mesh = solution.mesh
    quad = triangle_rule(quad_degree)
    eps_t = coefficients.eps_by_region(mesh.regions)
    points = np.matmul(quad.points, mesh.vertices[mesh.triangles])
    du, dcurl = _errors_at(solution, u_exact, curl_u_exact, quad, points)
    l2_part = (du ** 2).sum(-1) @ quad.weights * mesh.areas
    curl_part = dcurl ** 2 @ quad.weights * mesh.areas
    return float(np.sqrt((eps_t * curl_part + coefficients.kappa * l2_part).sum()))


def galerkin_residual(solution, problem):
    """Residual of the discrete variational identity tested against every
    free basis function, computed by quadrature against the analytic
    solution: ``eps (curl u - curl u_h, curl phi) + kappa (u - u_h, phi)``,
    at the points of the load rule and with its moment kernel.  Vanishes up
    to quadrature and roundoff after a converged solve."""
    mesh = solution.mesh
    coeffs = problem.coefficients
    eps_t = coeffs.eps_by_region(mesh.regions)
    du, dcurl = _errors_at(solution, problem.u, problem.curl_u, _LOAD_RULE, _load_points(mesh))
    basis_curls = _basis_curls(mesh.barycentric_gradients, mesh.tri_edge_signs)
    mass_part = coeffs.kappa * _moments(mesh, du)
    curl_diff = np.einsum("q,tq->t", _LOAD_RULE.weights, dcurl)
    curl_part = (eps_t * mesh.areas * curl_diff)[:, None] * basis_curls
    return solution.dofmap.scatter(mass_part + curl_part)


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
    seen = np.zeros(mesh.num_edges, dtype=bool)
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            edge_id, value = _parse_fields(line, lineno, "edge_id value", (int, float))
            if not np.isfinite(value):
                raise ValueError(f"line {lineno}: value {value} is not finite")
            if not 0 <= edge_id < mesh.num_edges:
                raise ValueError(f"line {lineno}: edge id {edge_id} not in [0, {mesh.num_edges})")
            if seen[edge_id]:
                raise ValueError(f"line {lineno}: edge id {edge_id} given twice")
            seen[edge_id] = True
            values[edge_id] = value
    dofmap = DofMap(mesh)
    if np.abs(values[mesh.is_boundary_edge]).max(initial=0.0) > 0:
        raise ValueError("stored solution has nonzero boundary coefficients")
    return DiscreteSolution(mesh, dofmap, values[dofmap.edge_dof >= 0])
