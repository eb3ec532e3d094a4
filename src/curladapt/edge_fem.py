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
reader of u_h reads it from there, without a per-point basis tensor.

Homogeneous tangential boundary conditions are imposed by eliminating the
boundary-edge unknowns.  Every sparse matrix, the Galerkin matrix
(``DofMap.scatter``), the discrete gradient and the prolongations, comes
from one builder, :func:`_csr`: scipy's conversion of int32 triplets.

The problem is read at one point set per mesh, :func:`error_points`, and
reduced there to a few numbers per element at once by one reducer,
:func:`_reduce_blocks`, one block of ``mesh._BLOCK`` rows at a time, so
that no point value outlives its block: on the drivers' one sample per
mesh (:func:`_mesh_sample`), whose triangles that bisection keeps carry
their rows over from the last mesh, and on any set of rows, such as the
one row of ``estimators.element_residuals``.  A vector
field v keeps its moments ``y_i = |T| sum_q w_q lam_qi v_q`` (T, 3, 2) and
the remainder ``||v - Pi v||^2`` of its discrete L2 projection onto linear
fields, ``Pi v = sum_i lam_i p_i`` with ``p = (12/|T|) (y - sum_j y_j / 4)``
(:func:`_reduce_vector`, :func:`_projection`); a scalar field keeps its
mean and the squared norm of its distance from it
(:func:`_reduce_scalar`); a sample reduces to one :class:`_Reduced`.
Plain callables keep 18 floats per element; a trig problem keeps the 9
of f and div f, and its u = f / kappa reads f's arrays at scale 1/kappa.
The load moments are the adjoint of the vertex vectors applied to y of f
(:func:`_moments`), so the load is the one the points give; its rounding
differs from a basis-tensor einsum in the last bits.  Every other reader
needs an L2 distance to a linear or a constant field, and has it in closed
form through the discrete Pythagoras split ``||v - w||^2 = ||v - Pi v||^2
+ ||Pi v - w||^2``: the rule is exact for degree 2, so ``v - Pi v`` is
orthogonal to every linear field, and ``int_T |sum_i lam_i d_i|^2 = |T|/12
(sum_i |d_i|^2 + |sum_i d_i|^2)`` (:func:`_linear_norms_sq`).
:func:`energy_error` and the estimators' R1, R2 and oscillations are such
sums of nonnegative parts, equal to the quadrature of the points up to
rounding.  Values at the points handed to them are reduced the same way
first, and refused in any other shape (:func:`_reduced`).  Every
reduction is row-local: a row's numbers are the same bytes whatever the
rows reduced with it, so neither the block size nor a carried row moves a
bit.  The quadrature sums are ``einsum`` loops for that reason; the gemv
of OpenBLAS (``values @ weights``) rounds the last ``n mod 4`` rows of a
call differently.

A field carries over to a refined mesh through ``Mesh.parent_ids`` alone
(:func:`prolongate`).  On each coarse element P it is linear with a
constant curl, ``u = w_0 + (curl_P / 2) (x - x_0)^perp`` about P's first
vertex x_0, where it takes the vertex vector w_0.  The moment of a fine
edge, which lies in its first incident triangle and hence in that
triangle's parent, is therefore exactly ``u(midpoint) . (head - tail)``.
The prolongated field is the coarse one; no vertex history is needed.
The same formula, linear in the three coefficients of the parent, is the
prolongation matrix (:func:`prolongation`) that carries the smoothers of
coarser meshes into the multilevel preconditioner of :func:`solve`.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse

from . import linalg
from .mesh import (_LOCAL_EDGES, _blocks, _check_id, _cross2, _gradients, _rot90,
                   _signed_areas)
from .problems import _Sample
from .quadrature import triangle_rule

# local edge k runs from vertex _TAIL[k] = k to vertex _HEAD[k]
_TAIL, _HEAD = np.array(_LOCAL_EDGES).T
_PREV = np.array([2, 0, 1])  # edge i starts at vertex i, edge _PREV[i] ends there

# the one triangle rule of the package: the problem is reduced at its
# points, and only error_points and _reduce_vector read them
_ERROR_RULE = triangle_rule(6)


def _vertex_vectors(g, signs, coeffs):
    """Vertex vectors w (N, 3, 2) of the fields with local coefficients
    coeffs (N, 3) against the signed basis; on each element the field is
    ``sum_i lam_i w_i``, so its values at barycentric points lam are
    ``lam @ w``."""
    a = (coeffs * signs)[..., None]
    return a * g[:, _HEAD] - a[:, _PREV] * g[:, _PREV]


def _moments(mesh, y):
    """Moments ``int_T v . phi_k`` (T, 3) against the signed basis of the
    field v with moments y (T, 3, 2) (:func:`_reduce_vector`): the adjoint
    of :func:`_vertex_vectors`.  The moment of local edge k from vertex i to
    vertex j is ``s_k (y_i . grad(lam_j) - y_j . grad(lam_i))``."""
    g, signs = mesh.barycentric_gradients, mesh.tri_edge_signs
    moments = np.empty((mesh.num_triangles, 3))
    for rows in _blocks(mesh.num_triangles):
        moments[rows] = signs[rows] * (np.einsum("tke,tke->tk", y[rows], g[rows, _HEAD])
                                       - np.einsum("tke,tke->tk", y[rows][:, _HEAD], g[rows]))
    return moments


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
    # basis function k is the field with coefficient one on local edge k
    w = _vertex_vectors(np.repeat(g, 3, axis=0), np.repeat(signs, 3, axis=0), np.eye(3))
    return np.moveaxis(lam @ w, 0, -2), _basis_curls(g, signs)[0]


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
    global index (or -1) of each local edge.  Both are int32, as every
    mesh id, the index type scipy keeps, so :func:`_csr` copies neither.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        free = ~mesh.is_boundary_edge
        self.n_free = int(free.sum())
        edge_dof = np.full(mesh.num_edges, -1, dtype=np.int32)
        edge_dof[free] = np.arange(self.n_free)
        self.edge_dof = edge_dof
        self.element_dofs = edge_dof[mesh.tri_edges]

    def scatter(self, local):
        """Sum local vectors (T, 3) into a free-dof vector, or local
        matrices (T, 3, 3) into a free-dof ``scipy.sparse.csr_matrix``
        through :func:`_csr`, whose triplets of a boundary slot drop.

        No entry sums more than two element terms (an edge has at most two
        triangles, two edges share at most one), and two-term float
        addition commutes: the order cannot change a bit.
        """
        ed, n = self.element_dofs, self.n_free
        if local.ndim == 2:
            free = ed >= 0
            return _weighted_count(ed[free], local[free], n)
        return _csr(ed[:, :, None], ed[:, None, :], local, (n, n))


def _element_norms_sq(values, areas):
    """Squared L2 norms per element of samples (T, Q) or (T, Q, 2) at the
    points of ``_ERROR_RULE``."""
    squares = values ** 2 if values.ndim == 2 else values[..., 0] ** 2 + values[..., 1] ** 2
    return np.einsum("tq,q->t", squares, _ERROR_RULE.weights) * areas


def _weighted_count(index, weights, n):
    # np.bincount returns integers for an empty index (a mesh without free edges)
    return np.bincount(index, weights=weights, minlength=n).astype(float, copy=False)


def _csr(rows, cols, vals, shape):
    """The one sparse builder of the package: the ``scipy.sparse.csr_matrix``
    of ``shape`` with the triplets (rows, cols, vals), broadcast together,
    where a triplet with a -1 row or column drops.  scipy's COO conversion
    sorts each row and sums the duplicate triplets, which makes true the
    sorted, unique column indices per row that ``linalg`` relies on."""
    rows, cols, vals = np.broadcast_arrays(rows, cols, vals)
    keep = (rows >= 0) & (cols >= 0)
    return scipy.sparse.csr_matrix((vals[keep], (rows[keep], cols[keep])), shape=shape)


def discrete_gradient(dofmap):
    """Discrete gradient G from interior vertices to free edges.

    Column j belongs to the j-th interior vertex in vertex-id order; row
    i to free dof i.  The free edge from vertex lo to vertex hi (edges are
    oriented low to high) has +1 in the column of hi and -1 in the column
    of lo, so ``G @ v`` holds the edge moments of the gradient of the
    continuous piecewise-linear function with interior nodal values v and
    zero boundary values.  Boundary vertices have no column.  Built by
    :func:`_csr`, where the boundary vertex's triplet drops.
    """
    mesh = dofmap.mesh
    interior = np.ones(mesh.num_vertices, dtype=bool)
    interior[mesh.edges[mesh.is_boundary_edge]] = False
    n_interior = int(interior.sum())
    vertex_dof = np.full(mesh.num_vertices, -1, dtype=np.int32)
    vertex_dof[interior] = np.arange(n_interior)
    # free dofs follow edge ids, so row i is free edge i: [lo, hi]
    cols = vertex_dof[mesh.edges[dofmap.edge_dof >= 0]]
    return _csr(np.arange(dofmap.n_free, dtype=np.int32)[:, None], cols, np.array([-1.0, 1.0]),
                (dofmap.n_free, n_interior))


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

    def __post_init__(self):
        if np.shape(self.coefficients) != (self.dofmap.n_free,):
            raise ValueError(f"coefficients must have shape ({self.dofmap.n_free},), "
                             f"one per free edge, got {np.shape(self.coefficients)}")

    def element_coefficients(self):
        """(T, 3) restriction of the global dof values to each element's
        edges, zero on boundary edges; these multiply the
        orientation-signed local basis."""
        # through a zero-filled edge vector: a mesh without free edges has
        # no coefficient for the -1 of a boundary slot to index; free dofs
        # follow edge ids, so the free slots take the coefficients in order
        full = np.zeros(self.mesh.num_edges)
        full[self.dofmap.edge_dof >= 0] = self.coefficients
        return full[self.mesh.tri_edges]

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
    tag.  ``f`` holds the source's values (T, Q, 2) at :func:`error_points`
    of ``mesh``, or is the problem's sample there
    (``ManufacturedProblem.sample``), or the drivers' reduced sample
    (:func:`_mesh_sample`).  The load ``int f . phi`` is integrated at those
    points, as the adjoint of the vertex vectors applied to the moments of
    f (:func:`_moments`).
    """
    if not isinstance(f, (_Sample, _Reduced)):
        f = _Sample(None, None, f, None)
    load = _moments(mesh, _reduced(mesh, f, ("f",)).f.y)
    eps_t = coefficients.eps_by_region(mesh.regions)
    g, areas, signs = mesh.barycentric_gradients, mesh.areas, mesh.tri_edge_signs
    local = np.empty((mesh.num_triangles, 3, 3))
    for rows in _blocks(mesh.num_triangles):
        stiffness, mass = _local_matrices(g[rows], areas[rows], signs[rows], eps_t[rows],
                                          coefficients.kappa)
        np.add(stiffness, mass, out=local[rows])
    dofmap = DofMap(mesh)
    return dofmap.scatter(local), dofmap.scatter(load), dofmap


def _mass_dominated(mesh, coefficients):
    """True when ``kappa diam_T^2 > eps_T`` on every element T of ``mesh``."""
    eps_t = coefficients.eps_by_region(mesh.regions)
    return bool((coefficients.kappa * mesh.diameters ** 2 > eps_t).all())


class Hierarchy:
    """The nested meshes of one uniform-refinement run, for the multilevel
    preconditioner of :func:`solve`.

    Create one per run and hand it to every solve, coarsest mesh first.
    It keeps, per coarser level, the :class:`linalg.Level` (diagonal, G,
    diag(G^T A G) and the prolongation onto the next mesh), and the
    dofmap and smoother of the last mesh solved on until the next solve
    builds that prolongation; no assembled matrix.
    """

    def __init__(self):
        self._levels = []
        self._last = None  # (dofmap, smoother) of the last mesh solved on

    def _descend(self, dofmap, smoother, restart):
        """The coarser levels of a solve on ``dofmap``'s mesh, a refinement
        of the last one, coarsest first; then records that mesh as the
        last.  ``restart`` makes the mesh the coarsest level."""
        if restart or self._last is None:
            self._levels = []
        else:
            coarse_dofmap, coarse_smoother = self._last
            self._levels.append(linalg.Level(coarse_smoother,
                                             prolongation(coarse_dofmap, dofmap)))
        self._last = dofmap, smoother
        return tuple(self._levels)


def solve(mesh, coefficients, f, rel_tol=1e-12, energy_target=None, x0=None,
          hierarchy=None):
    """Solve the discrete problem for the source ``f`` of
    :func:`assemble_system` (values, the problem's sample or the drivers'
    reduced one) and return a :class:`DiscreteSolution`.

    CG is preconditioned with Hiptmair's hybrid smoother: Jacobi plus a
    diagonal solve on the gradients of interior nodal functions
    (:func:`discrete_gradient`), which keeps it converging when eps is
    large against kappa.  On one mesh its iteration count still grows
    like 1/h.  Given the :class:`Hierarchy` of a uniform-refinement run,
    whose last mesh ``mesh`` refines, the solve adds the smoothers of the
    coarser meshes through :func:`prolongation`, the additive multilevel
    sum of :func:`linalg.cg_solve`, and records ``mesh`` for the next
    solve.  The hierarchy restarts at ``mesh`` when ``kappa diam_T^2 >
    eps_T`` on every element: there the mass term dominates, and the
    smoother of the mesh alone is already h-independent, so coarse levels
    only add work; at 48,896 dofs on paper(1e-3, 1e3) they took CG from
    28 to 50 iterations.  ``amr.adaptive_solve`` passes no hierarchy: its
    many locally refined meshes would cost more per level than their
    iterations save.

    CG starts from the free-dof vector ``x0`` (zero if None) and stops on
    the relative residual ``rel_tol``, or with ``rel_tol=None`` on the
    energy estimate against ``energy_target`` (see
    :func:`linalg.cg_solve`).
    """
    matrix, b, dofmap = assemble_system(mesh, coefficients, f)
    smoother = linalg.hybrid_smoother(matrix, discrete_gradient(dofmap))
    coarse = () if hierarchy is None else hierarchy._descend(
        dofmap, smoother, _mass_dominated(mesh, coefficients))
    result = linalg.cg_solve(matrix, b, rel_tol=rel_tol, smoother=smoother, x0=x0,
                             energy_target=energy_target, coarse=coarse)
    return DiscreteSolution(mesh, dofmap, result.x, result.iterations, result.residual)


def _fine_edges(coarse, mesh):
    """Per free edge of ``mesh``, a refinement of ``coarse`` whose
    ``parent_ids`` index its triangles: the coarse triangle p the edge lies
    in, the offset of its midpoint from p's first vertex, and its tangent
    ``head - tail``."""
    parents = mesh.parent_ids
    if parents.min() < 0 or parents.max() + 1 != coarse.num_triangles:
        raise ValueError("mesh.parent_ids do not index the triangles of the coarse mesh")
    free = ~mesh.is_boundary_edge
    p = parents[mesh.edge_tris[free, 0]]
    tail, head = mesh.vertices[mesh.edges[free].T]
    offset = 0.5 * (tail + head) - coarse.vertices[coarse.triangles[p, 0]]
    return p, offset, head - tail


def prolongate(solution, mesh):
    """Free-dof vector of the field ``solution`` on ``mesh``, a refinement
    of ``solution.mesh`` whose ``parent_ids`` index that mesh's triangles.

    Exact: the result is the coarse field itself (module docstring).  It
    agrees with ``prolongation(solution.dofmap, DofMap(mesh)) @
    solution.coefficients`` up to rounding, without building the matrix.
    """
    p, offset, tangent = _fine_edges(solution.mesh, mesh)
    # u at the midpoint, from its value w_0 at the parent's first vertex
    u = solution.vertex_vectors[p, 0] + 0.5 * solution.curls[p, None] * _rot90(offset)
    return np.einsum("ie,ie->i", u, tangent)


def prolongation(coarse_dofmap, fine_dofmap):
    """The matrix of :func:`prolongate`: a ``scipy.sparse.csr_matrix``
    (fine free dofs, coarse free dofs), built by :func:`_csr`, with the
    weights of the three edges of each fine free edge's parent in its row;
    the parent's boundary edges drop.

    The fine moment ``(w_0 + (curl / 2) offset^perp) . t`` is linear in the
    parent's coefficients: the weight of its edge k takes w_0 and the curl
    of its basis function k.
    """
    coarse = coarse_dofmap.mesh
    p, offset, tangent = _fine_edges(coarse, fine_dofmap.mesh)
    g, signs = coarse.barycentric_gradients, coarse.tri_edge_signs
    w0 = np.stack([_vertex_vectors(g, signs, np.eye(3)[k])[:, 0] for k in range(3)], axis=1)
    half_curls = 0.5 * _basis_curls(g, signs)
    # offset^perp . t is the cross product offset x t
    weights = (np.einsum("ike,ie->ik", w0[p], tangent)
               + half_curls[p] * _cross2(offset, tangent)[:, None])
    n = fine_dofmap.n_free
    return _csr(np.arange(n, dtype=np.int32)[:, None],
                coarse_dofmap.element_dofs[p], weights, (n, coarse_dofmap.n_free))


def eval_uh(solution, tri_id, point):
    """Discrete field value at a Cartesian point inside the triangle."""
    mesh = solution.mesh
    _check_id(tri_id, mesh.num_triangles, "triangle")
    # lam is linear with the cached gradients and lam(v_0) = (1, 0, 0)
    lam = mesh.barycentric_gradients[tri_id] @ (np.asarray(point, dtype=float)
                                                - mesh.vertices[mesh.triangles[tri_id, 0]])
    lam[0] += 1.0
    if lam.min() < -1e-12:
        raise ValueError(f"point {point} lies outside triangle {tri_id}")
    return lam @ solution.vertex_vectors[tri_id]


def curl_uh(solution, tri_id):
    """Scalar curl of the discrete field on one element (constant there)."""
    _check_id(tri_id, solution.mesh.num_triangles, "triangle")
    return float(solution.curls[tri_id])


def error_points(mesh, rows=slice(None)):
    """The points (T, Q, 2) of the degree-6 rule on every element, or on
    the elements ``rows``, where the drivers sample the problem once per
    mesh."""
    return np.matmul(_ERROR_RULE.points, mesh.vertices[mesh.triangles[rows]])


class _Linear(NamedTuple):
    """A vector field v on each of N elements, from its values at the
    points of ``_ERROR_RULE``: ``scale`` times the field with moments y
    (N, 3, 2), which fix its discrete L2 projection onto linear fields
    (:func:`_projection`), and with the remainder ``rem`` (N,) of that
    projection, so ``||v - Pi v||^2 = scale^2 rem``.  The scale is one but
    for the u = f / kappa of a trig problem (:func:`_mesh_sample`)."""
    y: np.ndarray
    rem: np.ndarray
    scale: float = 1.0


class _Mean(NamedTuple):
    """A scalar field s on each of N elements, from its values at the
    points of ``_ERROR_RULE``: its mean (N,) and ``||s - mean||^2`` (N,)."""
    mean: np.ndarray
    rem: np.ndarray


class _Reduced(NamedTuple):
    """A problem's sample at :func:`error_points`, reduced on each element
    (module docstring): u and f as :class:`_Linear`, curl u and div f as
    :class:`_Mean`; None where the problem has no such field or it was not
    reduced."""
    u: _Linear
    curl_u: _Mean
    f: _Linear
    div_f: _Mean


def _vertex_sum(v):
    """``sum_i v_i`` (N, 2) of vertex vectors v (N, 3, 2); four times
    faster than ``v.sum(axis=1)``, which reduces the middle axis."""
    return v[:, 0] + v[:, 1] + v[:, 2]


def _projection(y, areas, scale=1.0):
    """Vertex vectors p (N, 3, 2) of the discrete L2 projection onto linear
    fields of ``scale`` times the field with moments y (N, 3, 2): the mass
    matrix of the barycentric coordinates is ``|T| (I + 1 1^T) / 12``,
    whose inverse is ``(12/|T|) (I - 1 1^T / 4)``."""
    mean = _vertex_sum(y)
    mean *= 0.25
    p = y - mean[:, None]
    mean = None
    p *= (12.0 * scale / areas)[:, None, None]
    return p


def _linear_norms_sq(d, areas):
    """Squared L2 norms per element of the linear fields with vertex
    vectors d (N, 3, 2): ``|T|/12 (sum_i |d_i|^2 + |sum_i d_i|^2)``."""
    total = _vertex_sum(d)
    norms = np.einsum("te,te->t", total, total)
    total = None
    norms += np.einsum("tie,tie->t", d, d)
    norms *= areas / 12.0
    return norms


def _reduce_vector(values, areas):
    """``values`` (N, Q, 2) at the points of ``_ERROR_RULE`` on N elements
    with ``areas``, reduced to a :class:`_Linear`."""
    lam = _ERROR_RULE.points
    y = np.matmul(_ERROR_RULE.weights * lam.T, values)  # y / |T| until scaled
    # Pi v at the points is lam @ p = 12 lam (I - 1 1^T / 4) y / |T| (see
    # _projection), and each row of lam sums to one
    remainder = values - np.matmul(12.0 * lam - 3.0, y)
    y *= areas[:, None, None]
    return _Linear(y, _element_norms_sq(remainder, areas))


def _reduce_scalar(values, areas):
    """``values`` (N, Q) at the points of ``_ERROR_RULE`` on N elements
    with ``areas``, reduced to a :class:`_Mean`."""
    mean = np.einsum("tq,q->t", values, _ERROR_RULE.weights)
    return _Mean(mean, _element_norms_sq(values - mean[:, None], areas))


def _reduce_blocks(areas, block_at, fields):
    """The ``fields``, all present, of the sample ``block_at(rows)`` on each
    block of ``mesh._BLOCK`` of the elements with ``areas``, reduced there
    and written into arrays allocated once; the other fields None."""
    n = len(areas)
    reduced = _Reduced(*(None if name not in fields
                         else _Linear(np.empty((n, 3, 2)), np.empty(n)) if name in ("u", "f")
                         else _Mean(np.empty(n), np.empty(n)) for name in _Reduced._fields))
    for rows in _blocks(n):
        block = block_at(rows)
        for name in fields:
            reduce = _reduce_vector if name in ("u", "f") else _reduce_scalar
            for whole, part in zip(getattr(reduced, name)[:2],
                                   reduce(getattr(block, name), areas[rows])):
                whole[rows] = part
        block = None  # freed before the next block is sampled
    return reduced


def _mesh_sample(problem, mesh, previous=None):
    """The drivers' one sample of ``problem`` on ``mesh``:
    ``problem.sample(error_points(mesh))``, taken and reduced one block of
    ``mesh._BLOCK`` triangles at a time, so that no point value outlives
    its block.  Of a trig problem (``ManufacturedProblem._trig_field``)
    only f and div f are reduced; its curl u is a zero of no memory.

    Given ``previous``, this sample of the mesh that ``mesh`` bisects, the
    rows of the unrefined copies, the triangles whose parent
    (``mesh.parent_ids``) has no other child, are gathered from it, and
    only the new triangles are sampled.  Every reduction is row-local, so
    a gathered row holds the bytes that sampling it again gives."""
    trig = problem._trig_field()
    fields = ("f", "div_f") if trig else [name for name in _Reduced._fields
                                          if getattr(problem, name) is not None]
    tris = np.arange(mesh.num_triangles)
    if previous is not None:
        parents = mesh.parent_ids
        n = parents.max(initial=-1) + 1
        if parents.min(initial=0) < 0 or any(getattr(previous, name) is None or np.shape(
                getattr(previous, name).rem) != (n,) for name in fields):
            raise ValueError(f"the previous sample must hold {', '.join(fields)} on each "
                             f"triangle of the parent mesh ({n} triangles)")
        tris = np.flatnonzero(np.bincount(parents)[parents] != 1)
    reduced = _reduce_blocks(mesh.areas[tris],
                             lambda rows: problem.sample(error_points(mesh, tris[rows])), fields)
    if previous is not None:
        carried = {}
        for name in fields:
            arrays = [old[parents] for old in getattr(previous, name)[:2]]
            for whole, new in zip(arrays, getattr(reduced, name)):
                whole[tris] = new
            carried[name] = type(getattr(reduced, name))(*arrays)
        reduced = reduced._replace(**carried)
    if trig is None or problem.u is None:
        return reduced
    zero = np.broadcast_to(0.0, reduced.f.rem.shape)
    return reduced._replace(u=_Linear(reduced.f.y, reduced.f.rem, 1.0 / trig.kappa),
                            curl_u=_Mean(zero, zero))


def _reduced(mesh, sample, fields):
    """``sample`` reduced on each element of ``mesh``.  A reduced sample,
    such as the drivers' (:func:`_mesh_sample`), is returned as it is, and
    refused unless each of its parts holds the triangles of ``mesh``.  Of a
    problem's sample at :func:`error_points` (``ManufacturedProblem.sample``)
    the ``fields`` are refused, in that order, unless shaped (T, Q), or (T,
    Q, 2) for u and f, and reduced by :func:`_reduce_blocks`."""
    if isinstance(sample, _Reduced):
        for part in filter(None, sample):
            if np.shape(part.rem) != (mesh.num_triangles,):
                raise ValueError(f"the sample must be of this mesh: it holds {len(part.rem)} "
                                 f"triangles, the mesh {mesh.num_triangles}")
        return sample
    present = []
    for name in fields:
        values = getattr(sample, name)
        if values is not None:
            values = np.asarray(values, dtype=float)
            points = (mesh.num_triangles, len(_ERROR_RULE.weights))
            expected = points + (2,) if name in ("u", "f") else points
            if values.shape != expected:
                raise ValueError(f"{name.replace('_', ' ')} must hold the values at error_points"
                                 f"(mesh), shape {expected}, got shape {values.shape}")
            sample = sample._replace(**{name: values})
            present.append(name)
    return _reduce_blocks(mesh.areas, lambda rows: sample._replace(
        **{name: getattr(sample, name)[rows] for name in present}), present)


def energy_error(solution, coefficients, u_exact, curl_u_exact):
    """Energy-norm distance between an analytic field and the discrete one:
    ``sqrt(sum_T int_T eps (curl u - curl u_h)^2 + kappa |u - u_h|^2)``,
    integrated at :func:`error_points` of the solution's mesh, where
    ``u_exact`` (T, Q, 2) and ``curl_u_exact`` (T, Q) hold the values, or
    ``sample.u`` and ``sample.curl_u`` of the drivers' sample there; values
    of another mesh, a sample of another mesh or one field of each kind are
    refused.  Both parts are the remainders of the projections of u and curl u plus their
    closed-form distances to u_h and curl u_h (module docstring)."""
    mesh = solution.mesh
    if isinstance(u_exact, _Linear) != isinstance(curl_u_exact, _Mean):
        raise ValueError("u and curl u must both hold the values at error_points(mesh), "
                         "or both be of the drivers' sample")
    kind = _Reduced if isinstance(u_exact, _Linear) else _Sample
    u_exact, curl_u_exact, _, _ = _reduced(mesh, kind(u_exact, curl_u_exact, None, None),
                                           ("u", "curl_u"))
    areas = mesh.areas
    d = _projection(u_exact.y, areas, u_exact.scale)
    d -= solution.vertex_vectors
    l2_part = _linear_norms_sq(d, areas)
    d = None
    l2_part += u_exact.scale ** 2 * u_exact.rem
    curl_part = curl_u_exact.rem + areas * (curl_u_exact.mean - solution.curls) ** 2
    eps_t = coefficients.eps_by_region(mesh.regions)
    return float(np.sqrt((eps_t * curl_part + coefficients.kappa * l2_part).sum()))
