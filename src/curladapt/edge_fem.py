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
(:func:`assemble_system`), the discrete gradient and the prolongations,
comes from one builder, :func:`_csr`: scipy's conversion of int32
triplets.  Each is formed one block at a time, of ``mesh._BLOCK``
triangles for the Galerkin matrix and as many edges for the others.  A
block writes only the triplets it keeps, those without a boundary row or
column, straight into arrays of their final length, and is dropped before
the next one is formed.  So no builder holds a whole-mesh array of local
matrices, weights, broadcasts or masks; its peak is its kept triplets and
scipy's CSR of them.  The triplets follow their rows in any block size,
so the block size changes no bit.  ``linalg.hybrid_smoother`` reads
diag(G^T A G) from blocks of rows of A in the same way.

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
Every reader of the problem (:func:`assemble_system`, :func:`solve`,
:func:`energy_error`, the estimators) takes one sample of the mesh:
``ManufacturedProblem.sample`` at :func:`error_points`, reduced first, or
the drivers' reduced one; one gate, :func:`_reduced`, checks it against
the mesh and refuses anything else.  The load moments are the adjoint of
the vertex vectors applied to y of f (:func:`_moments`), so the load is
the one the points give; its rounding differs from a basis-tensor einsum
in the last bits.  Every other reader needs an L2 distance to a linear or a
constant field, and has it in closed form through the discrete Pythagoras
split ``||v - w||^2 = ||v - Pi v||^2 + ||Pi v - w||^2``: the rule is exact
for degree 2, so ``v - Pi v`` is orthogonal to every linear field, and
``int_T |sum_i lam_i d_i|^2 = |T|/12 (sum_i |d_i|^2 + |sum_i d_i|^2)``
(:func:`_linear_norms_sq`).  :func:`energy_error` and the estimators' R1,
R2 and oscillations are such sums of nonnegative parts, equal to the
quadrature of the points up to rounding.  Every reduction is row-local: a
row's numbers are the same bytes whatever the rows reduced with it, so
neither the block size nor a carried row moves a bit.  The quadrature
sums are ``einsum`` loops for that reason; the gemv of OpenBLAS
(``values @ weights``) rounds the last ``n mod 4`` rows of a call
differently.

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
    mesh id: the index type of the triplets of :func:`_csr`, which scipy
    keeps without a copy.
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
        """Sum local vectors (T, 3) into a free-dof vector; the entries of
        boundary slots drop.  It holds the free entries and their dofs
        while one bincount sums them.

        No entry sums more than two element terms (an edge has at most two
        triangles), and two-term float addition commutes: the order cannot
        change a bit.  Local matrices go to :func:`_csr` block by block
        instead (:func:`assemble_system`).
        """
        free = self.element_dofs >= 0
        return linalg._weighted_count(self.element_dofs[free], local[free], self.n_free)


def _element_norms_sq(values, areas):
    """Squared L2 norms per element of samples (T, Q) or (T, Q, 2) at the
    points of ``_ERROR_RULE``."""
    squares = values ** 2 if values.ndim == 2 else values[..., 0] ** 2 + values[..., 1] ** 2
    return np.einsum("tq,q->t", squares, _ERROR_RULE.weights) * areas


def _csr(blocks, nnz, shape):
    """The one sparse builder of the package: the ``scipy.sparse.csr_matrix``
    of ``shape`` with the triplets that ``blocks`` yields one block at a
    time, each block as (rows, cols, vals) broadcast together, where a
    triplet with a -1 row or column drops.

    ``nnz`` is the number of triplets kept.  Each block writes its kept
    triplets straight into three arrays of that final length, int32 rows
    and columns and float values, and is dropped before the next one is
    formed; so no full-size mask, broadcast or masked copy is ever held,
    and the builder's peak is those arrays plus scipy's CSR of them.
    scipy's COO conversion sorts each row and sums the duplicate triplets,
    which makes true the sorted, unique column indices per row that
    ``linalg`` relies on.  The kept triplets follow the blocks' order,
    which is the order of the rows of their items, so the block size
    changes no bit."""
    rows, cols, vals = np.empty(nnz, dtype=np.int32), np.empty(nnz, dtype=np.int32), np.empty(nnz)
    end = 0
    for block in blocks:
        r, c, v = np.broadcast_arrays(*block)
        keep = (r >= 0) & (c >= 0)
        start, end = end, end + np.count_nonzero(keep)
        rows[start:end], cols[start:end], vals[start:end] = r[keep], c[keep], v[keep]
        block = r = c = v = keep = None  # freed before the next block is formed
    assert end == nnz, (end, nnz)
    return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=shape)


def discrete_gradient(dofmap):
    """Discrete gradient G from interior vertices to free edges.

    Column j belongs to the j-th interior vertex in vertex-id order; row
    i to free dof i.  The free edge from vertex lo to vertex hi (edges are
    oriented low to high) has +1 in the column of hi and -1 in the column
    of lo, so ``G @ v`` holds the edge moments of the gradient of the
    continuous piecewise-linear function with interior nodal values v and
    zero boundary values.  Boundary vertices have no column.  Built by
    :func:`_csr` one block of edges at a time, where the triplets of a
    boundary edge or a boundary vertex drop.
    """
    mesh = dofmap.mesh
    interior = np.ones(mesh.num_vertices, dtype=bool)
    interior[mesh.edges[mesh.is_boundary_edge]] = False
    n_interior = int(interior.sum())
    vertex_dof = np.full(mesh.num_vertices, -1, dtype=np.int32)
    vertex_dof[interior] = np.arange(n_interior)
    # an edge's row is its dof, its triplets [lo, hi]; both ends of a
    # boundary edge lie on the boundary, so each interior end is kept
    blocks = ((dofmap.edge_dof[rows, None], vertex_dof[mesh.edges[rows]], np.array([-1.0, 1.0]))
              for rows in _blocks(mesh.num_edges))
    return _csr(blocks, np.count_nonzero(interior[mesh.edges]), (dofmap.n_free, n_interior))


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


def assemble_system(mesh, coefficients, sample):
    """Assemble the free-dof Galerkin matrix and load vector.

    The bilinear form is ``eps * (curl u, curl v) + kappa * (u, v)`` with
    elementwise-constant eps taken from the coefficient field by region
    tag.  ``sample`` is the problem's sample at :func:`error_points` of
    ``mesh`` (``ManufacturedProblem.sample``) or the drivers' reduced one
    (:func:`_mesh_sample`); of it only f is read.  The load ``int f . phi``
    is integrated at those points, as the adjoint of the vertex vectors
    applied to the moments of f (:func:`_moments`).

    The local matrices of one block of ``mesh._BLOCK`` triangles at a time
    go to :func:`_csr` with their element dofs and are dropped there, so
    the matrix's peak is its kept triplets and scipy's CSR of them; the
    element moments of the load are formed and scattered after those are
    freed.
    """
    f = _reduced(mesh, sample, ("f",)).f
    eps_t = coefficients.eps_by_region(mesh.regions)
    g, areas, signs = mesh.barycentric_gradients, mesh.areas, mesh.tri_edge_signs
    dofmap = DofMap(mesh)
    ed = dofmap.element_dofs

    def local(rows):
        stiffness, mass = _local_matrices(g[rows], areas[rows], signs[rows], eps_t[rows],
                                          coefficients.kappa)
        stiffness += mass
        return stiffness

    # a triangle keeps the pairs of its free slots
    nnz = np.square(_vertex_sum((ed >= 0).astype(np.int64))).sum()
    matrix = _csr(((ed[rows, :, None], ed[rows, None, :], local(rows))
                   for rows in _blocks(mesh.num_triangles)), nnz, (dofmap.n_free,) * 2)
    return matrix, dofmap.scatter(_moments(mesh, f.y)), dofmap


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


def solve(mesh, coefficients, sample, rel_tol=1e-12, energy_target=None, x0=None,
          hierarchy=None):
    """Solve the discrete problem for the source f of ``sample``, read as
    :func:`assemble_system` reads it, and return a
    :class:`DiscreteSolution`.

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
    matrix, b, dofmap = assemble_system(mesh, coefficients, sample)
    smoother = linalg.hybrid_smoother(matrix, discrete_gradient(dofmap))
    coarse = () if hierarchy is None else hierarchy._descend(
        dofmap, smoother, _mass_dominated(mesh, coefficients))
    result = linalg.cg_solve(matrix, b, rel_tol=rel_tol, smoother=smoother, x0=x0,
                             energy_target=energy_target, coarse=coarse)
    return DiscreteSolution(mesh, dofmap, result.x, result.iterations, result.residual)


def _fine_edges(coarse, mesh):
    """The edges of ``mesh``, a refinement of ``coarse`` whose
    ``parent_ids`` index its triangles, one block of ``mesh._BLOCK`` edges
    at a time: per block its rows (a slice of edge ids) and per edge the
    coarse triangle p the edge lies in, the offset of its midpoint from
    p's first vertex, and its tangent ``head - tail``.  The parents are
    checked before the first block."""
    parents = mesh.parent_ids
    if parents.min() < 0 or parents.max() + 1 != coarse.num_triangles:
        raise ValueError("mesh.parent_ids do not index the triangles of the coarse mesh")

    def block(rows):
        p = parents[mesh.edge_tris[rows, 0]]
        tail, head = mesh.vertices[mesh.edges[rows].T]
        return rows, p, 0.5 * (tail + head) - coarse.vertices[coarse.triangles[p, 0]], head - tail

    return map(block, _blocks(mesh.num_edges))


def prolongate(solution, mesh):
    """Free-dof vector of the field ``solution`` on ``mesh``, a refinement
    of ``solution.mesh`` whose ``parent_ids`` index that mesh's triangles.

    Exact: the result is the coarse field itself (module docstring).  It
    agrees with ``prolongation(solution.dofmap, DofMap(mesh)) @
    solution.coefficients`` up to rounding, without building the matrix.
    """
    moments = np.empty(mesh.num_edges)
    for rows, p, offset, tangent in _fine_edges(solution.mesh, mesh):
        # u at the midpoint, from its value w_0 at the parent's first vertex
        u = solution.vertex_vectors[p, 0] + 0.5 * solution.curls[p, None] * _rot90(offset)
        moments[rows] = np.einsum("ie,ie->i", u, tangent)
    return moments[~mesh.is_boundary_edge]


def prolongation(coarse_dofmap, fine_dofmap):
    """The matrix of :func:`prolongate`: a ``scipy.sparse.csr_matrix``
    (fine free dofs, coarse free dofs) with the weights of the three edges
    of each fine free edge's parent in its row; the parent's boundary
    edges drop.

    The fine moment ``(w_0 + (curl / 2) offset^perp) . t`` is linear in the
    parent's coefficients: the weight of its edge k takes w_0 and the curl
    of its basis function k.  w_0 and the half curls are formed once per
    coarse triangle; the weights are gathered from them one block of
    ``mesh._BLOCK`` fine edges at a time (:func:`_fine_edges`) and go to
    :func:`_csr` with their rows and columns, so the matrix's peak is its
    kept triplets and scipy's CSR of them.
    """
    coarse, mesh = coarse_dofmap.mesh, fine_dofmap.mesh
    edges = _fine_edges(coarse, mesh)
    g, signs = coarse.barycentric_gradients, coarse.tri_edge_signs
    # w_0 (Tc, 3, 2) of each basis function k: the first row of
    # _vertex_vectors(g, signs, e_k), a_0 grad(lam_1) - a_2 grad(lam_2) with
    # a = e_k * signs, in its operations and so in its bits
    a = np.eye(3) * signs[:, None, :]
    w0 = a[:, :, 0, None] * g[:, None, 1] - a[:, :, 2, None] * g[:, None, 2]
    a = None
    half_curls = 0.5 * _basis_curls(g, signs)
    coarse_dofs = coarse_dofmap.element_dofs
    # a fine free edge keeps the free edges of its parent
    nnz = _vertex_sum((coarse_dofs >= 0).astype(np.int64))[
        mesh.parent_ids[mesh.edge_tris[~mesh.is_boundary_edge, 0]]].sum()
    # offset^perp . t is the cross product offset x t
    blocks = ((fine_dofmap.edge_dof[rows, None], coarse_dofs[p],
               np.einsum("ike,ie->ik", w0[p], tangent)
               + half_curls[p] * _cross2(offset, tangent)[:, None])
              for rows, p, offset, tangent in edges)
    return _csr(blocks, nnz, (fine_dofmap.n_free, coarse_dofmap.n_free))


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
    """``sum_i v_i`` (N, 2) of vertex vectors v (N, 3, 2), or (N,) of
    v (N, 3); four times faster than ``v.sum(axis=1)``, which reduces the
    middle axis."""
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
    """``sample`` reduced on each element of ``mesh``: the one gate of every
    reader's sample.  A reduced sample, such as the drivers'
    (:func:`_mesh_sample`), is returned as it is, and refused unless each of
    its parts holds the triangles of ``mesh``.  Of a problem's sample at
    :func:`error_points` (``ManufacturedProblem.sample``) the ``fields`` are
    refused, in that order, unless shaped (T, Q), or (T, Q, 2) for u and f,
    and reduced by :func:`_reduce_blocks`.  Anything else is refused."""
    if isinstance(sample, _Reduced):
        for part in filter(None, sample):
            if np.shape(part.rem) != (mesh.num_triangles,):
                raise ValueError(f"the sample must be of this mesh: it holds {len(part.rem)} "
                                 f"triangles, the mesh {mesh.num_triangles}")
        return sample
    if not isinstance(sample, _Sample):
        raise TypeError(f"the sample must be a problem's sample at error_points(mesh) or the "
                        f"drivers' reduced one, got {type(sample).__name__}")
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


def energy_error(solution, coefficients, sample):
    """Energy-norm distance between the exact field u of ``sample`` and the
    discrete one: ``sqrt(sum_T int_T eps (curl u - curl u_h)^2 + kappa |u -
    u_h|^2)``, integrated at :func:`error_points` of the solution's mesh.
    ``sample`` is read as :func:`assemble_system` reads it, here for u and
    curl u; a sample without them is refused.  Both parts are the remainders
    of the projections of u and curl u plus their closed-form distances to
    u_h and curl u_h (module docstring)."""
    mesh = solution.mesh
    u_exact, curl_u_exact = _reduced(mesh, sample, ("u", "curl_u"))[:2]
    if u_exact is None or curl_u_exact is None:
        raise ValueError("the sample must hold the exact solution u and its curl")
    areas = mesh.areas
    d = _projection(u_exact.y, areas, u_exact.scale)
    d -= solution.vertex_vectors
    l2_part = _linear_norms_sq(d, areas)
    d = None
    l2_part += u_exact.scale ** 2 * u_exact.rem
    curl_part = curl_u_exact.rem + areas * (curl_u_exact.mean - solution.curls) ** 2
    eps_t = coefficients.eps_by_region(mesh.regions)
    return float(np.sqrt((eps_t * curl_part + coefficients.kappa * l2_part).sum()))
