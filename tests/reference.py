"""Reference builders the tests compare the package against.

:func:`edge_table` builds the edge topology of a triangle list with a row
sort, ``np.unique`` and a stable argsort, where ``Mesh`` sorts the slot
keys once.
:func:`records_digest` pins driver records bit for bit, and
:func:`counting_trig_problem` records where a trig problem is sampled.

:func:`from_triplets` canonicalises the entry order (row, column, then
value) before summing duplicates, so its result is bit-identical for any
permutation of the input.  The package builds its matrices without it:
``edge_fem._csr`` hands the triplets of the Galerkin matrix, the discrete
gradient and the prolongations to scipy's COO-to-CSR conversion, which
sorts each row and sums the duplicates (at most two terms each, so their
order cannot change a bit).
:func:`edge_rule` integrates along edges, where the estimators use closed
forms.
:func:`galerkin_residual` tests the discrete variational identity by
quadrature against the analytic solution, where the package only solves
it.
:func:`point_energy_error`, :func:`point_residual_norms` and
:func:`point_oscillation_parts` integrate the energy error, the squared
norms of R1 and R2 and the element parts of the oscillations at the
points of ``edge_fem.error_points`` directly, where the package reduces
the problem on each element first and uses closed forms.
:func:`bisected_two_region_mesh` and :func:`random_field` build a mesh of
several blocks and a field on it for the tests of the blocks and of the
reduction.
:func:`horizontal_split` and :func:`checkerboard` are region layouts that
no vertical split describes.
:func:`traced_memory` measures what a call allocates under tracemalloc.
"""

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import scipy.sparse

from curladapt import edge_fem, estimators, problems
from curladapt import mesh as mesh_module


def from_triplets(n_rows, n_cols, entries):
    """Build a CSR matrix from an iterable of (row, col, value) triplets.

    Duplicate positions are summed.  Entries are sorted by (row, col,
    value) first, which makes the floating-point sums independent of the
    order the triplets were supplied in.
    """
    entries = list(entries)
    if entries:
        arr = np.asarray(entries, dtype=float)
        rows = arr[:, 0].astype(np.int64)
        cols = arr[:, 1].astype(np.int64)
        vals = arr[:, 2]
    else:
        rows = cols = np.empty(0, dtype=np.int64)
        vals = np.empty(0)
    return from_triplet_arrays(n_rows, n_cols, rows, cols, vals)


def from_triplet_arrays(n_rows, n_cols, rows, cols, vals):
    """Array-valued variant of :func:`from_triplets` (same semantics)."""
    rows = np.asarray(rows).astype(np.int64)
    cols = np.asarray(cols).astype(np.int64)
    vals = np.asarray(vals, dtype=float)
    if rows.size:
        if rows.min() < 0 or rows.max() >= n_rows or cols.min() < 0 or cols.max() >= n_cols:
            raise ValueError("triplet index out of range")
    order = np.lexsort((vals, cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    if rows.size:
        new_group = np.empty(len(rows), dtype=bool)
        new_group[0] = True
        new_group[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        starts = np.nonzero(new_group)[0]
        data = np.add.reduceat(vals, starts)
        indices = cols[starts]
        row_counts = np.bincount(rows[starts], minlength=n_rows)
    else:
        data = vals
        indices = cols
        row_counts = np.zeros(n_rows, dtype=np.int64)
    indptr = np.concatenate([[0], np.cumsum(row_counts)]).astype(np.int64)
    return scipy.sparse.csr_matrix((data, indices, indptr), shape=(n_rows, n_cols))


def edge_rule(n_points=4):
    """Gauss-Legendre points and unit-sum weights on [0, 1]; exact for
    polynomials up to degree ``2*n_points - 1``.  Multiply by the edge
    length when integrating."""
    if n_points < 1:
        raise ValueError("need at least one point")
    x, w = np.polynomial.legendre.leggauss(n_points)
    return 0.5 * (x + 1.0), 0.5 * w


def galerkin_residual(solution, problem):
    """Residual of the discrete variational identity tested against every
    free basis function, computed by quadrature against the analytic
    solution: ``eps (curl u - curl u_h, curl phi) + kappa (u - u_h, phi)``,
    at the points of the load and with its moment kernel.  Vanishes up to
    quadrature and roundoff after a converged solve."""
    mesh = solution.mesh
    coeffs = problem.coefficients
    eps_t = coeffs.eps_by_region(mesh.regions)
    rule = edge_fem._ERROR_RULE
    points = edge_fem.error_points(mesh)
    du = np.asarray(problem.u(points), dtype=float) - np.matmul(rule.points,
                                                                solution.vertex_vectors)
    dcurl = np.asarray(problem.curl_u(points), dtype=float) - solution.curls[:, None]
    basis_curls = edge_fem._basis_curls(mesh.barycentric_gradients, mesh.tri_edge_signs)
    y = np.matmul(rule.weights * rule.points.T, du)
    y *= mesh.areas[:, None, None]
    mass_part = coeffs.kappa * edge_fem._moments(mesh, y)
    curl_diff = np.einsum("q,tq->t", rule.weights, dcurl)
    curl_part = (eps_t * mesh.areas * curl_diff)[:, None] * basis_curls
    return solution.dofmap.scatter(mass_part + curl_part)


def horizontal_split(x):
    """The classifier of the halves below and above x2 = 1/2."""
    return np.where(x[..., 1] < 0.5, mesh_module.OMEGA1, mesh_module.OMEGA2)


def checkerboard(x):
    """The classifier of the four quadrants of the unit square: ``OMEGA1``
    on the lower left and the upper right, ``OMEGA2`` on the other two."""
    return np.where((x[..., 0] < 0.5) == (x[..., 1] < 0.5), mesh_module.OMEGA1,
                    mesh_module.OMEGA2)


def bisected_two_region_mesh(problem):
    """The 8x8 square tagged by ``problem``'s classifier, bisected at every
    third triangle until it holds more than two blocks of
    ``mesh._BLOCK`` triangles."""
    mesh = mesh_module.tag_regions(mesh_module.build_structured_unit_square(8),
                                   problem.classifier)
    while mesh.num_triangles <= 2 * mesh_module._BLOCK:
        mesh = mesh_module.bisect_refine(mesh, set(range(0, mesh.num_triangles, 3)))
    return mesh


def random_field(mesh, seed):
    """A discrete field on ``mesh`` with standard normal coefficients."""
    dofmap = edge_fem.DofMap(mesh)
    coefficients = np.random.default_rng(seed).standard_normal(dofmap.n_free)
    return edge_fem.DiscreteSolution(mesh, dofmap, coefficients)


def _point_norms_sq(values, areas):
    """Squared L2 norms per element of values (T, Q) or (T, Q, 2) at the
    points of ``edge_fem._ERROR_RULE``."""
    squares = values ** 2 if values.ndim == 2 else (values ** 2).sum(axis=-1)
    return squares @ edge_fem._ERROR_RULE.weights * areas


def _uh_at_points(solution):
    return np.matmul(edge_fem._ERROR_RULE.points, solution.vertex_vectors)


def point_energy_error(solution, coefficients, u, curl_u):
    """The energy error of ``edge_fem.energy_error`` from the values u
    (T, Q, 2) and curl u (T, Q) at ``edge_fem.error_points``, integrated
    there point by point."""
    mesh = solution.mesh
    l2_part = _point_norms_sq(u - _uh_at_points(solution), mesh.areas)
    curl_part = _point_norms_sq(curl_u - solution.curls[:, None], mesh.areas)
    eps_t = coefficients.eps_by_region(mesh.regions)
    return float(np.sqrt((eps_t * curl_part + coefficients.kappa * l2_part).sum()))


def _point_residuals(solution, kappa, sample):
    """R1 = -div f (T, Q) and R2 = f - kappa u_h (T, Q, 2) at the points."""
    return -sample.div_f, sample.f - kappa * _uh_at_points(solution)


def point_residual_norms(solution, kappa, sample):
    """Squared L2 norms (T,) of R1 and R2, from the problem's ``sample`` at
    ``edge_fem.error_points``, integrated there point by point."""
    return tuple(_point_norms_sq(r, solution.mesh.areas)
                 for r in _point_residuals(solution, kappa, sample))


def point_oscillation_parts(solution, problem, sample):
    """The element parts of ``estimators.oscillations``: the squared
    distances of R1 and R2 from their means over each element, integrated
    at the points and weighted by ``s_T^2`` and ``hbar_T^2``."""
    mesh = solution.mesh
    weights = edge_fem._ERROR_RULE.weights
    sizes = estimators.weighted_sizes(mesh, problem.coefficients)
    r1, r2 = _point_residuals(solution, problem.coefficients.kappa, sample)
    part1 = _point_norms_sq(r1 - (r1 @ weights)[:, None], mesh.areas)
    part2 = _point_norms_sq(r2 - (weights @ r2)[:, None, :], mesh.areas)
    return sizes.element_size ** 2 * part1, sizes.hbar_element ** 2 * part2


def edge_table(triangles, num_vertices):
    """Edges (E, 2) oriented low to high and numbered in lexicographic
    order, tri_edges (T, 3), and edge_tris, edge_tri_local (E, 2) with the
    smaller triangle id first and -1 in the second column of a boundary
    edge: the ``Mesh`` edge topology, through ``np.unique`` and a stable
    argsort of the edge ids."""
    triangles = np.asarray(triangles)
    pairs = np.stack([triangles[:, [i, j]] for i, j in ((0, 1), (1, 2), (2, 0))], axis=1)
    lo, hi = np.sort(pairs.reshape(-1, 2), axis=1).T
    keys, inverse = np.unique(lo * num_vertices + hi, return_inverse=True)
    edges = np.stack([keys // num_vertices, keys % num_vertices], axis=1)
    counts = np.bincount(inverse, minlength=len(keys))
    order = np.argsort(inverse, kind="stable")  # slots 3 t + k, grouped by edge
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    slots = np.full((len(keys), 2), -1, dtype=np.int64)
    slots[:, 0] = order[starts]
    interior = counts == 2
    slots[interior, 1] = order[starts[interior] + 1]
    edge_tris = np.where(slots >= 0, slots // 3, -1)
    edge_tri_local = np.where(slots >= 0, slots % 3, -1)
    return edges, inverse.reshape(-1, 3), edge_tris, edge_tri_local


def records_digest(records):
    """sha256 of driver records (``AdaptiveRecord`` or ``TableRow``), with
    every float written as ``float.hex``: equal digests mean records equal
    bit for bit."""
    h = hashlib.sha256()
    for record in records:
        values = dataclasses.astuple(record) if dataclasses.is_dataclass(record) else record
        h.update(repr([float(v).hex() if isinstance(v, float) else int(v)
                       for v in values]).encode())
    return h.hexdigest()


@dataclasses.dataclass(frozen=True)
class _CountingTrigField(problems._TrigField):
    shapes: list = dataclasses.field(default_factory=list, compare=False)

    def sample(self, x):
        self.shapes.append(np.shape(x)[:-1])
        return super().sample(x)


def counting_trig_problem(problem):
    """``problem`` (a paper or interface problem) with its trig field
    replaced by one that records the shape (N, Q) of every point set its
    fields are evaluated at, jointly or one at a time; returns the problem
    and that list."""
    trig = _CountingTrigField(problem.coefficients.kappa)
    return dataclasses.replace(problem, u=trig.u, curl_u=trig.curl_u, f=trig.f,
                               div_f=trig.div_f), trig.shapes


def traced_memory(call):
    """The result of ``call()``, the peak of the memory traced while it
    ran and the memory still allocated when it returned (its result
    included), both in bytes."""
    tracemalloc.start()
    try:
        result = call()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, kept
