"""Reference builders the tests compare the package against.

:func:`from_triplets` canonicalises the entry order (row, column, then
value) before summing duplicates, so its result is bit-identical for any
permutation of the input.  The package builds its matrices without it:
``edge_fem.DofMap.scatter`` hands the Galerkin matrix's triplets to
scipy's COO-to-CSR conversion, which sums the duplicates (at most two
terms each, so their order cannot change a bit), and
``edge_fem.discrete_gradient`` still writes its already sorted rows
directly.
:func:`edge_rule` integrates along edges, where the estimators use closed
forms.
:func:`galerkin_residual` tests the discrete variational identity by
quadrature against the analytic solution, where the package only solves
it.
"""

import numpy as np
import scipy.sparse

from curladapt import edge_fem


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
    at the points of the load rule and with its moment kernel.  Vanishes up
    to quadrature and roundoff after a converged solve."""
    mesh = solution.mesh
    coeffs = problem.coefficients
    eps_t = coeffs.eps_by_region(mesh.regions)
    rule = edge_fem._LOAD_RULE
    points = np.matmul(rule.points, mesh.vertices[mesh.triangles])
    du = np.asarray(problem.u(points), dtype=float) - np.matmul(rule.points,
                                                                solution.vertex_vectors)
    dcurl = np.asarray(problem.curl_u(points), dtype=float) - solution.curls[:, None]
    basis_curls = edge_fem._basis_curls(mesh.barycentric_gradients, mesh.tri_edge_signs)
    mass_part = coeffs.kappa * edge_fem._moments(mesh, du)
    curl_diff = np.einsum("q,tq->t", rule.weights, dcurl)
    curl_part = (eps_t * mesh.areas * curl_diff)[:, None] * basis_curls
    return solution.dofmap.scatter(mass_part + curl_part)
