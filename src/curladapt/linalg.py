"""Sparse matrices and a preconditioned conjugate gradient solver.

Matrices are kept in compressed sparse-row form.  Construction from
triplets canonicalises the entry order (row, column, then value) before
summing duplicates, so the result is bit-identical for any permutation of
the input list.  Matrix-vector products are delegated to scipy's CSR
kernel.

:func:`cg_solve` preconditions with the diagonal of the matrix (Jacobi).
Given a discrete gradient G, it adds a diagonal solve on the gradient
space, ``B r = r / diag(A) + G ((G^T r) / diag(G^T A G))``: the
gradient-space half of Hiptmair's hybrid smoother for H(curl) (SIAM J.
Numer. Anal. 36, 1999).  Gradients are the near-kernel of the curl-curl
operator when kappa is small against eps, where Jacobi alone stalls.
"""

from typing import NamedTuple

import numpy as np
import scipy.sparse


class SparseMatrix:
    """CSR matrix: ``indptr`` row offsets, ``indices`` sorted unique column
    ids per row, ``data`` values."""

    def __init__(self, shape, indptr, indices, data):
        self.shape = tuple(shape)
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self._csr = None

    @property
    def nnz(self):
        return len(self.data)

    def _as_scipy(self):
        if self._csr is None:
            self._csr = scipy.sparse.csr_matrix(
                (self.data, self.indices, self.indptr), shape=self.shape)
        return self._csr

    def diagonal(self):
        return self._as_scipy().diagonal()

    def transpose(self):
        t = self._as_scipy().T.tocsr()
        t.sort_indices()
        return SparseMatrix(t.shape, t.indptr, t.indices, t.data)

    def toarray(self):
        return self._as_scipy().toarray()

    def __repr__(self):
        return f"SparseMatrix(shape={self.shape}, nnz={self.nnz})"


def from_triplets(n_rows, n_cols, entries):
    """Build a SparseMatrix from an iterable of (row, col, value) triplets.

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
    return SparseMatrix((n_rows, n_cols), indptr, indices, data)


def spmv(matrix, x):
    """Matrix-vector product y = A x."""
    x = np.asarray(x, dtype=float)
    if x.shape != (matrix.shape[1],):
        raise ValueError(f"dimension mismatch: matrix {matrix.shape}, vector {x.shape}")
    return matrix._as_scipy() @ x


class CgResult(NamedTuple):
    x: np.ndarray
    iterations: int
    residual: float  # final true residual ||b - Ax|| / ||b||


class CgNonConvergence(RuntimeError):
    """CG failed to meet the residual contract; carries the best iterate."""

    def __init__(self, message, x, iterations, residual):
        super().__init__(message)
        self.x = x
        self.iterations = iterations
        self.residual = residual


def cg_solve(matrix, b, rel_tol=1e-12, max_iter=None, gradient=None):
    """Preconditioned conjugate gradients for symmetric positive definite A.

    Without ``gradient`` the preconditioner is Jacobi, ``B r = r /
    diag(A)``.  ``gradient`` is an (n, m) :class:`SparseMatrix` G whose
    columns span a subspace of near-kernel directions (the discrete
    gradients of an edge-element space); the preconditioner then becomes
    ``B r = r / diag(A) + G ((G^T r) / diag(G^T A G))``, which is also
    symmetric positive definite.

    Iterates until the recurrence residual satisfies ``||r|| <= rel_tol *
    ||b||``, then checks the true residual ``||b - A x||`` in float64; if
    rounding has detached the two, the solve restarts from the computed
    iterate (at most twice) before raising :class:`CgNonConvergence`.  A
    restart takes its residual ``b - A x`` in extended precision
    (``np.longdouble``), so that the float64 rounding of that product does
    not cap what the restart can reach; the acceptance check itself stays
    in float64.

    Returns ``(x, iterations, residual)`` with the relative true residual.
    """
    b = np.asarray(b, dtype=float)
    n = matrix.shape[0]
    if matrix.shape != (n, n) or b.shape != (n,):
        raise ValueError("matrix must be square and match the right-hand side")
    if gradient is not None and gradient.shape[0] != n:
        raise ValueError("gradient must have one row per unknown")
    if rel_tol <= 0:
        raise ValueError("rel_tol must be positive")
    if max_iter is None:
        max_iter = 20 * n

    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return CgResult(np.zeros(n), 0, 0.0)
    diag = matrix.diagonal()
    if (diag <= 0).any():
        raise ValueError("matrix has a zero or negative diagonal entry")

    a = matrix._as_scipy()
    if gradient is None:
        def precondition(r):
            return r / diag
    else:
        g = gradient._as_scipy()
        gt = g.T.tocsr()
        diag_g = np.asarray(g.multiply(a @ g).sum(axis=0)).ravel()
        if (diag_g <= 0).any():
            raise ValueError("gradient has an empty column or A is not definite on it")

        def precondition(r):
            return r / diag + g @ ((gt @ r) / diag_g)

    x = np.zeros(n)
    r = b.copy()
    iterations = 0
    for _restart in range(3):
        z = precondition(r)
        p = z.copy()
        rz = r @ z
        while iterations < max_iter and np.linalg.norm(r) > rel_tol * norm_b:
            ap = a @ p
            pap = p @ ap
            if pap <= 0:
                raise ValueError("matrix is not positive definite")
            alpha = rz / pap
            x += alpha * p
            r -= alpha * ap
            z = precondition(r)
            rz_next = r @ z
            p = z + (rz_next / rz) * p
            rz = rz_next
            iterations += 1
        r = b - a @ x  # replace recurrence residual by the true one
        achieved = np.linalg.norm(r) / norm_b
        if achieved <= rel_tol:
            return CgResult(x, iterations, achieved)
        if iterations >= max_iter:
            break
        # near the rounding floor the float64 b - A x is too inexact to restart from
        r = (b - a.astype(np.longdouble) @ x).astype(float)
    raise CgNonConvergence(
        f"CG did not reach relative residual {rel_tol:g} in {iterations} "
        f"iterations (achieved {achieved:.3e})", x, iterations, achieved)
