"""Sparse matrices and a preconditioned conjugate gradient solver.

Every matrix is a ``scipy.sparse.csr_matrix`` with sorted, unique column
indices per row; products, the diagonal and the transpose are scipy's.
:func:`from_triplets` canonicalises the entry order (row, column, then
value) before summing duplicates, so its result is bit-identical for any
permutation of the input.  The package builds its own matrices without
it: ``edge_fem.DofMap.scatter`` assembles the Galerkin matrix and
``edge_fem.discrete_gradient`` writes its already sorted rows directly;
the triplet builders are their test references.

:func:`cg_solve` preconditions with the diagonal of the matrix (Jacobi).
Given a discrete gradient G, it adds a diagonal solve on the gradient
space, ``B r = r / diag(A) + G ((G^T r) / diag(G^T A G))``: the
gradient-space half of Hiptmair's hybrid smoother for H(curl) (SIAM J.
Numer. Anal. 36, 1999).  Gradients are the near-kernel of the curl-curl
operator when kappa is small against eps, where Jacobi alone stalls.

It stops by one of two rules.  The residual contract asks for a fixed
relative residual ``||b - A x|| <= rel_tol * ||b||``; near the float64
floor of the discretisation that number may be unreachable.  The energy
stop bounds the algebraic error ``||x - x_k||_A`` instead, through the
delayed Hestenes-Stiefel estimate (Strakos and Tichy, ETNA 13, 2002),
against a target the caller derives from its discretisation error
(Arioli, Numer. Math. 97, 2004); ``amr.adaptive_solve`` uses it.
"""

import collections
import itertools
from typing import NamedTuple

import numpy as np
import scipy.sparse


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


# Energy stop: delay d of the Hestenes-Stiefel estimate, and the target on
# its square relative to the energy gained so far, for a solve that knows
# no absolute target yet.
ENERGY_DELAY = 8
ENERGY_RELATIVE_TOL = 1e-8


class CgResult(NamedTuple):
    x: np.ndarray
    iterations: int
    residual: float  # final true residual ||b - Ax|| / ||b||


class CgNonConvergence(RuntimeError):
    """CG failed to meet its stopping rule; carries the best iterate."""

    def __init__(self, message, x, iterations, residual):
        super().__init__(message)
        self.x = x
        self.iterations = iterations
        self.residual = residual


def _cg_steps(a, precondition, x, r):
    """Preconditioned CG from the iterate ``x`` with residual ``r = b - A x``.

    Updates ``x`` and ``r`` in place and yields ``alpha_j r_j . z_j`` after
    every step; stops once ``r . z`` is no longer positive (an exact zero
    residual).
    """
    z = precondition(r)
    p = z.copy()
    rz = r @ z
    while rz > 0:
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
        yield alpha * rz
        rz = rz_next


def cg_solve(matrix, b, rel_tol=1e-12, max_iter=None, gradient=None, x0=None,
             energy_target=None):
    """Preconditioned conjugate gradients for symmetric positive definite A.

    Without ``gradient`` the preconditioner is Jacobi, ``B r = r /
    diag(A)``.  ``gradient`` is an (n, m) ``scipy.sparse.csr_matrix`` G
    whose columns span a subspace of near-kernel directions (the discrete
    gradients of an edge-element space); the preconditioner then becomes
    ``B r = r / diag(A) + G ((G^T r) / diag(G^T A G))``, which is also
    symmetric positive definite.  CG starts from ``x0`` (zero if None), so
    a solve can be resumed from an earlier iterate.

    Two stopping rules:

    * Residual contract (``rel_tol`` a number).  Iterates until the
      recurrence residual satisfies ``||r|| <= rel_tol * ||b||``, then
      checks the true residual ``||b - A x||`` in float64; if rounding has
      detached the two, the solve restarts from the computed iterate (at
      most twice) before raising :class:`CgNonConvergence`.  A restart
      takes its residual ``b - A x`` in extended precision
      (``np.longdouble``), so that the float64 rounding of that product
      does not cap what the restart can reach; the acceptance check itself
      stays in float64.
    * Energy stop (``rel_tol=None``).  Bounds the algebraic error in the
      A-norm instead.  Step j contributes ``alpha_j r_j . z_j``; at step k
      the delayed sum of the last d = ``ENERGY_DELAY`` contributions is the
      Hestenes-Stiefel estimate of ``||x - x_{k-d}||_A^2`` (Strakos and
      Tichy, ETNA 13, 2002), and ``||x - x_k||_A`` is no larger than
      ``||x - x_{k-d}||_A``.  CG stops once that sum is at most
      ``energy_target**2``.  Without ``energy_target`` it stops once the
      sum is at most ``ENERGY_RELATIVE_TOL`` times the running sum of all
      contributions, which is ``||x_k - x0||_A^2``.  An exactly zero
      residual stops either rule, also before d steps.  Reaching
      ``max_iter`` first raises :class:`CgNonConvergence`.

    Returns ``(x, iterations, residual)`` with the relative true residual.
    """
    b = np.asarray(b, dtype=float)
    n = matrix.shape[0]
    if matrix.shape != (n, n) or b.shape != (n,):
        raise ValueError("matrix must be square and match the right-hand side")
    if gradient is not None and gradient.shape[0] != n:
        raise ValueError("gradient must have one row per unknown")
    if x0 is not None and np.shape(x0) != (n,):
        raise ValueError("x0 must have one entry per unknown")
    if rel_tol is not None:
        if not 0 < rel_tol < np.inf:
            raise ValueError("rel_tol must be positive and finite")
        if energy_target is not None:
            raise ValueError("energy_target needs rel_tol=None")
    elif energy_target is not None and not 0 < energy_target < np.inf:
        raise ValueError("energy_target must be positive and finite")
    if max_iter is None:
        max_iter = 20 * n

    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return CgResult(np.zeros(n), 0, 0.0)
    diag = matrix.diagonal()
    if (diag <= 0).any():
        raise ValueError("matrix has a zero or negative diagonal entry")

    a = matrix
    if gradient is None:
        def precondition(r):
            return r / diag
    else:
        g = gradient
        gt = g.T.tocsr()
        diag_g = np.asarray(g.multiply(a @ g).sum(axis=0)).ravel()
        if (diag_g <= 0).any():
            raise ValueError("gradient has an empty column or A is not definite on it")

        def precondition(r):
            return r / diag + g @ ((gt @ r) / diag_g)

    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    r = b - a @ x
    iterations = 0
    if rel_tol is None:
        window = collections.deque(maxlen=ENERGY_DELAY)
        energy = 0.0
        bound = 0.0 if energy_target is None else energy_target ** 2
        for term in itertools.islice(_cg_steps(a, precondition, x, r), max_iter):
            iterations += 1
            window.append(term)
            if energy_target is None:
                energy += term
                bound = ENERGY_RELATIVE_TOL * energy
            if len(window) == ENERGY_DELAY and sum(window) <= bound:
                break
        else:
            if r.any():
                achieved = np.linalg.norm(b - a @ x) / norm_b
                raise CgNonConvergence(
                    f"CG did not reach energy target {np.sqrt(bound):.3e} in "
                    f"{iterations} iterations (estimate {np.sqrt(sum(window)):.3e})",
                    x, iterations, achieved)
        return CgResult(x, iterations, np.linalg.norm(b - a @ x) / norm_b)

    for _restart in range(3):
        steps = _cg_steps(a, precondition, x, r)
        while iterations < max_iter and np.linalg.norm(r) > rel_tol * norm_b:
            if next(steps, None) is None:
                break
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
