"""Sparse matrices and a preconditioned conjugate gradient solver.

Every matrix is a ``scipy.sparse.csr_matrix`` with sorted, unique column
indices per row, as ``edge_fem._csr``, the one builder of A, G and P,
makes them; products, the diagonal and the transpose are scipy's.

Each level of the preconditioner is Hiptmair's hybrid smoother for
H(curl) (SIAM J. Numer. Anal. 36, 1999), ``S r = r / diag(A) + G ((G^T r)
/ diag(G^T A G))``: Jacobi plus a diagonal solve on the gradient space
spanned by the columns of a discrete gradient G, or Jacobi alone without
one (:func:`hybrid_smoother`).  Gradients are the near-kernel of the
curl-curl operator when kappa is small against eps, where Jacobi alone
stalls.  On one level the work of the smoother still grows like 1/h.
Given the coarser levels of a nested hierarchy, :func:`cg_solve` adds
their smoothers through the prolongations P_l from each level to the
next: ``B = sum_l P_{L<-l} S_l P_{L<-l}^T``, the additive multilevel
(BPX) preconditioner (Bramble, Pasciak and Xu, Math. Comp. 55, 1990).  It
is symmetric positive definite as every S_l is, and one application costs
one restriction sweep down the levels and one prolongation sweep up.
``edge_fem.solve`` builds the levels from the red refinements of a
uniform run and decides where they start; the adaptive driver runs on
one level (see there).

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

# Rows of A per block of the product A G that diag(G^T A G) is read from
# (:func:`hybrid_smoother`).  Each block costs four scipy calls: at 48,896
# dofs blocks of 2048 rows took 9.3 ms and blocks of 8192 rows 6.3 ms,
# whose temporaries stay under 2 MiB
_ROW_BLOCK = 8192

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


class Smoother(NamedTuple):
    """Hiptmair's hybrid smoother of one level, ``S r = r / diag +
    gradient ((gradient^T r) / gradient_diag)``; Jacobi alone where
    ``gradient`` is None.  Built by :func:`hybrid_smoother`."""
    diag: np.ndarray
    gradient: object = None
    gradient_diag: np.ndarray = None


class Level(NamedTuple):
    """A coarser level of the multilevel preconditioner: its smoother and
    its prolongation, a ``scipy.sparse.csr_matrix`` from its unknowns to
    those of the next finer level.  No matrix is kept."""
    smoother: Smoother
    prolongation: object


def _weighted_count(index, weights, n):
    """``np.bincount(index, weights, minlength=n)`` as floats: the sums
    of the weights per index, each in the order of ``index``."""
    # np.bincount returns integers for an empty index (a mesh without free
    # edges or interior vertices)
    return np.bincount(index, weights=weights, minlength=n).astype(float, copy=False)


def hybrid_smoother(matrix, gradient=None):
    """The :class:`Smoother` of ``matrix``: diag(A), and with an (n, m)
    ``scipy.sparse.csr_matrix`` ``gradient`` G whose columns span
    near-kernel directions (the discrete gradients of an edge-element
    space) also diag(G^T A G).  Refuses a nonpositive diagonal entry of
    either, where S would not be positive definite.

    Entry j of diag(G^T A G) is ``sum_i G_ij (A G)_ij``.  The rows of A
    are multiplied by G one block of ``_ROW_BLOCK`` rows at a time, and of
    each block's product only the entries on G's pattern are kept, times
    G's; so beside the result only those entries and one block's product
    are ever held, never A G whole.  The kept entries follow the rows, and
    one ``np.bincount`` (:func:`_weighted_count`) sums them in that order.
    That is the order in which scipy's ``sum(axis=0)`` adds a column, as
    the product with a vector of ones, and a row's product is the same in
    any block, so every bit of the whole-matrix ``G.multiply(A @
    G).sum(axis=0)`` stays."""
    diag = matrix.diagonal()
    if (diag <= 0).any():
        raise ValueError("matrix has a zero or negative diagonal entry")
    if gradient is None:
        return Smoother(diag)
    if gradient.shape[0] != matrix.shape[0]:
        raise ValueError("gradient must have one row per unknown")
    cols, products, end = np.empty(gradient.nnz, dtype=np.int32), np.empty(gradient.nnz), 0
    for first in range(0, matrix.shape[0], _ROW_BLOCK):
        rows = slice(first, first + _ROW_BLOCK)
        on_pattern = gradient[rows].multiply(matrix[rows] @ gradient)
        start, end = end, end + on_pattern.nnz
        cols[start:end], products[start:end] = on_pattern.indices, on_pattern.data
    gradient_diag = _weighted_count(cols[:end], products[:end], gradient.shape[1])
    if (gradient_diag <= 0).any():
        raise ValueError("gradient has an empty column or A is not definite on it")
    return Smoother(diag, gradient, gradient_diag)


def _smoothing(smoother):
    """``r -> S r`` of one level, with the transpose view built once:
    scipy builds a new object on every ``.T``."""
    diag, g, diag_g = smoother
    if g is None:
        return lambda r: r / diag
    gt = g.T
    return lambda r: r / diag + g @ ((gt @ r) / diag_g)


def _preconditioner(smoother, coarse):
    """``r -> B r`` for the finest level's ``smoother`` and the ``coarse``
    levels of :func:`cg_solve`: the residual is restricted down the levels,
    then each level's smoothed residual is added on the way back up."""
    smooth = [_smoothing(level.smoother) for level in coarse] + [_smoothing(smoother)]
    prolong = [level.prolongation for level in coarse]
    restrict = [p.T for p in prolong]

    def precondition(r):
        residuals = [r]
        for pt in reversed(restrict):
            residuals.append(pt @ residuals[-1])
        z = smooth[0](residuals.pop())
        for s, p in zip(smooth[1:], prolong):
            z = s(residuals.pop()) + p @ z
        return z

    return precondition


def cg_solve(matrix, b, rel_tol=1e-12, max_iter=None, smoother=None, x0=None,
             energy_target=None, coarse=()):
    """Preconditioned conjugate gradients for symmetric positive definite A.

    The preconditioner is the :class:`Smoother` ``smoother`` of ``matrix``
    (:func:`hybrid_smoother`; Jacobi, ``B r = r / diag(A)``, if None) plus,
    for every :class:`Level` of ``coarse``, that level's smoother carried
    to and from the unknowns of ``matrix`` through the prolongations:
    ``B = sum_l P_{L<-l} S_l P_{L<-l}^T`` over the levels l = 0..L, the
    coarsest first and ``matrix`` the finest, L, with ``P_{L<-l}`` the
    product of the prolongations of the levels l..L-1.  One application
    restricts the residual down the levels by ``P_l^T``, then adds each
    level's ``S_l`` on the way back up by ``P_l``.  Without coarse levels
    B is the smoother alone.  B is symmetric positive definite.  CG starts
    from ``x0`` (zero if None), so a solve can be resumed from an earlier
    iterate.

    Two stopping rules:

    * Residual contract (``rel_tol`` a number).  Iterates until the
      recurrence residual satisfies ``||r|| <= rel_tol * ||b||``, then
      checks the true residual ``||b - A x||``; if rounding has detached
      the two, the solve restarts from the computed iterate with that true
      residual (at most twice) before raising :class:`CgNonConvergence`.
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
    if smoother is not None and smoother.diag.shape != (n,):
        raise ValueError("smoother must have one diagonal entry per unknown")
    sizes = [level.smoother.diag.shape[0] for level in coarse] + [n]
    if any(level.prolongation.shape != shape
           for level, shape in zip(coarse, zip(sizes[1:], sizes))):
        raise ValueError("each coarse prolongation must map its level onto the next")
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
    if smoother is None:
        smoother = hybrid_smoother(matrix)

    a = matrix
    precondition = _preconditioner(smoother, coarse)
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
    raise CgNonConvergence(
        f"CG did not reach relative residual {rel_tol:g} in {iterations} "
        f"iterations (achieved {achieved:.3e})", x, iterations, achieved)
