"""Problem definitions: coefficient fields and manufactured solutions.

Analytic fields are plain callables vectorised over numpy arrays: vector
fields (u, f) map points of shape (..., 2) to values of shape (..., 2),
scalar fields (curl u, div f and the region classifier, a problem's one
description of its regions) to shape (...,).  They must be pure, so
problems can be shared freely across threads.

Where the fields are read: every reader of the problem in ``edge_fem``
and ``estimators`` takes one sample of the mesh, either a
:meth:`ManufacturedProblem.sample` at ``edge_fem.error_points`` (a
:class:`_Sample`) or the drivers' reduced one (``edge_fem._mesh_sample``).
The drivers take the latter once per mesh, before the solve, one block of
``mesh._BLOCK`` triangles at a time, reduced at once to a few numbers per
element, so no point value outlives its block; the adaptive driver
samples only the triangles that bisection made.  The trig fields of
:func:`paper_problem` and :func:`interface_problem` share one set of
sines and cosines per sample, also when u and curl u are left out
(:meth:`ManufacturedProblem._trig_field`); their f = kappa u lets the
drivers reduce f and div f only and read u from f.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .mesh import OMEGA1, OMEGA2, _blocks, _integers


@dataclass(frozen=True)
class CoefficientField:
    """Piecewise-constant eps per region tag, for at least one tag, and a
    constant kappa > 0.

    With the two standard regions present the convention eps(OMEGA1) >=
    eps(OMEGA2) > 0 is enforced.
    """
    eps: dict
    kappa: float

    def __post_init__(self):
        if not 0 < self.kappa < np.inf:
            raise ValueError(f"kappa must be positive and finite, got {self.kappa}")
        if not self.eps:
            raise ValueError("eps must give the value of at least one region")
        for region, value in self.eps.items():
            _integers(region, "region tag")
            if not 0 < value < np.inf:
                raise ValueError(f"eps must be positive and finite, got {value} "
                                 f"for region {region}")
        if OMEGA1 in self.eps and OMEGA2 in self.eps:
            if self.eps[OMEGA1] < self.eps[OMEGA2]:
                raise ValueError("two-phase fields require eps(region 1) >= eps(region 2)")

    def eps_of(self, region):
        return float(self.eps_by_region(np.atleast_1d(_integers(region, "region tag")))[0])

    def eps_by_region(self, regions):
        """Vectorised lookup: eps value per element for a region-tag array."""
        regions = _integers(regions, "region tags")
        tags = np.array(sorted(self.eps), dtype=np.int64)
        values = np.array([self.eps[tag] for tag in tags], dtype=float)
        slot = np.searchsorted(tags, regions).clip(max=len(tags) - 1)
        missing = tags[slot] != regions
        if missing.any():
            raise ValueError(f"no eps value for region tag {regions[missing].min()}")
        return values[slot]

    def max_contrast(self):
        values = list(self.eps.values())
        return max(values) / min(values)


class _Sample(NamedTuple):
    """The fields of a problem at one set of points (..., 2): u and f
    (..., 2), curl u and div f (...); None where the problem has no such
    field."""
    u: np.ndarray
    curl_u: np.ndarray
    f: np.ndarray
    div_f: np.ndarray


def _one_region(x):
    return np.full(np.shape(x)[:-1], OMEGA1)


@dataclass(frozen=True)
class ManufacturedProblem:
    """Analytic solution bundle: u, its scalar curl, the source f = eps
    curl*(curl u) + kappa u, div f and the classifier from points to keys of
    ``coefficients.eps``, all vectorised; it is ``OMEGA1`` if left out or None."""
    coefficients: CoefficientField
    u: object
    curl_u: object
    f: object
    div_f: object
    tag: str
    classifier: object = None

    def __post_init__(self):
        if self.classifier is None:
            object.__setattr__(self, "classifier", _one_region)
        if self.f is None:
            raise ValueError(f"problem {self.tag} must provide its source f")
        if (self.u is None) != (self.curl_u is None):
            raise ValueError(f"problem {self.tag} must provide both u and curl u, or neither")

    def _trig_field(self):
        """The :class:`_TrigField` whose own f and div f this problem's
        are, with u and curl u its own too or both None; None otherwise."""
        trig = getattr(self.f, "__self__", None)
        if (isinstance(trig, _TrigField) and (self.f, self.div_f) == (trig.f, trig.div_f)
                and (self.u, self.curl_u) in ((trig.u, trig.curl_u), (None, None))):
            return trig
        return None

    def sample(self, points):
        """u, curl u, f and div f at ``points`` (..., 2), each evaluated
        once: a :meth:`_trig_field`'s together, other fields by one call
        each.  At the whole mesh's ``edge_fem.error_points`` that is 256 B
        per triangle for each of u and f and 128 B for div f."""
        trig = self._trig_field()
        if trig is not None:
            sample = trig.sample(points)
            return sample if self.u is not None else sample._replace(u=None, curl_u=None)
        return _Sample(*(None if field is None else np.asarray(field(points), dtype=float)
                         for field in (self.u, self.curl_u, self.f, self.div_f)))


@dataclass(frozen=True)
class _TrigField:
    """The smooth curl-free reference field u on the unit square, with zero
    tangential boundary trace, its curl, and the source ``f = kappa u``
    with its divergence; :meth:`sample` forms all four from one set of
    sines and cosines."""
    kappa: float

    def sample(self, x):
        # written into u, f and div f block by block of the first axis
        # (``mesh._blocks``; a single point is one block), so the sines and
        # cosines of one block are all the memory it adds to its result;
        # every value is elementwise, so the blocks change no bit
        u = np.empty(np.shape(x)[:-1] + (2,))
        f = np.empty(u.shape)
        div_f = np.empty(u.shape[:-1])
        for rows in _blocks(len(div_f)) if div_f.ndim else [...]:
            # each cosine overwrites its argument, so four block arrays are
            # alive at once, not six (asarray: a single point's is a scalar)
            px = np.asarray(np.pi * x[rows][..., 0])
            sx, cx = np.sin(px), np.cos(px, out=px)
            py = np.asarray(np.pi * x[rows][..., 1])
            sy, cy = np.sin(py), np.cos(py, out=py)
            np.multiply(cx, sy, out=u[rows][..., 0])
            np.multiply(sx, cy, out=u[rows][..., 1])
            np.multiply(-2.0 * np.pi, sx, out=div_f[rows])
            div_f[rows] *= sy
            div_f[rows] *= self.kappa
            np.multiply(self.kappa, u[rows], out=f[rows])
        return _Sample(u, np.broadcast_to(0.0, div_f.shape), f, div_f)

    def u(self, x):
        return self.sample(x).u

    def curl_u(self, x):
        return np.zeros(np.asarray(x).shape[:-1])

    def f(self, x):
        return self.sample(x).f

    def div_f(self, x):
        return self.sample(x).div_f


def paper_problem(eps, kappa):
    """Constant-coefficient benchmark problem on the unit square.

    The exact solution ``u = (cos(pi x1) sin(pi x2), sin(pi x1) cos(pi x2))``
    is curl free, so the source reduces to ``f = kappa u`` with
    ``div f = -2 kappa pi sin(pi x1) sin(pi x2)``.
    """
    trig = _TrigField(float(kappa))
    return ManufacturedProblem(
        coefficients=CoefficientField(eps={OMEGA1: float(eps)}, kappa=float(kappa)),
        u=trig.u, curl_u=trig.curl_u, f=trig.f, div_f=trig.div_f,
        tag=f"paper(eps={eps:g},kappa={kappa:g})",
    )


def interface_problem(eps1, eps2, kappa, split=0.5):
    """Two-phase problem: eps1 on ``OMEGA1``, left of the vertical line x1 =
    split, and eps2 on ``OMEGA2``, right of it, as its classifier tags them.

    Reuses the curl-free reference solution, whose source ``f = kappa u``
    stays consistent for any piecewise eps because the curl term vanishes
    identically; the discrete solution still produces eps-weighted curl
    jumps across the interface, which exercises estimator robustness."""
    split = float(split)
    if not 0 < split < 1:
        raise ValueError(f"split must lie in (0, 1), got {split}")
    trig = _TrigField(float(kappa))
    return ManufacturedProblem(
        coefficients=CoefficientField(eps={OMEGA1: float(eps1), OMEGA2: float(eps2)},
                                      kappa=float(kappa)),
        u=trig.u, curl_u=trig.curl_u, f=trig.f, div_f=trig.div_f,
        tag=f"interface(eps1={eps1:g},eps2={eps2:g},kappa={kappa:g})",
        classifier=lambda x: np.where(x[..., 0] < split, OMEGA1, OMEGA2),
    )


def check_interface_alignment(mesh, problem):
    """Raise unless ``problem.classifier`` tags each triangle of ``mesh`` one
    way, with a region of its eps, and each region of its eps on some
    triangle.  A triangle is read at its centroid, as ``mesh.tag_regions``
    reads it, and 1e-9 of the way from each corner to it, so a vertex on a
    region boundary counts as on it.  A curve that parts none of these
    points (one bulging through an edge) is missed."""
    centroids, corners = mesh.centroids[:, None], mesh.vertices[mesh.triangles]
    points = np.concatenate([centroids, corners + 1e-9 * (centroids - corners)], axis=1)
    tags = np.broadcast_to(problem.classifier(points), points.shape[:-1])
    mixed = np.flatnonzero((tags != tags[:, :1]).any(axis=1))
    if len(mixed):
        raise ValueError(f"the regions are not aligned with the mesh: triangle {mixed[0]} "
                         f"lies in regions {sorted(set(tags[mixed[0]].tolist()))}")
    problem.coefficients.eps_by_region(tags[:, 0])  # refuses a tag without an eps value
    empty = sorted(set(problem.coefficients.eps) - set(tags[:, 0].tolist()))
    if empty:
        raise ValueError(f"eps names region {empty[0]}, but no triangle of the mesh lies in it")


def default_solver_tol(problem):
    """Solver tolerance giving algebraic error far below discretization
    error: 1e-12 for constant eps; 1e-6 for jumping eps.

    Rounding bounds the attainable relative residual from below.  The
    float64 residual of the correctly rounded solution grows like about
    ``4e-16 * max(eps) / (kappa * h**2)``: for eps contrast 1e4 with kappa
    = 1 it is 7e-11 on the 32-triangle mesh and 2e-8 on the uniform
    8192-triangle mesh, and preconditioned CG ends within a factor of 10
    of it (2e-10 and 2e-7).  With kappa = 1e-2 both are 100 times larger,
    so 1e-6 is missed from 2048 triangles on.

    Only ``report.run_table`` still uses this heuristic;
    ``amr.adaptive_solve`` stops CG on its energy estimate instead.  The
    table moves to the energy stop together with the benchmark's
    known-failure column (ROADMAP item 1)."""
    return 1e-12 if problem.coefficients.max_contrast() == 1.0 else 1e-6


@dataclass(frozen=True)
class ConsistencyReport:
    passed: bool
    max_interior_residual: float
    worst_point: tuple
    max_boundary_trace: float
    worst_boundary_point: tuple

    def __str__(self):
        status = "ok" if self.passed else "FAILED"
        return (f"consistency {status}: interior residual {self.max_interior_residual:.3e} "
                f"at {self.worst_point}, boundary trace {self.max_boundary_trace:.3e} "
                f"at {self.worst_boundary_point}")


def _largest(values, points):
    """The largest of ``values`` (N,) and its point in ``points`` (N, 2),
    the first one on ties; 0.0 at (0.0, 0.0) when no value is positive."""
    k = int(values.argmax())
    if values[k] > 0:
        return float(values[k]), (float(points[k, 0]), float(points[k, 1]))
    return 0.0, (0.0, 0.0)


def verify_consistency(problem):
    """Check that the problem data actually solves its own equation.

    Verifies ``f = eps * curl*(curl u) + kappa * u`` at 100 random
    interior points with ``curl* w = (dw/dx2, -dw/dx1)``, the adjoint of
    ``curl v = dv2/dx1 - dv1/dx2`` under zero tangential trace,
    approximated by central differences of the analytic ``curl_u`` with
    step 1e-5, to 1e-6 relative to the largest |f|; verifies the
    tangential trace of ``u`` vanishes on the boundary of the unit square,
    to 1e-12.  The interior points are the first 100 of 10,000 random
    candidates whose finite-difference stencil (up to two steps along each
    axis) lies in one region.
    """
    n_samples, fd_step, tol, boundary_tol = 100, 1e-5, 1e-6, 1e-12
    rng = np.random.default_rng(20240901)
    coeffs = problem.coefficients

    margin = 0.01
    candidates = margin + (1 - 2 * margin) * rng.random((100 * n_samples, 2))
    offsets = np.array([(0, 0), (fd_step, 0), (-fd_step, 0), (0, fd_step), (0, -fd_step),
                        (2 * fd_step, 0), (-2 * fd_step, 0), (0, 2 * fd_step),
                        (0, -2 * fd_step)])
    tags = problem.classifier(candidates[:, None, :] + offsets)
    keep = np.nonzero((tags == tags[:, :1]).all(axis=1))[0][:n_samples]
    if len(keep) < n_samples:
        raise RuntimeError("could not sample enough interior points away from the interface")
    pts = candidates[keep]

    def derivative(step):
        return (problem.curl_u(pts + step) - problem.curl_u(pts - step)) / (2 * fd_step)

    dx, dy = derivative((fd_step, 0.0)), derivative((0.0, fd_step))
    eps = coeffs.eps_by_region(tags[keep, 0])
    f_check = eps[:, None] * np.stack([dy, -dx], axis=-1) + coeffs.kappa * problem.u(pts)
    f_val = problem.f(pts)
    scale = max(1.0, float(np.abs(f_val).max()))
    worst, worst_point = _largest(np.abs(f_check - f_val).max(axis=1), pts)

    # bottom, top, left, right: the tangential component of u is u1 on the
    # horizontal sides and u2 on the vertical ones
    s = rng.random(2 * n_samples)
    zero, one = np.zeros_like(s), np.ones_like(s)
    sides = np.stack([np.stack(xy, axis=-1) for xy in ((s, zero), (s, one), (zero, s), (one, s))])
    values = problem.u(sides)
    trace = np.abs(np.concatenate([values[:2, :, 0], values[2:, :, 1]]))
    worst_bnd, worst_bnd_point = _largest(trace.ravel(), sides.reshape(-1, 2))

    passed = worst <= tol * scale and worst_bnd <= boundary_tol
    return ConsistencyReport(passed, worst, worst_point, worst_bnd, worst_bnd_point)
