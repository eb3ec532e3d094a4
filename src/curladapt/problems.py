"""Problem definitions: coefficient fields and manufactured solutions.

Analytic fields are plain callables vectorised over numpy arrays: vector
fields map points of shape (..., 2) to values of shape (..., 2), scalar
fields to shape (...,).  They must be pure, so problems can be shared
freely across threads.
"""

from dataclasses import dataclass

import numpy as np

from .mesh import OMEGA1, OMEGA2


@dataclass(frozen=True)
class CoefficientField:
    """Piecewise-constant eps per region tag and a constant kappa > 0.

    With the two standard regions present the convention eps(OMEGA1) >=
    eps(OMEGA2) > 0 is enforced.
    """
    eps: dict
    kappa: float

    def __post_init__(self):
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        for region, value in self.eps.items():
            if value <= 0:
                raise ValueError(f"eps must be positive, got {value} for region {region}")
        if OMEGA1 in self.eps and OMEGA2 in self.eps:
            if self.eps[OMEGA1] < self.eps[OMEGA2]:
                raise ValueError("two-phase fields require eps(region 1) >= eps(region 2)")

    def eps_of(self, region):
        try:
            return self.eps[int(region)]
        except KeyError:
            raise ValueError(f"no eps value for region tag {region}") from None

    def eps_by_region(self, regions):
        """Vectorised lookup: eps value per element for a region-tag array."""
        out = np.empty(len(regions))
        for tag in np.unique(regions):
            out[regions == tag] = self.eps_of(tag)
        return out

    def max_contrast(self):
        values = list(self.eps.values())
        return max(values) / min(values)


@dataclass(frozen=True)
class ManufacturedProblem:
    """Analytic solution bundle: u, its scalar curl, the source f = eps
    curl*(curl u) + kappa u and div f, all as vectorised callables."""
    coefficients: CoefficientField
    u: object
    curl_u: object
    f: object
    div_f: object
    tag: str
    classifier: object = None          # centroid -> region tag, None = single region
    interface_abscissa: float = None   # x-coordinate of the phase interface, if any


def _trig_solution():
    """The smooth curl-free reference field on the unit square with zero
    tangential boundary trace."""
    pi = np.pi

    def u(x):
        return np.stack([np.cos(pi * x[..., 0]) * np.sin(pi * x[..., 1]),
                         np.sin(pi * x[..., 0]) * np.cos(pi * x[..., 1])], axis=-1)

    def curl_u(x):
        return np.zeros(np.asarray(x).shape[:-1])

    def div_u(x):
        return -2.0 * pi * np.sin(pi * x[..., 0]) * np.sin(pi * x[..., 1])

    return u, curl_u, div_u


def paper_problem(eps, kappa):
    """Constant-coefficient benchmark problem on the unit square.

    The exact solution ``u = (cos(pi x1) sin(pi x2), sin(pi x1) cos(pi x2))``
    is curl free, so the source reduces to ``f = kappa u`` with
    ``div f = -2 kappa pi sin(pi x1) sin(pi x2)``.
    """
    u, curl_u, div_u = _trig_solution()
    return ManufacturedProblem(
        coefficients=CoefficientField(eps={OMEGA1: float(eps)}, kappa=float(kappa)),
        u=u,
        curl_u=curl_u,
        f=lambda x, k=float(kappa): k * u(x),
        div_f=lambda x, k=float(kappa): k * div_u(x),
        tag=f"paper(eps={eps:g},kappa={kappa:g})",
    )


def interface_problem(eps1, eps2, kappa, split=0.5):
    """Two-phase problem: eps jumps across the vertical line x1 = split.

    Reuses the curl-free reference solution, whose source ``f = kappa u``
    stays consistent for any piecewise eps because the curl term vanishes
    identically; the discrete solution still produces eps-weighted curl
    jumps across the interface, which is what exercises estimator
    robustness.
    """
    u, curl_u, div_u = _trig_solution()
    split = float(split)
    return ManufacturedProblem(
        coefficients=CoefficientField(eps={OMEGA1: float(eps1), OMEGA2: float(eps2)},
                                      kappa=float(kappa)),
        u=u,
        curl_u=curl_u,
        f=lambda x, k=float(kappa): k * u(x),
        div_f=lambda x, k=float(kappa): k * div_u(x),
        tag=f"interface(eps1={eps1:g},eps2={eps2:g},kappa={kappa:g})",
        classifier=lambda c: OMEGA1 if c[0] < split else OMEGA2,
        interface_abscissa=split,
    )


def check_interface_alignment(mesh, split, tol=1e-12):
    """Raise if any triangle straddles the vertical line x1 = split."""
    x = mesh.vertices[mesh.triangles][:, :, 0]
    straddles = (x.min(axis=1) < split - tol) & (x.max(axis=1) > split + tol)
    if straddles.any():
        bad = int(np.nonzero(straddles)[0][0])
        raise ValueError(f"interface x1={split} is not aligned with the mesh "
                         f"(triangle {bad} crosses it)")


def default_solver_tol(problem):
    """Solver tolerance giving algebraic error far below discretization
    error: 1e-12 for constant eps; 1e-6 for jumping eps.

    Rounding bounds the attainable relative residual from below.  The
    float64 residual of the correctly rounded solution grows like about
    ``4e-16 * max(eps) / (kappa * h**2)``: for eps contrast 1e4 with kappa
    = 1 it is 7e-11 on the 32-triangle mesh and 2e-8 on the uniform
    8192-triangle mesh, and preconditioned CG ends within a factor of 10
    of it (2e-10 and 2e-7).  With kappa = 1e-2 both are 100 times larger,
    so 1e-6 is missed from 2048 triangles on."""
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


def verify_consistency(problem, n_samples=100, fd_step=1e-5, tol=1e-6,
                       boundary_tol=1e-12):
    """Check that the problem data actually solves its own equation.

    Samples interior points per region and verifies
    ``f = eps * curl*(curl u) + kappa * u`` with the adjoint curl
    ``curl* w = (-dw/dx2, dw/dx1)`` approximated by central differences of
    the analytic ``curl_u``; verifies the tangential trace of ``u``
    vanishes on the boundary of the unit square.  Points closer than two
    finite-difference steps to a region change are skipped.
    """
    rng = np.random.default_rng(20240901)
    coeffs = problem.coefficients
    classify = problem.classifier or (lambda c: OMEGA1)

    margin = 0.01
    pts = []
    attempts = 0
    while len(pts) < n_samples and attempts < 100 * n_samples:
        attempts += 1
        p = margin + (1 - 2 * margin) * rng.random(2)
        stencil = [p + d for d in ((fd_step, 0), (-fd_step, 0), (0, fd_step), (0, -fd_step),
                                   (2 * fd_step, 0), (-2 * fd_step, 0),
                                   (0, 2 * fd_step), (0, -2 * fd_step))]
        tags = {classify(q) for q in stencil} | {classify(p)}
        if len(tags) == 1:
            pts.append((p, tags.pop()))
    if len(pts) < n_samples:
        raise RuntimeError("could not sample enough interior points away from the interface")

    worst = 0.0
    worst_point = (0.0, 0.0)
    scale = 1.0
    for p, tag in pts:
        eps = coeffs.eps_of(tag)
        dx = (problem.curl_u(np.array(p) + (fd_step, 0.0))
              - problem.curl_u(np.array(p) - (fd_step, 0.0))) / (2 * fd_step)
        dy = (problem.curl_u(np.array(p) + (0.0, fd_step))
              - problem.curl_u(np.array(p) - (0.0, fd_step))) / (2 * fd_step)
        f_check = eps * np.array([-dy, dx]) + coeffs.kappa * problem.u(np.array(p))
        f_val = problem.f(np.array(p))
        scale = max(scale, float(np.abs(f_val).max()))
        residual = float(np.abs(f_check - f_val).max())
        if residual > worst:
            worst, worst_point = residual, (float(p[0]), float(p[1]))

    n_bnd = max(8, n_samples * 2)
    s = rng.random(n_bnd)
    sides = [np.stack([s, np.zeros(n_bnd)], axis=1), np.stack([s, np.ones(n_bnd)], axis=1),
             np.stack([np.zeros(n_bnd), s], axis=1), np.stack([np.ones(n_bnd), s], axis=1)]
    normals = [np.array(n) for n in ((0, -1), (0, 1), (-1, 0), (1, 0))]
    worst_bnd = 0.0
    worst_bnd_point = (0.0, 0.0)
    for side, n in zip(sides, normals):
        n_perp = np.array([-n[1], n[0]])
        trace = np.abs(problem.u(side) @ n_perp)
        k = int(trace.argmax())
        if trace[k] > worst_bnd:
            worst_bnd = float(trace[k])
            worst_bnd_point = (float(side[k, 0]), float(side[k, 1]))

    passed = worst <= tol * scale and worst_bnd <= boundary_tol
    return ConsistencyReport(passed, worst, worst_point, worst_bnd, worst_bnd_point)
