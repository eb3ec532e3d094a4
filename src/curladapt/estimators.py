"""Residual a posteriori error estimation for the edge-element solver.

Two elementwise indicators are computed from the same residual and jump
quantities.  With elementwise residuals

    R1 = -div(f - kappa u_h)        (= -div f, the discrete field is
                                       divergence free)
    R2 = f - curl*(eps curl u_h) - kappa u_h
                                    (= f - kappa u_h, the discrete curl is
                                       elementwise constant)

and interior-edge jumps

    J1 = [[f - kappa u_h]] . n      J2 = -[[eps curl u_h]] ^ n,

the coefficient-robust indicator weights R2/J2 with the capped sizes
``hbar = min(s/sqrt(eps), 1/sqrt(kappa))`` while the classical one uses
the plain ``s^2/eps`` and ``s/eps_s`` weights:

    robust(T)    = s_T^2/kappa ||R1||_T^2 + hbar_T^2 ||R2||_T^2
                   + sum_S [ s_S/kappa ||J1||_S^2
                             + hbar_S eps_S^-1/2 ||J2||_S^2 ]
    classical(T) = s_T^2/kappa ||R1||_T^2 + s_T^2/eps_T ||R2||_T^2
                   + sum_S [ s_S/kappa ||J1||_S^2 + s_S/eps_S ||J2||_S^2 ]

where ``eps_S = max(eps_T+, eps_T-)`` and every interior edge contributes
its full term to both adjacent elements.  The size entering the weights
is half the local diameter: ``s_T = diam(T)/2`` for elements and
``s_S = max(diam(T+), diam(T-))/2`` for edges; L2 norms over edges use
the true edge length.  The global estimate is the square root of the sum
of the elementwise indicators.

One pass reduces the residuals and jumps to the squared norms of R1, R2
per element and J1, J2 per interior edge, reading f and div f only at the
element quadrature points and u_h from ``DiscreteSolution.vertex_vectors``
and ``.curls``, built once per field.  The jumps need no edge quadrature:
u_h is linear on each element and f is single-valued on an edge, so
J1 = -kappa [[u_h]] . n is linear along the edge and fixed by its two end
values, and J2 is constant.  The norms do not depend on the estimator
kind: ``indicator`` weights them as one kind, ``IndicatorBreakdown.as_kind``
as the other, and the oscillations, ``element_residuals`` and
``edge_jumps`` read the same pass.
"""

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .edge_fem import _weighted_count
from .quadrature import triangle_rule

_QUAD = triangle_rule(6)


class EstimatorKind(enum.Enum):
    ROBUST = "robust"
    CLASSICAL = "classical"


@dataclass(frozen=True)
class WeightedSizes:
    """Capped mesh-size weights per element and per edge.

    Boundary-edge rows carry the values of their single adjacent element;
    the indicators never read them.
    """
    element_size: np.ndarray   # (T,) half-diameters
    eps_element: np.ndarray    # (T,)
    hbar_element: np.ndarray   # (T,) min(s/sqrt(eps), 1/sqrt(kappa))
    edge_size: np.ndarray      # (E,) half of the larger adjacent diameter
    eps_edge: np.ndarray       # (E,) max of adjacent eps
    hbar_edge: np.ndarray      # (E,)


class _Norms(NamedTuple):
    """Squared L2 norms of R1, R2 per element and of J1, J2 per interior
    edge; none of them depends on the estimator kind."""
    r1: np.ndarray
    r2: np.ndarray
    j1: np.ndarray
    j2: np.ndarray
    edges: np.ndarray          # ids of the interior edges of j1, j2
    mesh: object
    coefficients: object


class _Samples(NamedTuple):
    """R1 (T, Q) and R2 (T, Q, 2) at the points of ``_QUAD`` and J1 (E, 2)
    at the two ends of each edge, with the squared norms of all four
    quantities."""
    r1: np.ndarray
    r2: np.ndarray
    j1: np.ndarray
    norms: _Norms


@dataclass(frozen=True)
class IndicatorBreakdown:
    """Per-element squared indicator parts of one estimator kind; ``total``
    is their exact sum and ``global_estimate`` the square root of the
    grand total.

    ``norms`` keeps the kind-independent squared norms the parts were
    weighted from, so :meth:`as_kind` re-weights them as the other
    estimator without evaluating u_h again.
    """
    kind: EstimatorKind
    r1: np.ndarray
    r2: np.ndarray
    j1: np.ndarray
    j2: np.ndarray
    norms: _Norms = field(repr=False, compare=False)

    def as_kind(self, kind):
        """The breakdown of estimator ``kind`` for the same solution."""
        return _weigh(self.norms, kind)

    @property
    def total(self):
        return self.r1 + self.r2 + self.j1 + self.j2

    @property
    def global_estimate(self):
        return float(np.sqrt(self.total.sum()))


@dataclass(frozen=True)
class Oscillations:
    """Data-oscillation terms: each ``oscN`` is the sum of an element and
    an edge L2 norm; the squared per-entity contributions are retained."""
    osc1: float
    osc2: float
    element_part1: np.ndarray
    edge_part1: np.ndarray
    element_part2: np.ndarray
    edge_part2: np.ndarray


def capped_size(size, eps, kappa):
    """The robust weight ``min(size / sqrt(eps), 1 / sqrt(kappa))``."""
    return np.minimum(np.asarray(size) / np.sqrt(eps), 1.0 / np.sqrt(kappa))


def weighted_sizes(mesh, coefficients):
    """Evaluate the size weights of both estimators on a mesh."""
    eps_t = coefficients.eps_by_region(mesh.regions)
    kappa = coefficients.kappa
    s_t = 0.5 * mesh.diameters

    t_plus = mesh.edge_tris[:, 0]
    t_minus = np.where(mesh.is_boundary_edge, t_plus, mesh.edge_tris[:, 1])
    s_e = 0.5 * np.maximum(mesh.diameters[t_plus], mesh.diameters[t_minus])
    eps_e = np.maximum(eps_t[t_plus], eps_t[t_minus])
    return WeightedSizes(
        element_size=s_t,
        eps_element=eps_t,
        hbar_element=capped_size(s_t, eps_t, kappa),
        edge_size=s_e,
        eps_edge=eps_e,
        hbar_edge=capped_size(s_e, eps_e, kappa),
    )


def _element_norms_sq(weights, values, areas):
    """Squared L2 norms per element of samples (T, Q) or (T, Q, 2)."""
    squares = values ** 2 if values.ndim == 2 else (values ** 2).sum(-1)
    return squares @ weights * areas


def _samples(solution, problem, tris=None, edges=None):
    """One evaluation of the residuals on elements ``tris`` and of the
    jumps on interior edges ``edges`` (all of them when None).

    f and div f are read at the element quadrature points only, div f
    only when ``tris`` is not empty.  Both jumps are exact per edge: f is
    single-valued on an edge, so J1 = -kappa [[u_h]] . n, which is linear
    along the edge and fixed by its values at the two ends; J2 is constant.
    """
    mesh = solution.mesh
    coeffs = problem.coefficients
    kappa = coeffs.kappa
    tris = np.arange(mesh.num_triangles) if tris is None else np.asarray(tris, dtype=np.int64)
    if edges is None:
        edges = np.nonzero(~mesh.is_boundary_edge)[0]
    edges = np.asarray(edges, dtype=np.int64)

    w = solution.vertex_vectors
    points = np.matmul(_QUAD.points, mesh.vertices[mesh.triangles[tris]])
    r1 = np.zeros(points.shape[:-1])
    if len(tris):
        if problem.div_f is None:
            raise ValueError("problem must provide an analytic div f")
        r1 = -np.asarray(problem.div_f(points), dtype=float)
    r2 = np.asarray(problem.f(points), dtype=float) - kappa * np.matmul(_QUAD.points, w[tris])

    # u_h is w_i at local vertex i; side 0 traverses the edge tail -> head
    # and side 1 head -> tail
    (t0, t1), (k0, k1) = mesh.edge_tris[edges].T, mesh.edge_tri_local[edges].T
    jumps = np.stack([w[t0, k0] - w[t1, (k1 + 1) % 3],
                      w[t0, (k0 + 1) % 3] - w[t1, k1]], axis=1)
    j1 = -kappa * (jumps * mesh.edge_normals[edges][:, None, :]).sum(-1)
    a, b = j1.T
    eps_curl = coeffs.eps_by_region(mesh.regions) * solution.curls
    curl_jump = eps_curl[t0] - eps_curl[t1]
    lengths = mesh.edge_lengths[edges]

    areas = mesh.areas[tris]
    norms = _Norms(r1=_element_norms_sq(_QUAD.weights, r1, areas),
                   r2=_element_norms_sq(_QUAD.weights, r2, areas),
                   j1=lengths * (a * a + a * b + b * b) / 3,
                   # the wedge of the scalar jump with n is tangential with
                   # constant magnitude, so the squared edge norm is jump^2 |S|
                   j2=curl_jump ** 2 * lengths,
                   edges=edges, mesh=mesh, coefficients=coeffs)
    return _Samples(r1, r2, j1, norms)


def element_residuals(solution, problem, tri_id):
    """L2 norms of the two element residuals on one triangle."""
    norms = _samples(solution, problem, tris=[tri_id], edges=[]).norms
    return float(np.sqrt(norms.r1[0])), float(np.sqrt(norms.r2[0]))


def edge_jumps(solution, problem, edge_id):
    """L2 norms of the two jump terms on one interior edge."""
    if solution.mesh.is_boundary_edge[edge_id]:
        raise ValueError(f"edge {edge_id} is a boundary edge; jumps are "
                         "defined on interior edges only")
    norms = _samples(solution, problem, tris=[], edges=[edge_id]).norms
    return float(np.sqrt(norms.j1[0])), float(np.sqrt(norms.j2[0]))


def _weigh(norms, kind):
    """Indicator breakdown of one kind from the squared norms of a full
    pass; every interior edge term is credited to both neighbours."""
    mesh = norms.mesh
    kappa = norms.coefficients.kappa
    sizes = weighted_sizes(mesh, norms.coefficients)
    e = norms.edges
    if kind is EstimatorKind.ROBUST:
        r2_weight = sizes.hbar_element ** 2
        j2_weight = sizes.hbar_edge[e] / np.sqrt(sizes.eps_edge[e])
    else:
        r2_weight = sizes.element_size ** 2 / sizes.eps_element
        j2_weight = sizes.edge_size[e] / sizes.eps_edge[e]
    # side 0 of every edge, then side 1: each element sums its edge terms
    # in that order, from 0.0
    tris = mesh.edge_tris[e].T.ravel()
    j1, j2 = (_weighted_count(tris, np.tile(term, 2), mesh.num_triangles)
              for term in (sizes.edge_size[e] / kappa * norms.j1, j2_weight * norms.j2))
    return IndicatorBreakdown(kind=kind, r1=sizes.element_size ** 2 / kappa * norms.r1,
                              r2=r2_weight * norms.r2, j1=j1, j2=j2, norms=norms)


def indicator(solution, problem, kind=EstimatorKind.ROBUST):
    """Per-element indicator breakdown for either estimator kind; the
    other kind of the same solution is ``indicator(...).as_kind(other)``."""
    return _weigh(_samples(solution, problem).norms, kind)


def oscillations(solution, problem):
    """Data oscillations: distance of R1, R2, J1, J2 from their piecewise
    constant L2 projections, in the weighted norms of the two estimator
    families.  The element parts use the quadrature points of the
    estimation pass; the edge parts are exact, from the two end values of
    the linear J1 and the constant J2."""
    mesh = solution.mesh
    sizes = weighted_sizes(mesh, problem.coefficients)
    samples = _samples(solution, problem)
    wts, r1, r2 = _QUAD.weights, samples.r1, samples.r2
    r1_mean = r1 @ wts
    r2_mean = wts @ r2
    element_part1 = sizes.element_size ** 2 * _element_norms_sq(
        wts, r1 - r1_mean[:, None], mesh.areas)
    element_part2 = sizes.hbar_element ** 2 * _element_norms_sq(
        wts, r2 - r2_mean[:, None, :], mesh.areas)

    # J1 is linear along each edge, from a to b: its distance from the
    # mean (a + b)/2 has squared norm |S| (a - b)^2 / 12
    e, (a, b) = samples.norms.edges, samples.j1.T
    edge_part1 = np.zeros(mesh.num_edges)
    edge_part1[e] = sizes.edge_size[e] * mesh.edge_lengths[e] * (a - b) ** 2 / 12
    edge_part2 = np.zeros(mesh.num_edges)  # J2 is constant per edge: projection exact

    osc1 = float(np.sqrt(element_part1.sum()) + np.sqrt(edge_part1.sum()))
    osc2 = float(np.sqrt(element_part2.sum()) + np.sqrt(edge_part2.sum()))
    return Oscillations(osc1=osc1, osc2=osc2,
                        element_part1=element_part1, edge_part1=edge_part1,
                        element_part2=element_part2, edge_part2=edge_part2)


def dump_indicators(breakdown, path):
    """Write per-element indicator parts as CSV lines
    ``element_id, r1, r2, j1, j2, total``."""
    total = breakdown.total
    with open(path, "w") as fh:
        fh.write("element_id,r1,r2,j1,j2,total\n")
        for t in range(len(total)):
            fh.write(f"{t},{float(breakdown.r1[t])!r},{float(breakdown.r2[t])!r},"
                     f"{float(breakdown.j1[t])!r},{float(breakdown.j2[t])!r},"
                     f"{float(total[t])!r}\n")
