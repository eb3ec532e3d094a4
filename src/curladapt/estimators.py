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

One pass evaluates u_h, f, div f and the edge traces, and reduces them
to the squared norms of R1, R2 per element and J1, J2 per interior edge.
Those norms do not depend on the estimator kind: ``indicator`` weights
them as one kind, and ``IndicatorBreakdown.as_kind`` re-weights them as
the other.  The oscillations and the per-entity helpers
``element_residuals`` and ``edge_jumps`` read the same pass.
"""

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .edge_fem import _field_at, element_curls
from .quadrature import edge_rule, triangle_rule


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
    """R1 (T, Q) and R2 (T, Q, 2) at the triangle quadrature points and J1
    (E, S) at the edge Gauss points, with the unit-sum weights of both
    rules and the squared norms of all four quantities."""
    quad_weights: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    edge_weights: np.ndarray
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
    return np.einsum("q,tq,t->t", weights, squares, areas)


def _edge_norms_sq(weights, values, lengths):
    """Squared L2 norms per edge of scalar samples (E, S)."""
    return lengths * (weights[None, :] * values ** 2).sum(1)


def _edge_barycentric(mesh, edges, side, s_points):
    """Barycentric coordinates (E, S, 3), in the neighbour ``side`` (0 or
    1) of each interior edge, of the points at edge parameters ``s``
    measured from the lower-id vertex."""
    tri = mesh.edge_tris[edges, side]
    loc = mesh.edge_tri_local[edges, side]
    starts_low = (mesh.triangles[tri, loc] == mesh.edges[edges, 0])[:, None]
    rows = np.arange(len(edges))
    lam = np.zeros((len(edges), len(s_points), 3))
    lam[rows, :, loc] = np.where(starts_low, 1.0 - s_points, s_points)
    lam[rows, :, (loc + 1) % 3] = np.where(starts_low, s_points, 1.0 - s_points)
    return lam


def _samples(solution, problem, quad_degree=6, n_edge_points=4, tris=None, edges=None):
    """One evaluation of the residuals on elements ``tris`` and of the
    jumps on interior edges ``edges`` (all of them when None).

    R1 needs an analytic div f, which is only read when ``tris`` is not
    empty.  J1 is the normal jump of R2 = f - kappa u_h; f is evaluated
    once per edge point and enters both sides literally, so its
    contributions cancel when f is continuous.
    """
    mesh = solution.mesh
    coeffs = problem.coefficients
    kappa = coeffs.kappa
    tris = np.arange(mesh.num_triangles) if tris is None else np.asarray(tris, dtype=np.int64)
    if edges is None:
        edges = np.nonzero(~mesh.is_boundary_edge)[0]
    edges = np.asarray(edges, dtype=np.int64)

    def r2_at(f_vals, tri, lam):
        return f_vals - kappa * _field_at(solution, tri, lam)

    quad = triangle_rule(quad_degree)
    points = np.einsum("qi,tie->tqe", quad.points, mesh.vertices[mesh.triangles[tris]])
    r1 = np.zeros(points.shape[:-1])
    if len(tris):
        if problem.div_f is None:
            raise ValueError("problem must provide an analytic div f")
        r1 = -np.asarray(problem.div_f(points), dtype=float)
    r2 = r2_at(np.asarray(problem.f(points), dtype=float), tris, quad.points)

    s_pts, s_wts = edge_rule(n_edge_points)
    a, b = mesh.vertices[mesh.edges[edges, 0]], mesh.vertices[mesh.edges[edges, 1]]
    f_edge = np.asarray(problem.f(a[:, None, :] + s_pts[None, :, None] * (b - a)[:, None, :]),
                        dtype=float)
    r2_plus, r2_minus = (r2_at(f_edge, mesh.edge_tris[edges, side],
                               _edge_barycentric(mesh, edges, side, s_pts))
                         for side in (0, 1))
    j1 = ((r2_plus - r2_minus) * mesh.edge_normals[edges][:, None, :]).sum(-1)
    eps_curl = coeffs.eps_by_region(mesh.regions) * element_curls(solution)
    curl_jump = eps_curl[mesh.edge_tris[edges, 0]] - eps_curl[mesh.edge_tris[edges, 1]]
    lengths = mesh.edge_lengths[edges]

    areas = mesh.areas[tris]
    norms = _Norms(r1=_element_norms_sq(quad.weights, r1, areas),
                   r2=_element_norms_sq(quad.weights, r2, areas),
                   j1=_edge_norms_sq(s_wts, j1, lengths),
                   # the wedge of the scalar jump with n is tangential with
                   # constant magnitude, so the squared edge norm is jump^2 |S|
                   j2=curl_jump ** 2 * lengths,
                   edges=edges, mesh=mesh, coefficients=coeffs)
    return _Samples(quad.weights, r1, r2, s_wts, j1, norms)


def element_residuals(solution, problem, tri_id, quad_degree=6):
    """L2 norms of the two element residuals on one triangle."""
    norms = _samples(solution, problem, quad_degree, tris=[tri_id], edges=[]).norms
    return float(np.sqrt(norms.r1[0])), float(np.sqrt(norms.r2[0]))


def edge_jumps(solution, problem, edge_id, n_edge_points=4):
    """L2 norms of the two jump terms on one interior edge."""
    if solution.mesh.is_boundary_edge[edge_id]:
        raise ValueError(f"edge {edge_id} is a boundary edge; jumps are "
                         "defined on interior edges only")
    norms = _samples(solution, problem, n_edge_points=n_edge_points,
                     tris=[], edges=[edge_id]).norms
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
    j1_term = sizes.edge_size[e] / kappa * norms.j1
    j2_term = j2_weight * norms.j2
    j1 = np.zeros(mesh.num_triangles)
    j2 = np.zeros(mesh.num_triangles)
    for side in (0, 1):
        np.add.at(j1, mesh.edge_tris[e, side], j1_term)
        np.add.at(j2, mesh.edge_tris[e, side], j2_term)
    return IndicatorBreakdown(kind=kind, r1=sizes.element_size ** 2 / kappa * norms.r1,
                              r2=r2_weight * norms.r2, j1=j1, j2=j2, norms=norms)


def indicator(solution, problem, kind=EstimatorKind.ROBUST, quad_degree=6,
              n_edge_points=4):
    """Per-element indicator breakdown for either estimator kind; the
    other kind of the same solution is ``indicator(...).as_kind(other)``."""
    return _weigh(_samples(solution, problem, quad_degree, n_edge_points).norms, kind)


def oscillations(solution, problem, quad_degree=6, n_edge_points=4):
    """Data oscillations: distance of R1, R2, J1, J2 from their piecewise
    constant L2 projections, in the weighted norms of the two estimator
    families."""
    mesh = solution.mesh
    sizes = weighted_sizes(mesh, problem.coefficients)
    samples = _samples(solution, problem, quad_degree, n_edge_points)
    wts, r1, r2 = samples.quad_weights, samples.r1, samples.r2
    r1_mean = np.einsum("q,tq->t", wts, r1)
    r2_mean = np.einsum("q,tqe->te", wts, r2)
    element_part1 = sizes.element_size ** 2 * _element_norms_sq(
        wts, r1 - r1_mean[:, None], mesh.areas)
    element_part2 = sizes.hbar_element ** 2 * _element_norms_sq(
        wts, r2 - r2_mean[:, None, :], mesh.areas)

    e, s_wts, j1 = samples.norms.edges, samples.edge_weights, samples.j1
    j1_mean = (s_wts[None, :] * j1).sum(1)
    edge_part1 = np.zeros(mesh.num_edges)
    edge_part1[e] = sizes.edge_size[e] * _edge_norms_sq(s_wts, j1 - j1_mean[:, None],
                                                        mesh.edge_lengths[e])
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
