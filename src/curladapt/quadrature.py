"""Gauss quadrature on the reference triangle.

Triangle rules are built from tensor Gauss-Legendre rules collapsed onto
the triangle (Duffy map), so exactness up to the requested polynomial
degree holds by construction.  Points are stored in barycentric
coordinates and weights are normalised to sum to one; multiply by the
element area when integrating.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class QuadratureRule:
    """Reference-triangle rule: barycentric points, unit-sum weights and
    the polynomial degree it integrates exactly."""
    points: np.ndarray   # (n, 3) barycentric
    weights: np.ndarray  # (n,), sums to 1
    degree: int


def triangle_rule(degree):
    """Quadrature rule exact for 2D polynomials up to ``degree``."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    # Duffy map (s, t) in [0,1]^2 -> (x, y) = (s, t*(1-s)) with Jacobian
    # (1-s); a degree-p integrand becomes degree p+1 in s and p in t
    n = max(1, int(np.ceil((degree + 2) / 2)))
    x, w = np.polynomial.legendre.leggauss(n)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    ss, tt = np.meshgrid(x, x, indexing="ij")
    ws, wt = np.meshgrid(w, w, indexing="ij")
    xs = ss.ravel()
    ys = (tt * (1.0 - ss)).ravel()
    weights = (ws * wt * (1.0 - ss)).ravel()  # sums to the reference area 1/2
    points = np.stack([1.0 - xs - ys, xs, ys], axis=1)
    return QuadratureRule(points=points, weights=2.0 * weights, degree=degree)
