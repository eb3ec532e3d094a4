import numpy as np
import pytest

from curladapt.quadrature import triangle_rule
from reference import edge_rule


def monomial_integral(p, q):
    """Exact integral of x^p y^q over the reference triangle, normalised by
    its area: 2 * p! q! / (p + q + 2)!."""
    from math import factorial
    return 2.0 * factorial(p) * factorial(q) / factorial(p + q + 2)


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4, 5, 6, 7, 8])
def test_triangle_rule_exactness(degree):
    rule = triangle_rule(degree)
    for p in range(degree + 1):
        for q in range(degree + 1 - p):
            x = rule.points[:, 1]
            y = rule.points[:, 2]
            approx = (rule.weights * x ** p * y ** q).sum()
            assert approx == pytest.approx(monomial_integral(p, q), rel=1e-13)


def test_triangle_rule_weights():
    for degree in (2, 4, 6, 8):
        rule = triangle_rule(degree)
        assert (rule.weights > 0).all()
        assert rule.weights.sum() == pytest.approx(1.0, rel=1e-14)
        assert (rule.points >= 0).all() and (rule.points <= 1).all()
        assert np.allclose(rule.points.sum(axis=1), 1.0, atol=1e-14)


def test_triangle_rule_rejects_negative_degree():
    with pytest.raises(ValueError):
        triangle_rule(-1)


@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_edge_rule_exactness(n):
    pts, wts = edge_rule(n)
    assert wts.sum() == pytest.approx(1.0, rel=1e-14)
    for p in range(2 * n):
        assert (wts * pts ** p).sum() == pytest.approx(1.0 / (p + 1), rel=1e-13)


def test_edge_rule_rejects_empty():
    with pytest.raises(ValueError):
        edge_rule(0)
