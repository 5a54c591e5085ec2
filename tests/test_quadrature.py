"""Quadrature rules must integrate polynomials of the stated degree exactly."""

import math

import numpy as np
import pytest

from gratpml.quadrature import edge_rule, element_rule

from conftest import reference_rule


def _exact_triangle_monomial(p: int, q: int) -> float:
    # integral of x^p y^q over the reference triangle {x, y >= 0, x + y <= 1}
    return math.factorial(p) * math.factorial(q) / math.factorial(p + q + 2)


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4, 5, 6, 7, 9, 12])
def test_triangle_rule_integrates_monomials_exactly(degree):
    # the element rule through degree 5, the tests' reference rule above
    bary, wts = element_rule() if degree <= 5 else reference_rule(degree)
    assert bary.shape == (wts.size, 3)
    assert np.all(wts > 0.0)
    assert wts.sum() == pytest.approx(1.0, rel=0.0, abs=1e-14)
    # reference vertices (0,0), (1,0), (0,1): x = bary[:,1], y = bary[:,2]
    x, y = bary[:, 1], bary[:, 2]
    for p in range(degree + 1):
        for q in range(degree + 1 - p):
            approx = 0.5 * float(np.sum(wts * x**p * y**q))
            exact = _exact_triangle_monomial(p, q)
            assert approx == pytest.approx(exact, rel=0.0, abs=5e-15)


def test_triangle_rule_points_are_barycentric():
    for bary, _ in (element_rule(), reference_rule(9)):
        assert np.all(bary >= -1e-14)
        assert np.allclose(bary.sum(axis=1), 1.0, rtol=0.0, atol=1e-14)


def test_element_rule_is_built_once_and_read_only():
    bary, wts = element_rule()
    assert bary.shape == (7, 3) and wts.shape == (7,)
    # every caller shares the arrays, so none may write to them
    with pytest.raises(ValueError, match="read-only"):
        bary[0, 0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        wts *= 2.0
    for _ in range(3):
        again = element_rule()
        assert again[0] is bary and again[1] is wts


def test_edge_rule_is_gauss_legendre_on_unit_interval():
    pts, wts = edge_rule()
    assert pts.shape == wts.shape == (5,)
    assert np.all((pts > 0.0) & (pts < 1.0))
    # 5-point Gauss-Legendre is exact through degree 9.
    for p in range(10):
        approx = float(np.sum(wts * pts**p))
        assert approx == pytest.approx(1.0 / (p + 1), rel=0.0, abs=5e-15)


def test_edge_rule_is_computed_once_and_read_only(monkeypatch):
    # built at import: asking for the rule computes nothing
    calls = []
    monkeypatch.setattr(
        np.polynomial.legendre, "leggauss", lambda n: calls.append(n)
    )
    pts, wts = edge_rule()
    # every caller shares the arrays, so none may write to them
    with pytest.raises(ValueError, match="read-only"):
        pts[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        wts *= 2.0
    for _ in range(3):
        again = edge_rule()
        assert again[0] is pts and again[1] is wts
    assert calls == []
