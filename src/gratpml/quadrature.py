"""Quadrature rules on the reference triangle and the unit interval.

Triangle rules are returned in barycentric coordinates with weights that sum
to one, so that

    integral_T f dx  ~=  area(T) * sum_q w_q * f(x_q),

with x_q = sum_i bary[q, i] * P_i for vertices P_i.  Degrees up to 5 use
the symmetric 7-point Dunavant rule; higher degrees fall back to a collapsed
Gauss-Legendre product (Duffy transform), which is exact for any requested
polynomial degree at the cost of more points.

Edge integrals use one rule, the 5-point Gauss-Legendre rule on [0, 1]
(exact through degree 9), built once at import.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ELEMENT_DEGREE", "triangle_rule", "edge_rule"]

#: Degree of the triangle rule of every element integral (assembly, residual
#: estimator, true error); exact for the at most quadratic P1 integrands on
#: physical elements (rho = 1).
ELEMENT_DEGREE = 5

_SQRT15 = np.sqrt(15.0)

# Dunavant degree-5 rule: centroid + two symmetric orbits.
_G1 = (6.0 - _SQRT15) / 21.0
_G2 = (6.0 + _SQRT15) / 21.0
_W1 = (155.0 - _SQRT15) / 1200.0
_W2 = (155.0 + _SQRT15) / 1200.0
_DUNAVANT5_BARY = np.array(
    [
        [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
        [1.0 - 2.0 * _G1, _G1, _G1],
        [_G1, 1.0 - 2.0 * _G1, _G1],
        [_G1, _G1, 1.0 - 2.0 * _G1],
        [1.0 - 2.0 * _G2, _G2, _G2],
        [_G2, 1.0 - 2.0 * _G2, _G2],
        [_G2, _G2, 1.0 - 2.0 * _G2],
    ]
)
_DUNAVANT5_W = np.array([9.0 / 40.0, _W1, _W1, _W1, _W2, _W2, _W2])


def _duffy_rule(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Collapsed Gauss-Legendre product rule exact to the given total degree.

    With x = s, y = t*(1-s) mapping the unit square to the reference
    triangle {x, y >= 0, x + y <= 1}, a monomial x^p y^q becomes
    s^p t^q (1-s)^(q+1); n-point Gauss-Legendre per axis is exact for
    per-axis degree 2n - 1, so n = ceil((degree + 2) / 2) suffices.
    """
    n = int(np.ceil((degree + 2) / 2.0))
    pts, wts = np.polynomial.legendre.leggauss(n)
    s = 0.5 * (pts + 1.0)
    w = 0.5 * wts
    ss, tt = np.meshgrid(s, s, indexing="ij")
    ws, wt = np.meshgrid(w, w, indexing="ij")
    x = ss.ravel()
    y = (tt * (1.0 - ss)).ravel()
    # Jacobian (1-s); factor 2 renormalizes: reference area is 1/2 and the
    # returned weights must sum to 1.
    weights = (ws * wt * (1.0 - ss)).ravel() * 2.0
    bary = np.stack([1.0 - x - y, x, y], axis=1)
    return bary, weights


def triangle_rule(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Barycentric points and unit-sum weights exact to ``degree``.

    Parameters
    ----------
    degree : int
        Requested polynomial exactness (>= 0).

    Returns
    -------
    bary : ndarray, shape (Q, 3)
    weights : ndarray, shape (Q,)
    """
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    if degree <= 5:
        return _DUNAVANT5_BARY.copy(), _DUNAVANT5_W.copy()
    return _duffy_rule(degree)


# 5-point Gauss-Legendre on [0, 1]; every caller shares these arrays, so
# they are read-only.
_GL5_PTS, _GL5_WTS = np.polynomial.legendre.leggauss(5)
_EDGE_T = 0.5 * (_GL5_PTS + 1.0)
_EDGE_W = 0.5 * _GL5_WTS
_EDGE_T.flags.writeable = _EDGE_W.flags.writeable = False


def edge_rule() -> tuple[np.ndarray, np.ndarray]:
    """The 5-point Gauss-Legendre rule on [0, 1] with unit-sum weights.

    Exact through degree 9.  The arrays are shared, so read-only.

    Returns
    -------
    t : ndarray, shape (5,)
        Parameter points in (0, 1).
    w : ndarray, shape (5,)
        Weights summing to 1, so integral_e f ds ~= len(e) * sum w*f(t).
    """
    return _EDGE_T, _EDGE_W
