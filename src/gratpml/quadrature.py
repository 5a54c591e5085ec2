"""Quadrature rules on the reference triangle and the unit interval.

Every element integral (assembly, residual estimator, true error) uses one
rule, the symmetric 7-point Dunavant rule, exact through degree 5: exact for
the at most quadratic P1 integrands on physical elements (rho = 1).  Its
points are barycentric coordinates and its weights sum to one, so that

    integral_T f dx  ~=  area(T) * sum_q w_q * f(x_q),

with x_q = sum_i bary[q, i] * P_i for vertices P_i.  ``at_rule_points`` is
that map: every element-rule point, and every P1 value at one, comes from it.

Edge integrals use one rule, the 5-point Gauss-Legendre rule on [0, 1]
(exact through degree 9).  Both rules are built once at import and shared by
every caller, so their arrays are read-only.
"""

from __future__ import annotations

import numpy as np

__all__ = ["element_rule", "at_rule_points", "edge_rule"]

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
_DUNAVANT5_BARY.flags.writeable = _DUNAVANT5_W.flags.writeable = False


def element_rule() -> tuple[np.ndarray, np.ndarray]:
    """The 7-point Dunavant rule on the triangle, exact through degree 5.

    The arrays are shared, so read-only.

    Returns
    -------
    bary : ndarray, shape (7, 3)
        Barycentric coordinates of the points.
    weights : ndarray, shape (7,)
        Positive weights summing to 1.
    """
    return _DUNAVANT5_BARY, _DUNAVANT5_W


def at_rule_points(vertex_values: np.ndarray) -> np.ndarray:
    """Values (M, Q) at the points of ``element_rule`` of data linear on each
    of M elements, from its values (M, 3) at the vertices; of a vertex
    coordinate, that coordinate of the points themselves."""
    return vertex_values @ element_rule()[0].T


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
