"""Quadrature rules on the reference triangle and the unit interval.

Every element integral (assembly, residual estimator, true error) uses one
rule, the symmetric 7-point Dunavant rule, exact through degree 5: exact for
the at most quadratic P1 integrands on physical elements (rho = 1).  Its
points are barycentric coordinates and its weights sum to one, exactly in
floating point as well, so that

    integral_T f dx  ~=  area(T) * sum_q w_q * f(x_q),

with x_q = sum_i bary[q, i] * P_i for vertices P_i, and the rule gives the
integral of 1 as area(T) itself.  ``at_rule_points`` is that map: every
element-rule point, and every P1 value at one, comes from it.

The edge integrals of the residual estimator, its flux jumps and its data
terms on the truncation and interface lines, use one rule, the 5-point
Gauss-Legendre rule on [0, 1] (exact through degree 9); the interface trace
of ``rayleigh.fourier_trace`` is integrated in closed form instead.  Each
rule is a module tuple (points, weights) of arrays built once at import and
shared by every caller, so the arrays are read-only.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ELEMENT_RULE", "at_rule_points", "EDGE_RULE"]

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

#: The 7-point Dunavant rule on the triangle, exact through degree 5:
#: barycentric coordinates of the points (7, 3) and positive weights (7,)
#: summing to 1.
ELEMENT_RULE = (_DUNAVANT5_BARY, _DUNAVANT5_W)


def at_rule_points(vertex_values: np.ndarray) -> np.ndarray:
    """Values (M, Q) at the points of ``ELEMENT_RULE`` of data linear on each
    of M elements, from its values (M, 3) at the vertices; of a vertex
    coordinate, that coordinate of the points themselves."""
    return vertex_values @ ELEMENT_RULE[0].T


_GL5_PTS, _GL5_WTS = np.polynomial.legendre.leggauss(5)
_EDGE_T = 0.5 * (_GL5_PTS + 1.0)
_EDGE_W = 0.5 * _GL5_WTS
_EDGE_T.flags.writeable = _EDGE_W.flags.writeable = False

#: The 5-point Gauss-Legendre rule on [0, 1], exact through degree 9: the
#: parameter points in (0, 1) and weights summing to 1, so that
#: integral_e f ds ~= len(e) * sum w*f(t).
EDGE_RULE = (_EDGE_T, _EDGE_W)
