"""Closed-form reference solution for the flat grating at y = 0.

For a flat surface the scattered field consists of exactly one reflected
compressional and one reflected shear mode (the specular order n = 0):

    u(x, y) = u_inc(x, y)
              - (alpha, beta)    * R1 * exp(i*(alpha*x + beta*y))
              - (beta2, -alpha)  * R2 * exp(i*(alpha*x + beta2*y)),

where beta2 = sqrt(kappa2^2 - alpha^2) is the shear vertical wavenumber of
order 0 and the reflection coefficients are

    R1 = (alpha*sin(theta) - beta2*cos(theta)) / (alpha^2 + beta*beta2),
    R2 = (alpha*cos(theta) + beta *sin(theta)) / (alpha^2 + beta*beta2).

The combination satisfies u(x, 0) = 0 identically and carries the exact
energy balance kappa1^2 * (beta*|R1|^2 + beta2*|R2|^2) / beta = 1.  At
normal incidence (theta = 0) the shear mode vanishes: R2 = 0, R1 = -1/kappa1.
These three plane waves are ``FlatSolution.waves``.

This module also measures the H1-seminorm error of a discrete field against
the reference solution over the physical region (y <= b).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import cos, sin

import numpy as np

from .meshing import PHYSICAL, p1_jacobian
from .quadrature import ELEMENT_RULE, at_rule_points
from .waves import WaveContext, plane_wave

__all__ = ["FlatSolution", "flat_solution", "h1_seminorm_error", "fit_slope"]


@dataclass(frozen=True)
class FlatSolution:
    """Reference solution data for the flat grating at y = 0.

    Attributes
    ----------
    ctx : WaveContext
    r1, r2 : float
        Reflection coefficients of the compressional / shear specular modes.
    beta2 : float
        Shear vertical wavenumber of mode 0 (real: the mode propagates for
        every admissible context because |alpha| < kappa1 < kappa2).
    waves : tuple
        (amplitude, polarization, wave vector) of the incident wave and the
        reflected compressional and shear modes, evaluated by ``plane_wave``.
    """

    ctx: WaveContext
    r1: float
    r2: float
    beta2: float

    @cached_property
    def waves(self) -> tuple:
        ctx, a, b2 = self.ctx, self.ctx.alpha, self.beta2
        return (
            (1.0, ctx.polarization, ctx.wavevector),
            (-self.r1, (a, ctx.beta), (a, ctx.beta)),
            (-self.r2, (b2, -a), (a, b2)),
        )

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Total displacement field, shape broadcast(x, y).shape + (2,)."""
        return sum(amp * plane_wave(pol, k, x, y) for amp, pol, k in self.waves)

    def gradient(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Jacobian out[..., c, d] = d u_c / d x_d, each wave's value * i*k_d."""
        return sum(
            (amp * plane_wave(pol, k, x, y))[..., :, None] * (1j * np.asarray(k))
            for amp, pol, k in self.waves
        )


def flat_solution(ctx: WaveContext) -> FlatSolution:
    """Build the closed-form solution for the flat grating at y = 0."""
    beta2 = np.sqrt(ctx.kappa2**2 - ctx.alpha**2)
    denom = ctx.alpha**2 + ctx.beta * beta2
    r1 = (ctx.alpha * sin(ctx.theta) - beta2 * cos(ctx.theta)) / denom
    r2 = (ctx.alpha * cos(ctx.theta) + ctx.beta * sin(ctx.theta)) / denom
    return FlatSolution(ctx=ctx, r1=float(r1), r2=float(r2), beta2=float(beta2))


def h1_seminorm_error(mesh, field: np.ndarray, solution: FlatSolution) -> float:
    """H1(Omega)-seminorm of (discrete field - reference) over y <= b.

    Integrated with the element rule (``quadrature.ELEMENT_RULE``) at the
    points of ``quadrature.at_rule_points``.

    Parameters
    ----------
    mesh : Mesh
        Triangulation; only its physical elements (y <= b) enter.
    field : ndarray, shape (n_nodes, 2) of complex
        Nodal displacement values.
    solution : FlatSolution

    Returns
    -------
    float
        sqrt( sum_T integral_T |grad(u_h - u)|_F^2 ).
    """
    field = np.asarray(field)
    if field.shape != (mesh.n_nodes, 2):
        raise ValueError("field must be nodal values of shape (n_nodes, 2)")
    phys = np.nonzero(mesh.region == PHYSICAL)[0]
    if phys.size == 0:
        return 0.0
    tris = mesh.tris[phys]
    areas = mesh.areas[phys]            # (M,)
    jac_h = p1_jacobian(field[tris], mesh.grads[phys])  # (M, 2, 2)

    w = ELEMENT_RULE[1]
    coords = mesh.nodes[tris]           # (M, 3, 2)
    jac_u = solution.gradient(          # (M, Q, 2, 2)
        at_rule_points(coords[..., 0]), at_rule_points(coords[..., 1])
    )
    diff = jac_h[:, None, :, :] - jac_u
    per_q = np.sum(np.abs(diff) ** 2, axis=(2, 3))          # (M, Q)
    total = float(np.sum(areas * (per_q @ w)))
    return float(np.sqrt(total))


def fit_slope(sizes: np.ndarray, errors: np.ndarray, last: int = 4) -> float:
    """Least-squares slope of log(error) versus log(size) on the tail.

    Parameters
    ----------
    sizes, errors : array_like
        Positive sequences (e.g. node counts and error values).
    last : int
        Number of trailing entries to fit, >= 2, clipped to the available length.

    Returns
    -------
    float
        Fitted slope (error ~ size^slope).
    """
    sizes = np.asarray(sizes, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if sizes.shape != errors.shape or sizes.size < 2:
        raise ValueError("need two equal-length sequences of at least 2 points")
    if last < 2:
        raise ValueError(f"a slope needs last >= 2 points, got {last}")
    k = min(int(last), sizes.size)
    xs = np.log(sizes[-k:])
    ys = np.log(errors[-k:])
    slope, _ = np.polyfit(xs, ys, 1)
    return float(slope)
