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

This module also measures the H1-seminorm error of a discrete field against
the reference solution over the physical region (y <= b).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, sin

import numpy as np

from .meshing import PHYSICAL, p1_jacobian
from .quadrature import at_rule_points, element_rule
from .waves import WaveContext, incident_field, incident_gradient

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
    """

    ctx: WaveContext
    r1: float
    r2: float
    beta2: float

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Total displacement field, shape broadcast(x, y).shape + (2,)."""
        ctx = self.ctx
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        u = incident_field(ctx, x, y)
        ep = np.exp(1j * (ctx.alpha * x + ctx.beta * y))
        es = np.exp(1j * (ctx.alpha * x + self.beta2 * y))
        u[..., 0] -= ctx.alpha * self.r1 * ep + self.beta2 * self.r2 * es
        u[..., 1] -= ctx.beta * self.r1 * ep - ctx.alpha * self.r2 * es
        return u

    def gradient(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Jacobian out[..., c, d] = d u_c / d x_d."""
        ctx = self.ctx
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = incident_gradient(ctx, x, y)
        ep = np.exp(1j * (ctx.alpha * x + ctx.beta * y))
        es = np.exp(1j * (ctx.alpha * x + self.beta2 * y))
        kp = np.array([1j * ctx.alpha, 1j * ctx.beta])
        ks = np.array([1j * ctx.alpha, 1j * self.beta2])
        pol_p = np.array([ctx.alpha, ctx.beta])
        pol_s = np.array([self.beta2, -ctx.alpha])
        out -= self.r1 * ep[..., None, None] * pol_p[:, None] * kp[None, :]
        out -= self.r2 * es[..., None, None] * pol_s[:, None] * ks[None, :]
        return out


def flat_solution(ctx: WaveContext) -> FlatSolution:
    """Build the closed-form solution for the flat grating at y = 0."""
    beta2 = np.sqrt(ctx.kappa2**2 - ctx.alpha**2)
    denom = ctx.alpha**2 + ctx.beta * beta2
    r1 = (ctx.alpha * sin(ctx.theta) - beta2 * cos(ctx.theta)) / denom
    r2 = (ctx.alpha * cos(ctx.theta) + ctx.beta * sin(ctx.theta)) / denom
    return FlatSolution(ctx=ctx, r1=float(r1), r2=float(r2), beta2=float(beta2))


def h1_seminorm_error(mesh, field: np.ndarray, solution: FlatSolution) -> float:
    """H1(Omega)-seminorm of (discrete field - reference) over y <= b.

    Integrated with the element rule (``quadrature.element_rule``) at the
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

    _, w = element_rule()
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
        Number of trailing entries to fit (clipped to the available length).

    Returns
    -------
    float
        Fitted slope (error ~ size^slope).
    """
    sizes = np.asarray(sizes, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if sizes.shape != errors.shape or sizes.size < 2:
        raise ValueError("need two equal-length sequences of at least 2 points")
    k = min(int(last), sizes.size)
    xs = np.log(sizes[-k:])
    ys = np.log(errors[-k:])
    slope, _ = np.polyfit(xs, ys, 1)
    return float(slope)
