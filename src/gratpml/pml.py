"""Perfectly matched layer: complex stretching, modeling constants, calibration.

Above the transparent-boundary line y = b the vertical coordinate is
complex-stretched with the medium function

    rho(y) = 1                                   for y <= b,
             1 + sigma * ((y - b)/delta)^m       for b < y <= b + delta,

where sigma is a complex strength (Re sigma >= 0, Im sigma >= 0), m >= 1 an
integer power, and delta the layer thickness.  The stretched layer depth is

    zeta = integral_b^{b+delta} rho(y) dy = delta * (1 + sigma/(m+1)),

so Re zeta = (1 + Re sigma/(m+1)) * delta and Im zeta = Im sigma/(m+1) * delta.
Re zeta >= 1 is required for the error analysis to apply.

Truncating the stretched problem at y = b + delta (homogeneous Dirichlet on
top) perturbs the exact transparent boundary operator by an amount controlled
by the fluctuation constant

    F = max_j max( Dj-/(exp(Dj- * Im zeta / 2) - 1),
                   Dj+/(exp(Dj+ * Re zeta / 2) - 1) ) * Cmax,
    Cmax = max( 12*kappa2, 16*kappa2^4, 8 + 2*kappa2^2,
                16*kappa2^3/kappa1^2, 24*(16 + kappa2^2)^2/kappa1^2 ),

where Dj-/Dj+ are the per-branch minima of the cut-off distance
|kappa_j^2 - alpha_n^2|^(1/2) over the propagating / evanescent Rayleigh
modes, over all integers n.  The derived boundary-operator bound is

    F_hat = 17 * omega^2 * F / kappa1^4,

and F <= kappa1^2/2 guarantees coercivity-style control of the truncated
problem.  Calibration asks Re zeta >= 1 and F_hat * sqrt(period) <=
TARGET_FHAT = 1e-8.  A branch term meets its share, D/(exp(D*Z/2) - 1) <=
t = TARGET_FHAT * kappa1^4 / (17 * omega^2 * Cmax * sqrt(period)), exactly
when Z >= (2/D) * log(1 + D/t).  So Im zeta must reach need_Im, the largest
such Z over the Dj-, and Re zeta need_Re, the largest over 1 and the finite
Dj+; with zeta = delta * (1 + sigma/(m+1)) the thinnest layer is

    delta* = max( need_Im / (Im sigma/(m+1)), need_Re / (1 + Re sigma/(m+1)) ),

infinite for Im sigma = 0.  Every term of F is nonincreasing in delta and Re
zeta grows with it, so exactly the delta >= delta* meet both conditions, and
the first of the fixed grid DELTA_GRID = 0.25 * 2^k (k = 0..8, so 0.25 to
64) at or above delta* is the first grid delta that does.

Inside the layer the incident wave is no longer a solution of the stretched
Navier operator L, written once as the six terms of ``flux_terms``; its
image g = L u_inc (zero below y = b), ``pml_source``, is the volume data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .waves import ModeTable, WaveContext, incident_field

__all__ = [
    "TARGET_FHAT",
    "DELTA_GRID",
    "PmlProfile",
    "ModelingConstants",
    "CalibrationError",
    "make_pml",
    "rho",
    "rho_prime",
    "flux_terms",
    "layer_weights",
    "modeling_constants",
    "thickness_bound",
    "calibrate",
    "pml_source",
]

#: expm1 overflow guard: exp(700) is near the float64 ceiling and the
#: corresponding fluctuation term is already < 1e-300.
_EXP_CLAMP = 700.0

#: Bound that calibration demands of F_hat * sqrt(period).
TARGET_FHAT = 1e-8

#: Layer thicknesses calibration tries, in order: 0.25 * 2^k for k = 0..8.
DELTA_GRID = tuple(0.25 * 2.0**k for k in range(9))


class CalibrationError(RuntimeError):
    """No layer thickness on the calibration grid reaches the target."""


@dataclass(frozen=True)
class PmlProfile:
    """Layer description: strength sigma, power m, thickness delta, start b.

    Built by ``make_pml``, which validates the parameters.
    """

    sigma: complex
    m: int
    delta: float
    b: float

    @property
    def zeta(self) -> complex:
        """Stretched layer depth zeta = delta * (1 + sigma/(m+1))."""
        return self.delta * (1.0 + self.sigma / (self.m + 1))

    @property
    def top(self) -> float:
        """Physical height of the truncation line, b + delta."""
        return self.b + self.delta


@dataclass(frozen=True)
class ModelingConstants:
    """Fluctuation and boundary-operator constants of a PML configuration.

    Attributes
    ----------
    f : float
        Fluctuation constant F.
    f_hat : float
        Boundary-operator bound F_hat = 17 * omega^2 * F / kappa1^4.
    coercive : bool
        Whether F <= kappa1^2 / 2.
    terms : ndarray, shape (2, 2)
        The per-branch fluctuation ratios [[D1-, D1+], [D2-, D2+]] before
        multiplication by Cmax (diagnostic).
    cmax : float
        The wavenumber factor Cmax.
    """

    f: float
    f_hat: float
    coercive: bool
    terms: np.ndarray
    cmax: float


def make_pml(sigma: complex, m: int, delta: float, b: float) -> PmlProfile:
    """Validate layer parameters and build a :class:`PmlProfile`.

    Raises
    ------
    ValueError
        For non-positive delta, m < 1, or sigma non-finite or outside the
        closed right upper quadrant (Re >= 0, Im >= 0, sigma != 0).
    """
    if not (delta > 0.0 and np.isfinite(delta)):
        raise ValueError(f"delta must be positive and finite, got {delta}")
    sigma, m = _strength(sigma, m)
    if not np.isfinite(b):
        raise ValueError(f"b must be finite, got {b}")
    return PmlProfile(sigma=sigma, m=m, delta=float(delta), b=float(b))


def _strength(sigma: complex, m: int) -> tuple[complex, int]:
    """The strength sigma and power m, checked as :func:`make_pml` states."""
    sigma = complex(sigma)
    if int(m) != m or m < 1:
        raise ValueError(f"m must be an integer >= 1, got {m}")
    if not (np.isfinite(sigma) and sigma.real >= 0.0 and sigma.imag >= 0.0
            and sigma != 0):
        raise ValueError(
            f"sigma must be finite with Re >= 0, Im >= 0, sigma != 0, got {sigma}"
        )
    return sigma, int(m)


def rho(profile: PmlProfile, y: np.ndarray) -> np.ndarray:
    """Medium function rho(y); identically 1 at and below y = b."""
    y = np.asarray(y, dtype=float)
    t = np.clip((y - profile.b) / profile.delta, 0.0, None)
    return 1.0 + profile.sigma * t**profile.m  # 1 + sigma*0 = 1+0j at and below b


def rho_prime(profile: PmlProfile, y: np.ndarray) -> np.ndarray:
    """Derivative rho'(y); zero at and below y = b."""
    y = np.asarray(y, dtype=float)
    t = np.clip((y - profile.b) / profile.delta, 0.0, None)
    val = profile.sigma * profile.m * t ** (profile.m - 1) / profile.delta
    # the mask is needed for m = 1, where t**0 = 1 at and below b
    return np.where(y > profile.b, val, 0.0 + 0.0j)


def flux_terms(ctx: WaveContext) -> tuple[tuple[int, int, int, int, int, float], ...]:
    """The stretched Navier operator L: the six terms (p, c, d, e, f, coef)
    of its flux W_c . n = sum coef * rho^p * dx_f(u_e) * n_d, with the
    weight rho^p = rho, 1 or 1/rho (p = 1, 0, -1) and dx_0 = dx, dx_1 = dy:

        W1 = (lam+2mu)*rho*dx(u1)*nx + mu/rho*dy(u1)*ny + (lam+mu)*dy(u2)*nx
        W2 = mu*rho*dx(u2)*nx + (lam+2mu)/rho*dy(u2)*ny + (lam+mu)*dx(u1)*ny

    Summed over the terms, (L u)_c = dx_d(coef * rho^p * dx_f(u_e)) +
    omega^2*rho*u_c, and the form of the truncated problem on one period D
    is b(u, v) = integral_D coef * rho^p * dx_f(u_e) * dx_d(conj v_c) -
    omega^2*rho*u.conj(v).  As rho depends on y alone, dx_d(rho^p) =
    [d = 1] * p * rho'/rho^(1-p), and ``layer_weights`` tabulates both by
    p.  ``assembly``, the residual and jumps of ``estimator`` and
    ``pml_source`` all loop over these terms and read that table.

    The mixed terms are in the transpose grouping
    (lam+mu)*(dy(u2)*dx(conj v1) + dx(u1)*dy(conj v2)).  It differs from
    the literal grouping (lam+mu)*(dx(u2)*dy(conj v1) + dx(u1)*dy(conj v2))
    by a constant-coefficient null Lagrangian: the two assembled systems
    coincide (the difference integrates by parts onto boundary terms that
    cancel under the quasi-periodic and Dirichlet constraints), while the
    grouping used here makes every element matrix complex symmetric.
    ``tests/test_assembly.py`` keeps the literal grouping as a dense
    reference and checks that both assemble to the same reduced system.
    """
    lam, mu = ctx.lam, ctx.mu
    return (
        (1, 0, 0, 0, 0, lam + 2 * mu),
        (-1, 0, 1, 0, 1, mu),
        (0, 0, 0, 1, 1, lam + mu),
        (1, 1, 0, 1, 0, mu),
        (-1, 1, 1, 1, 1, lam + 2 * mu),
        (0, 1, 1, 0, 0, lam + mu),
    )


def layer_weights(r: np.ndarray, rp: np.ndarray | float) -> dict[int, tuple]:
    """The weight rho^p of the terms of ``flux_terms`` and its y-derivative
    p * rho'/rho^(1-p), by the term's p, at the points where rho = r and
    rho' = rp:

        {1: (rho, rho'),  0: (1, 0),  -1: (1/rho, -rho'/rho^2)}

    The weight 1 and its derivative 0 are scalars, so the terms with p = 0
    stay scalars too.
    """
    inv = 1.0 / r
    return {1: (r, rp), 0: (1.0, 0.0), -1: (inv, -rp * inv**2)}


def _fluct_ratio(delta_cut: float, depth: float) -> float:
    """Evaluate D / (exp(D * depth) - 1) safely (0 for empty D = +inf)."""
    if not np.isfinite(delta_cut):
        return 0.0
    arg = delta_cut * depth
    if arg <= 0.0:
        return float("inf")
    return float(delta_cut / np.expm1(min(arg, _EXP_CLAMP)))


def _cmax(ctx: WaveContext) -> float:
    """The wavenumber factor Cmax of the fluctuation constant."""
    k1, k2 = ctx.kappa1, ctx.kappa2
    return max(
        12.0 * k2,
        16.0 * k2**4,
        8.0 + 2.0 * k2**2,
        16.0 * k2**3 / k1**2,
        24.0 * (16.0 + k2**2) ** 2 / k1**2,
    )


def modeling_constants(
    ctx: WaveContext, modes: ModeTable, profile: PmlProfile
) -> ModelingConstants:
    """Fluctuation constant F, operator bound F_hat and the coercivity flag.

    Parameters
    ----------
    ctx : WaveContext
    modes : ModeTable
        Supplies the cut-off minima.  They are the minima over all n when
        the window holds every mode they depend on, as the window that
        ``build_mode_table`` derives by default does.
    profile : PmlProfile

    Returns
    -------
    ModelingConstants
    """
    k1 = ctx.kappa1
    cmax = _cmax(ctx)
    re_half = profile.zeta.real / 2.0
    im_half = profile.zeta.imag / 2.0
    terms = np.array([
        [_fluct_ratio(d_minus, im_half), _fluct_ratio(d_plus, re_half)]
        for d_minus, d_plus in zip(modes.delta_minus, modes.delta_plus)
    ])
    f = float(terms.max()) * cmax
    f_hat = 17.0 * ctx.omega**2 * f / k1**4
    return ModelingConstants(
        f=f,
        f_hat=f_hat,
        coercive=bool(f <= k1**2 / 2.0),
        terms=terms,
        cmax=cmax,
    )


def thickness_bound(
    ctx: WaveContext,
    modes: ModeTable,
    sigma: complex = 12.0 + 12.0j,
    m: int = 2,
) -> float:
    """The thinnest layer delta* meeting both conditions of calibration (see
    the module docstring); inf for Im sigma = 0.  Arguments as for
    :func:`calibrate`; ValueError for a sigma or m that :func:`make_pml`
    rejects."""
    sigma, m = _strength(sigma, m)
    if sigma.imag == 0.0:
        return float("inf")
    t = TARGET_FHAT * ctx.kappa1**4 / (
        17.0 * ctx.omega**2 * _cmax(ctx) * np.sqrt(ctx.period)
    )

    def need(cuts, floor=0.0):  # the depth Z that every finite cut-off needs
        return max([floor] + [2.0 / d * np.log1p(d / t)
                              for d in cuts if np.isfinite(d)])

    return float(max(need(modes.delta_minus) / (sigma.imag / (m + 1)),
                     need(modes.delta_plus, 1.0) / (1.0 + sigma.real / (m + 1))))


def calibrate(
    ctx: WaveContext,
    modes: ModeTable,
    sigma: complex = 12.0 + 12.0j,
    m: int = 2,
) -> PmlProfile:
    """The layer whose thickness is :func:`thickness_bound` rounded up to
    DELTA_GRID, for the strength sigma and power m that :func:`make_pml`
    validates.

    Raises
    ------
    CalibrationError
        If the bound lies beyond the grid.  The message names the best
        F_hat * sqrt(period) reached, at the thickest delta as F_hat falls
        with delta, and the thickness the target needs.
    """
    thickest = make_pml(sigma, m, DELTA_GRID[-1], ctx.gamma_height)  # validates
    bound = thickness_bound(ctx, modes, sigma, m)
    if bound <= thickest.delta:
        delta = min(d for d in DELTA_GRID if d >= bound)
        return make_pml(sigma, m, delta, ctx.gamma_height)
    failure = (f"no delta in [{DELTA_GRID[0]}, {DELTA_GRID[-1]}] reaches "
               f"F_hat*sqrt(period) <= {TARGET_FHAT:.3g}")
    if thickest.sigma.imag == 0.0:
        raise CalibrationError(f"{failure}: with Im sigma = 0, Im zeta = 0 and "
                               f"the propagating modes are not damped")
    best = modeling_constants(ctx, modes, thickest).f_hat * float(np.sqrt(ctx.period))
    raise CalibrationError(f"{failure}; best was {best:.3g} at delta = "
                           f"{thickest.delta}; the target needs delta >= {bound:.5g}")


def pml_source(
    ctx: WaveContext, profile: PmlProfile, x: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Volume data g = L u_inc of the stretched formulation, in closed form.

    The plane wave u_inc = (u1, u2) * exp(i*(alpha*x - beta*y)) has
    dx_f(u_inc) = k_f * u_inc with k = i*(alpha, -beta), so each term of
    ``flux_terms`` adds coef * k_f * (k_d * rho^p + dx_d(rho^p)) * u_e to
    g_c, on top of omega^2 * rho * u_c; zero at and below y = b, where
    rho = 1 and the plane wave solves the unstretched equation.

    Parameters
    ----------
    ctx, profile
        Wave context and layer profile.
    x, y : ndarray
        Coordinates (broadcast together).

    Returns
    -------
    ndarray of complex, shape broadcast(x, y).shape + (2,)
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    k = [1j * c for c in ctx.wavevector]
    r = rho(profile, y)
    weight = layer_weights(r, rho_prime(profile, y))
    u = incident_field(ctx, x, y)
    m = [[0.0, 0.0], [0.0, 0.0]]  # g_c = m[c][0] * u1 + m[c][1] * u2
    for p, c, d, e, f, coef in flux_terms(ctx):
        w, dy_w = weight[p]  # k_d * rho^p + dx_d(rho^p), where dx(rho^p) = 0
        m[c][e] = m[c][e] + coef * k[f] * ((k[d] * w + dy_w) if d else k[d] * w)
    for c in range(2):
        m[c][c] = m[c][c] + ctx.omega**2 * r
    g = np.stack([m[c][0] * u[..., 0] + m[c][1] * u[..., 1] for c in range(2)], -1)
    # Exactly zero outside the layer (the terms already cancel there in
    # exact arithmetic; enforce bit-exact zero for the physical region).
    return g * (y > profile.b)[..., None]
