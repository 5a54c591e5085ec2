"""Incident-wave context and Rayleigh mode tables for periodic gratings.

A time-harmonic compressional plane wave

    u_inc(x, y) = (sin(theta), -cos(theta)) * exp(i*(alpha*x - beta*y))

travels downward onto a grating surface that is periodic in x with period
``period``.  The displacement field solves the Navier system

    mu * Lap(u) + (lam + mu) * grad(div(u)) + omega^2 * u = 0

above the surface, with u = 0 on the surface itself.  The two bulk
wavenumbers are

    kappa1 = omega / sqrt(lam + 2*mu)    (compressional),
    kappa2 = omega / sqrt(mu)            (shear),

and mu > 0, lam + mu > 0 imply kappa1 < kappa2.  The incident wave vector is
(alpha, -beta) with alpha = kappa1*sin(theta), beta = kappa1*cos(theta).
A ``WaveContext`` checks and holds the six physical inputs (omega, lam,
mu, theta, period, gamma_height); it computes kappa1, kappa2, alpha, beta
and the incident polarization and wave vector on first read and keeps them.
``plane_wave`` is the one plane-wave formula of the package.

Quasi-periodicity splits any field into Rayleigh modes exp(i*alpha_n*x) with

    alpha_n    = alpha + 2*pi*n/period,
    beta_j^(n) = sqrt(kappa_j^2 - alpha_n^2)      if |alpha_n| < kappa_j,
               = i*sqrt(alpha_n^2 - kappa_j^2)    otherwise,

so each mode either propagates (real beta) or decays exponentially in y
(positive imaginary beta).  The mode coupling scalar

    chi^(n) = alpha_n^2 + beta_1^(n) * beta_2^(n)

satisfies kappa1^2 < |chi^(n)| < kappa2^2 for every n, which keeps the
transparent-boundary algebra well conditioned.  Cut-off modes
(|alpha_n| = kappa_j, beta = 0) make the boundary operators singular; mode
tables refuse to build within a relative tolerance of such a resonance.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from math import ceil, cos, floor, isfinite, pi, sin, sqrt
from numbers import Integral

import numpy as np

__all__ = [
    "WaveContext",
    "ModeTable",
    "ResonanceError",
    "build_mode_table",
    "incident_field",
]

#: Relative cut-off guard of the mode table: it refuses to build when some
#: mode has | |alpha_n| - kappa_j | <= RESONANCE_RTOL * kappa_j.
RESONANCE_RTOL = 1e-8


class ResonanceError(ValueError):
    """A Rayleigh mode sits (numerically) at a cut-off |alpha_n| = kappa_j."""


@dataclass(frozen=True)
class WaveContext:
    """Physical parameters of one scattering problem plus derived constants.

    The six inputs are the fields, which equality and hashing compare; they
    are stored as floats, and building a context (also by
    ``dataclasses.replace``) raises ValueError for an inadmissible one.
    The derived constants are computed on first read and kept.

    Attributes
    ----------
    omega : float
        Angular frequency, > 0.
    lam, mu : float
        Lamé constants with mu > 0 and lam + mu > 0 (they make the
        elasticity tensor positive and imply kappa1 < kappa2).
    theta : float
        Incidence angle in radians, |theta| < pi/2 (measured from the
        downward vertical; theta = 0 is normal incidence).
    period : float
        Grating period in x, > 0.
    gamma_height : float
        Height y = b > 0 of the horizontal line Gamma where the transparent
        boundary / PML starts; must lie strictly above the grating.
    kappa1, kappa2 : float
        Compressional and shear wavenumbers.
    alpha, beta : float
        Horizontal and vertical components of the incident wave vector.
    polarization, wavevector : tuple of float
        (sin(theta), -cos(theta)) and (alpha, -beta) of the incident wave.
    """

    omega: float
    lam: float
    mu: float
    theta: float
    period: float
    gamma_height: float

    def __post_init__(self) -> None:
        values = [float(getattr(self, f.name)) for f in fields(self)]
        if not all(map(isfinite, values)):
            raise ValueError("all wave parameters must be finite numbers")
        for f, value in zip(fields(self), values):
            object.__setattr__(self, f.name, value)
        if self.omega <= 0.0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if self.mu <= 0.0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if self.lam + self.mu <= 0.0:
            raise ValueError(f"lam + mu must be positive, got {self.lam + self.mu}")
        if not abs(self.theta) < pi / 2.0:
            raise ValueError(f"|theta| must be < pi/2, got {self.theta}")
        if self.period <= 0.0:
            raise ValueError(f"period must be positive, got {self.period}")
        if self.gamma_height <= 0.0:
            raise ValueError(f"gamma_height must be positive, got {self.gamma_height}")

    @cached_property
    def kappa1(self) -> float:
        return self.omega / sqrt(self.lam + 2.0 * self.mu)

    @cached_property
    def kappa2(self) -> float:
        return self.omega / sqrt(self.mu)

    @cached_property
    def alpha(self) -> float:
        return self.kappa1 * sin(self.theta)

    @cached_property
    def beta(self) -> float:
        return self.kappa1 * cos(self.theta)

    @cached_property
    def polarization(self) -> tuple[float, float]:
        return (sin(self.theta), -cos(self.theta))

    @cached_property
    def wavevector(self) -> tuple[float, float]:
        return (self.alpha, -self.beta)

    @property
    def phase(self) -> complex:
        """Quasi-periodicity factor exp(i*alpha*period)."""
        return complex(np.exp(1j * self.alpha * self.period))


@dataclass(frozen=True)
class ModeTable:
    """Rayleigh-mode data for n = -n_max .. n_max.

    Attributes
    ----------
    ctx : WaveContext
        The context the table was built from.
    n_max : int
        Truncation order; arrays hold 2*n_max + 1 entries.
    n : ndarray of int
        Mode indices in ascending order.
    alpha_n : ndarray of float
        Horizontal wavenumbers alpha + 2*pi*n/period.
    beta1, beta2 : ndarray of complex
        Vertical wavenumbers for the compressional / shear branch (real
        positive when propagating, positive imaginary when evanescent).
    chi : ndarray of complex
        Coupling scalars alpha_n^2 + beta1*beta2.
    prop1, prop2 : ndarray of bool
        Masks of the propagating sets U_1, U_2 (|alpha_n| < kappa_j).
    delta_minus, delta_plus : tuple of float
        Per-branch minima of the cut-off distance
        |kappa_j^2 - alpha_n^2|^(1/2) over the propagating set
        (delta_minus) and over the evanescent modes of the table
        (delta_plus, +inf when it holds none); over all n in the default
        window of ``build_mode_table``.
    """

    ctx: WaveContext
    n_max: int
    n: np.ndarray
    alpha_n: np.ndarray
    beta1: np.ndarray
    beta2: np.ndarray
    chi: np.ndarray
    prop1: np.ndarray
    prop2: np.ndarray
    delta_minus: tuple
    delta_plus: tuple

    def index(self, n: int) -> int:
        """Array index of mode n."""
        if abs(n) > self.n_max:
            raise IndexError(f"mode {n} outside truncation |n| <= {self.n_max}")
        return n + self.n_max


def _vertical_wavenumber(kappa: float, alpha_n: np.ndarray) -> np.ndarray:
    """beta = sqrt(kappa^2 - alpha_n^2) on the branch with Im >= 0.

    The evanescent branch is taken explicitly as i*sqrt(alpha_n^2 - kappa^2)
    so the result is exactly real or exactly imaginary.
    """
    diff = kappa * kappa - alpha_n * alpha_n
    out = np.where(
        diff > 0.0,
        np.sqrt(np.maximum(diff, 0.0)) + 0.0j,
        1j * np.sqrt(np.maximum(-diff, 0.0)),
    )
    return out


def build_mode_table(ctx: WaveContext, n_max: int | None = None) -> ModeTable:
    """Tabulate Rayleigh modes for |n| <= n_max.

    Parameters
    ----------
    ctx : WaveContext
    n_max : int, optional
        Truncation order, >= 0.  By default the smallest symmetric window
        that holds every propagating shear mode and the first evanescent
        one on each side.  As kappa1 < kappa2, it holds every mode that
        the propagating sets, the all-n minima delta_minus and delta_plus
        and the cut-off guard of either branch depend on.

    Returns
    -------
    ModeTable

    Raises
    ------
    ValueError
        When ``n_max`` is not an integer >= 0.
    ResonanceError
        When a mode sits within ``RESONANCE_RTOL`` of a cut-off.
    """
    if n_max is None:
        s = 2.0 * pi / ctx.period
        n_max = max(-floor((-ctx.kappa2 - ctx.alpha) / s),
                    ceil((ctx.kappa2 - ctx.alpha) / s))
    if not isinstance(n_max, Integral):
        raise ValueError(f"n_max must be an integer, got {n_max!r}")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    n = np.arange(-n_max, n_max + 1)
    alpha_n = ctx.alpha + 2.0 * pi * n / ctx.period

    for kappa, j in ((ctx.kappa1, 1), (ctx.kappa2, 2)):
        near = np.abs(np.abs(alpha_n) - kappa) <= RESONANCE_RTOL * kappa
        if near.any():
            bad = int(n[near][0])
            raise ResonanceError(
                f"mode n={bad} sits at the branch-{j} cut-off "
                f"(|alpha_n| = {abs(alpha_n[near][0]):.17g} vs "
                f"kappa{j} = {kappa:.17g}); perturb omega or theta"
            )

    beta1 = _vertical_wavenumber(ctx.kappa1, alpha_n)
    beta2 = _vertical_wavenumber(ctx.kappa2, alpha_n)
    chi = alpha_n.astype(complex) ** 2 + beta1 * beta2
    prop1 = np.abs(alpha_n) < ctx.kappa1
    prop2 = np.abs(alpha_n) < ctx.kappa2

    branches = [
        (np.sqrt(np.abs(kappa**2 - alpha_n**2)), prop)
        for kappa, prop in ((ctx.kappa1, prop1), (ctx.kappa2, prop2))
    ]

    return ModeTable(
        ctx=ctx,
        n_max=int(n_max),
        n=n,
        alpha_n=alpha_n,
        beta1=beta1,
        beta2=beta2,
        chi=chi,
        prop1=prop1,
        prop2=prop2,
        delta_minus=tuple(float(d[p].min()) for d, p in branches),
        delta_plus=tuple(float(d[~p].min(initial=np.inf)) for d, p in branches),
    )


def plane_wave(pol, k, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """pol * exp(i*(k[0]*x + k[1]*y)), shape broadcast(x, y).shape + (2,).

    Its Jacobian d u_c / d x_d is value[..., c] * i*k[d].
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    phase = np.exp(1j * (k[0] * x + k[1] * y))
    return phase[..., None] * np.asarray(pol)


def incident_field(ctx: WaveContext, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The incident compressional plane wave of unit amplitude, (u1, u2)."""
    return plane_wave(ctx.polarization, ctx.wavevector, x, y)
