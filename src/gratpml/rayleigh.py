"""Modal (Rayleigh) analysis on the interface line y = b.

Everything spectral lives here: Fourier coefficients of the scattered trace
along the interface, recovery of the compressional and shear wave potentials
from those coefficients, grating efficiencies and the energy balance.
The trace coefficients and the potentials are (K, 2) arrays aligned with
the mode table: row k belongs to the order modes.n[k].

Per mode n the tangential/vertical wavenumbers are alpha_n, beta1_n
(compressional) and beta2_n (shear), and chi_n = alpha_n^2 + beta1_n*beta2_n
never vanishes (kappa1^2 < |chi_n| < kappa2^2).  A scattered trace
v = (v1, v2) on the interface determines the outgoing potentials via

    phi1 = -(i/chi) * (alpha_n*v1 + beta2*v2),
    phi2 = -(i/chi) * (beta1*v1  - alpha_n*v2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .meshing import Mesh
from .waves import ModeTable, incident_field

__all__ = [
    "TraceError",
    "EfficiencyReport",
    "fourier_trace",
    "recover_potentials",
    "efficiencies",
]


class TraceError(RuntimeError):
    """The interface line is not fully covered by mesh edges."""


# --------------------------------------------------------------------------
# Fourier trace of the scattered field on the interface
# --------------------------------------------------------------------------


def _segment_integrals(t: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E1 = int_0^h e^{-i t s} ds and E2 = int_0^h s e^{-i t s} ds.

    Vectorized over broadcast (t, h); switches to series for |t*h| < 1e-6
    where the closed forms cancel.
    """
    t = np.asarray(t, dtype=float)
    h = np.asarray(h, dtype=float)
    th = t * h
    small = np.abs(th) < 1e-6
    ts = np.where(small, 1.0, t)
    phase = np.exp(-1j * ts * h)
    e1 = (1.0 - phase) / (1j * ts)
    e2 = phase * (1j * h / ts + 1.0 / ts**2) - 1.0 / ts**2
    if np.any(small):
        z = -1j * th
        # E1 = h (1 + z/2 + z^2/6 + z^3/24), E2 = h^2 (1/2 + z/3 + z^2/8)
        s1 = h * (1.0 + z / 2.0 + z**2 / 6.0 + z**3 / 24.0)
        s2 = h**2 * (0.5 + z / 3.0 + z**2 / 8.0)
        e1 = np.where(small, s1, e1)
        e2 = np.where(small, s2, e2)
    return e1, e2


def fourier_trace(mesh: Mesh, field: np.ndarray, modes: ModeTable) -> np.ndarray:
    """Fourier-analyze (field - u_inc) along the interface line y = b.

    Returns the (K, 2) coefficients of exp(i*alpha_n*x) for the alpha_n of
    ``modes``; row k belongs to the order modes.n[k].
    The piecewise-linear nodal field is integrated edge by edge in closed
    form against exp(-i*alpha_n*x), each edge running from its left node
    over its length ``Mesh.edge_lengths``.  The incident trace is the
    single mode n = 0 and is subtracted exactly, so no interpolation error
    enters it.

    Raises TraceError if the interface edges do not exactly tile one period.
    """
    ctx = modes.ctx
    field = np.asarray(field)
    if field.shape != (mesh.n_nodes, 2):
        raise ValueError("field must be nodal values of shape (n_nodes, 2)")
    edges, _, _ = mesh.edge_structure
    gamma = np.nonzero(mesh.edges_on(mesh.on_gamma))[0]
    if gamma.size == 0:
        raise TraceError("no mesh edges on the interface line")

    xa = mesh.nodes[edges[gamma, 0], 0]
    xb = mesh.nodes[edges[gamma, 1], 0]
    flip = xb < xa
    n0 = np.where(flip, edges[gamma, 1], edges[gamma, 0])
    n1 = np.where(flip, edges[gamma, 0], edges[gamma, 1])
    x0 = mesh.nodes[n0, 0]
    h = mesh.edge_lengths[gamma]
    if np.any(h <= 0.0):
        raise TraceError("degenerate interface edge")
    span = float(np.sum(h))
    if abs(span - ctx.period) > 1e-9 * ctx.period:
        raise TraceError(
            f"interface edges cover {span!r}, expected one period {ctx.period!r}"
        )

    w0 = field[n0]  # (E, 2)
    w1 = field[n1]
    alpha_n = modes.alpha_n

    # field part: int edge (w0 + (w1-w0) s/h) e^{-i alpha_n (x0+s)} ds
    e1, e2 = _segment_integrals(alpha_n[:, None], h[None, :])
    head = np.exp(-1j * alpha_n[:, None] * x0[None, :])
    lin = (w1 - w0) / h[:, None]
    coeffs = ((head * e1) @ w0 + (head * e2) @ lin) / ctx.period

    # the edges tile one period, so the incident trace u_inc(x, b) =
    # u_inc(0, b) e^{i alpha x} is mode 0 alone
    coeffs[modes.index(0)] -= incident_field(ctx, 0.0, ctx.gamma_height)
    return coeffs


# --------------------------------------------------------------------------
# Potentials and efficiencies
# --------------------------------------------------------------------------


def _check_window(modes: ModeTable, rows: np.ndarray, name: str) -> None:
    """ValueError unless ``rows`` holds one 2-vector per order of ``modes``."""
    if np.shape(rows) != (modes.n.size, 2):
        raise ValueError(
            f"{name} of shape {np.shape(rows)} do not match the "
            f"{modes.n.size} orders of the mode table"
        )


def recover_potentials(modes: ModeTable, coeffs: np.ndarray) -> np.ndarray:
    """Invert the 2x2 modal trace map for the outgoing potentials.

    ``coeffs`` are the (K, 2) trace coefficients of ``fourier_trace``.
    Returns the (K, 2) compressional and shear potential amplitudes
    (phi1, phi2) on the interface; row k belongs to the order modes.n[k].
    """
    _check_window(modes, coeffs, "trace coefficients")
    v1, v2 = coeffs.T
    phi1 = -1j / modes.chi * (modes.alpha_n * v1 + modes.beta2 * v2)
    phi2 = -1j / modes.chi * (modes.beta1 * v1 - modes.alpha_n * v2)
    return np.stack([phi1, phi2], axis=1)


@dataclass(frozen=True)
class EfficiencyReport:
    """Grating efficiencies of the propagating reflected modes.

    e1/e2 hold the compressional/shear efficiencies over the full window
    (NaN for evanescent modes); ``total`` should equal 1 for a lossless
    grating with exact data.
    """

    n: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    total: float

    def propagating(self) -> list[tuple[int, float, float]]:
        """(n, e1, e2) of every order that propagates as either wave type.

        e1 or e2 is NaN where its wave type is evanescent at that order.
        """
        return [
            (int(n), float(e1), float(e2))
            for n, e1, e2 in zip(self.n, self.e1, self.e2)
            if not (np.isnan(e1) and np.isnan(e2))
        ]


def efficiencies(modes: ModeTable, potentials: np.ndarray) -> EfficiencyReport:
    """Energy efficiencies e_j^n = beta_j^n |r_j^n|^2 / (beta |r0|^2).

    ``potentials`` are the (K, 2) amplitudes (phi1, phi2) of
    ``recover_potentials``.  r0 = -i/kappa1 is the potential amplitude of
    the unit incident wave and r_j^n = phi_j^n e^{-i beta_j^n b} the
    outgoing ones referred to y = 0.
    """
    _check_window(modes, potentials, "potentials")
    ctx = modes.ctx
    b = ctx.gamma_height
    r0sq = (1.0 / ctx.kappa1) ** 2
    r1 = potentials[:, 0] * np.exp(-1j * modes.beta1 * b)
    r2 = potentials[:, 1] * np.exp(-1j * modes.beta2 * b)
    denom = ctx.beta * r0sq
    e1 = np.where(
        modes.prop1, modes.beta1.real * np.abs(r1) ** 2 / denom, np.nan
    )
    e2 = np.where(
        modes.prop2, modes.beta2.real * np.abs(r2) ** 2 / denom, np.nan
    )
    total = float(np.nansum(e1) + np.nansum(e2))
    return EfficiencyReport(
        n=modes.n.copy(), e1=e1, e2=e2, r1=r1, r2=r2, total=total
    )

