"""Layer-free boundary operators: reference oracles for the tests.

The exact transparent-boundary operator of the half space above the
interface y = b, and its counterpart for a finite stretched layer of depth
zeta terminated by a Dirichlet condition.  The adaptive method needs only the
closed-form modeling constants of ``gratpml.pml``; these operators check
them.  The operator route and an explicit 4x4 layer solve are kept as two
independent formulations so they can be cross-checked.

Per mode n the tangential/vertical wavenumbers are alpha_n, beta1_n
(compressional) and beta2_n (shear), and chi_n = alpha_n^2 + beta1_n*beta2_n.
For the layer operator the hyperbolic ratios

    eps_j = coth(-i*beta_j*zeta) - 1,
    delta_j = (e^{i*beta2*zeta} - e^{i*beta1*zeta})
              / (e^{-i*beta_j*zeta} - e^{i*beta_j*zeta})

decay exponentially in the stretched depth; they are evaluated through
t_j = -i*beta_j*zeta (always Re t_j > 0 for admissible profiles) in forms
that neither overflow nor cancel.
"""

from __future__ import annotations

import numpy as np

from gratpml.pml import PmlProfile
from gratpml.waves import ModeTable


class ParameterRegimeError(RuntimeError):
    """A guarded denominator left its safe regime (layer too shallow)."""


def dtn_matrix(modes: ModeTable, n: int) -> np.ndarray:
    """Exact half-space boundary operator of mode n (trace -> traction)."""
    k = modes.index(n)
    ctx = modes.ctx
    a, b1, b2, chi = modes.alpha_n[k], modes.beta1[k], modes.beta2[k], modes.chi[k]
    om2, mu = ctx.omega**2, ctx.mu
    return (1j / chi) * np.array(
        [
            [om2 * b1, mu * a * chi - om2 * a],
            [om2 * a - mu * a * chi, om2 * b2],
        ]
    )


#: Re(2 t) beyond which coth(t) - 1 is exactly 0 in double precision; below
#: it np.expm1(2 t) stays finite.
_SATURATE = 700.0


def _layer_ratios(
    modes: ModeTable, profile: PmlProfile, k: int
) -> tuple[complex, complex, complex, complex, complex]:
    """Stable (eps1, delta1, delta2, eps1*eta, chi_hat) of one mode.

    All quantities are evaluated through t_j = -i*beta_j*zeta with
    Re t_j > 0, so nothing overflows however deep the layer is; the ratios
    saturate to their half-space limit 0 once e^{-2 Re t} underflows.
    """
    zeta = profile.zeta
    t1 = -1j * modes.beta1[k] * zeta
    t2 = -1j * modes.beta2[k] * zeta
    if min(t1.real, t2.real) <= 0.0:
        raise ParameterRegimeError(
            "layer profile does not damp both wave types (Re(-i*beta*zeta) <= 0)"
        )

    if 2.0 * t1.real > _SATURATE:
        eps1 = 0.0 + 0.0j  # coth has reached 1 in double precision
    else:
        eps1 = 2.0 / complex(np.expm1(2.0 * t1))
    den1 = -np.expm1(-2.0 * t1)
    den2 = -np.expm1(-2.0 * t2)
    num = np.exp(-(t1 + t2))
    delta1 = (num - np.exp(-2.0 * t1)) / den1
    delta2 = (np.exp(-2.0 * t2) - num) / den2
    eps1_eta = 2.0 * num / den2

    a, b1, b2, chi = modes.alpha_n[k], modes.beta1[k], modes.beta2[k], modes.chi[k]
    chi_hat = chi + 4.0 * (delta2 - delta1 - delta1 * delta2) * a**2 * b1 * b2 / chi
    kap1 = modes.ctx.kappa1
    if abs(chi_hat) < 0.5 * kap1**2:
        raise ParameterRegimeError(
            f"layer-modified symbol chi_hat = {chi_hat:.6g} of mode "
            f"{modes.n[k]} is too close to zero (layer too shallow)"
        )
    return eps1, delta1, delta2, eps1_eta, chi_hat


def layer_dtn_matrix(modes: ModeTable, profile: PmlProfile, n: int) -> np.ndarray:
    """Boundary operator of the Dirichlet-terminated stretched layer.

    Converges exponentially (in the stretched depth zeta) to the half-space
    operator ``dtn_matrix``; their spectral distance is what the layer
    modeling constants bound.
    """
    k = modes.index(n)
    eps1, delta1, delta2, eps1_eta, chi_hat = _layer_ratios(modes, profile, k)
    ctx = modes.ctx
    a, b1, b2, chi = modes.alpha_n[k], modes.beta1[k], modes.beta2[k], modes.chi[k]
    om2, mu = ctx.omega**2, ctx.mu
    b1b2 = b1 * b2
    m11 = 1j * om2 * b1 / chi_hat + (1j * om2 * b1 / (chi * chi_hat)) * (
        eps1 * a**2 + (eps1_eta + 2.0 * delta2) * b1b2
    )
    m12 = (
        1j * mu * a
        - 1j * om2 * a / chi_hat
        - (1j * om2 * a * b1b2 / (chi * chi_hat))
        * (eps1 * (1.0 + 2.0 * delta2) - eps1_eta + 2.0 * delta2)
    )
    m21 = (
        -1j * mu * a
        + 1j * om2 * a / chi_hat
        - (1j * om2 * a * b1b2 / (chi * chi_hat))
        * (
            eps1 * (1.0 + 2.0 * delta2)
            - eps1_eta
            + 2.0 * (2.0 * delta1 * (1.0 + delta2) - delta2)
        )
    )
    m22 = 1j * om2 * b2 / chi_hat + (1j * om2 * b2 / (chi * chi_hat)) * (
        eps1 * b1b2 + (eps1_eta + 2.0 * delta2) * a**2
    )
    return np.array([[m11, m12], [m21, m22]])


def ab_coefficients(
    modes: ModeTable, profile: PmlProfile, n: int, v_hat: np.ndarray
) -> np.ndarray:
    """Closed-form layer amplitudes (A1, B1, A2, B2) for boundary trace v_hat.

    These are the up/down compressional and shear amplitudes of the layer
    field with Dirichlet trace v_hat at the interface and zero at the
    stretched depth zeta; ``layer_system`` solves the same 4x4 problem
    directly and must agree.  Products involving the growing ratio
    eta = delta2/delta1 are expanded via delta1*eta = delta2 so every factor
    stays bounded.
    """
    v_hat = np.asarray(v_hat, dtype=complex)
    if v_hat.shape != (2,):
        raise ValueError("v_hat must be a 2-vector")
    k = modes.index(n)
    eps1, delta1, delta2, eps1_eta, chi_hat = _layer_ratios(modes, profile, k)
    a, b1, b2, chi = modes.alpha_n[k], modes.beta1[k], modes.beta2[k], modes.chi[k]
    v1, v2 = v_hat
    pre = 1j / (2.0 * chi * chi_hat)

    # (eps1 + 2 delta1)(1 + delta2 - eta) = (eps1 + 2 delta1)(1 + delta2)
    #                                       - eps1 eta - 2 delta2
    f_a1 = (eps1 + 2.0 * delta1) * (1.0 + delta2) - eps1_eta - 2.0 * delta2
    a1 = pre * (
        -chi * (eps1 + 2.0) * (a * v1 + b2 * v2)
        + 2.0 * b2 * f_a1 * (a * b1 * v1 + a**2 * v2)
    )
    b1c = pre * (
        chi * eps1 * (a * v1 - b2 * v2)
        + 2.0
        * (eps1 * delta2 + 2.0 * (delta1 + delta1 * delta2))
        * (a * b1 * b2 * v1 - a**2 * b2 * v2)
    )
    # eps1*(1 + delta2 - eta) = eps1 (1 + delta2) - eps1 eta
    f_a2 = eps1 * (1.0 + delta2) - eps1_eta
    a2 = pre * (
        chi * (eps1_eta - 2.0 * (eps1 + 1.0) * (1.0 + delta2)) * (b1 * v1 - a * v2)
        + 2.0 * f_a2 * (b1**2 * b2 * v1 - a**3 * v2)
    )
    b2c = pre * (
        chi * (2.0 * delta2 * (eps1 + 1.0) - eps1_eta) * (b1 * v1 + a * v2)
        - 2.0 * delta2 * (eps1 + 2.0) * (b1**2 * b2 * v1 + a**3 * v2)
    )
    return np.array([a1, b1c, a2, b2c])


def layer_system(
    modes: ModeTable, profile: PmlProfile, n: int, v_hat: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The explicit 4x4 layer problem (matrix, rhs) for (A1, B1, A2, B2).

    Rows: the two components of the Dirichlet trace at the interface and of
    the zero condition at the stretched depth zeta.  It is a diagnostic used
    to validate ``ab_coefficients``, not production code, and the direct
    evaluation of the exponentials e^{+-i beta zeta} limits it to moderate
    depths.  For the wave of ``configs/flat.cfg`` (omega = 2 pi, lambda = 1,
    mu = 2, theta = 30 degrees, period 1, b = 1) and a layer with
    sigma = 12 + 12i, m = 2, the ``ab_coefficients`` solution leaves
    componentwise residuals |mat x - rhs|_i / (|mat| |x| + |rhs|)_i of at
    most 4.0e-13 for delta <= 1, but 0.78 at delta = 2 and 1.0 at
    delta = 4 (orders n = -6..6 and -5..5).  There the exponentially large
    rows at depth dominate any norm of the system, so a normwise residual
    no longer checks the interface rows.
    """
    v_hat = np.asarray(v_hat, dtype=complex)
    k = modes.index(n)
    a, b1, b2 = modes.alpha_n[k], modes.beta1[k], modes.beta2[k]
    zeta = profile.zeta
    e1p, e1m = np.exp(1j * b1 * zeta), np.exp(-1j * b1 * zeta)
    e2p, e2m = np.exp(1j * b2 * zeta), np.exp(-1j * b2 * zeta)
    mat = np.array(
        [
            [a, a, b2, -b2],
            [b1, -b1, -a, -a],
            [a * e1p, a * e1m, b2 * e2p, -b2 * e2m],
            [b1 * e1p, -b1 * e1m, -a * e2p, -a * e2m],
        ]
    )
    rhs = np.array([-1j * v_hat[0], -1j * v_hat[1], 0.0, 0.0])
    return mat, rhs


def spectral_norm_2x2(m: np.ndarray) -> float:
    """Exact spectral norm of a 2x2 complex matrix, in closed form.

    sigma_max^2 = (s + sqrt(s^2 - 4 d)) / 2 with s the squared Frobenius
    norm and d = |det|^2.  The solver does not call it: it measures the
    distance between the 2x2 boundary operators (``dtn_matrix``,
    ``layer_dtn_matrix``) in the tests and the acceptance checks.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    s = float(np.sum(np.abs(m) ** 2))
    d = float(abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]) ** 2)
    disc = max(s * s - 4.0 * d, 0.0)
    return float(np.sqrt(0.5 * (s + np.sqrt(disc))))
