"""Wave context, Rayleigh mode table, and incident-field checks."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gratpml import (
    ResonanceError,
    WaveContext,
    build_mode_table,
    incident_field,
    make_pml,
    modeling_constants,
)
from gratpml.waves import plane_wave

from conftest import draw_context


# ---------------------------------------------------------------------------
# WaveContext
# ---------------------------------------------------------------------------


def test_derived_wavenumbers_small_example():
    # omega = 1, lambda = 0.5, mu = 1, theta = pi/4:
    # kappa1 = 1/sqrt(2.5), kappa2 = 1, alpha = beta = kappa1/sqrt(2)
    ctx = WaveContext(
        omega=1.0, lam=0.5, mu=1.0, theta=np.pi / 4, period=1.0, gamma_height=1.0
    )
    assert ctx.kappa1 == pytest.approx(0.63245553203367587, rel=1e-15)
    assert ctx.kappa2 == pytest.approx(1.0, rel=1e-15)
    assert ctx.alpha == pytest.approx(0.44721359549995794, rel=1e-14)
    assert ctx.beta == pytest.approx(0.44721359549995794, rel=1e-14)


def test_derived_constants_are_kept_after_the_first_read():
    inputs = dict(omega=1.3, lam=0.7, mu=1.9, theta=-0.4, period=1.1,
                  gamma_height=0.8)
    ctx = WaveContext(**inputs)
    derived = ("kappa1", "kappa2", "alpha", "beta")
    assert vars(ctx) == inputs  # nothing is derived before it is read
    kappa1 = 1.3 / math.sqrt(0.7 + 2.0 * 1.9)
    closed = {"kappa1": kappa1, "kappa2": 1.3 / math.sqrt(1.9),
              "alpha": kappa1 * math.sin(-0.4), "beta": kappa1 * math.cos(-0.4)}
    for name in derived:
        assert getattr(ctx, name) == closed[name]  # bit for bit
        assert vars(ctx)[name] == closed[name]
    assert set(vars(ctx)) == set(inputs) | set(derived)
    # equality and hashing see the six inputs only
    twin = WaveContext(**inputs)
    assert twin == ctx and hash(twin) == hash(ctx)
    assert "kappa1" not in vars(twin)


def test_derived_wavenumbers_reference_problem(ctx1):
    assert ctx1.kappa1 == pytest.approx(2.8099258924162906, rel=1e-15)
    assert ctx1.kappa2 == pytest.approx(4.4428829381583662, rel=1e-15)
    assert ctx1.alpha == pytest.approx(1.4049629462081453, rel=1e-14)
    assert ctx1.beta == pytest.approx(2.4334672055841671, rel=1e-14)
    assert ctx1.kappa1 < ctx1.kappa2
    assert ctx1.phase == pytest.approx(np.exp(1j * ctx1.alpha * ctx1.period))


@pytest.mark.parametrize(
    "bad",
    [
        dict(omega=0.0),
        dict(omega=-1.0),
        dict(mu=0.0),
        dict(mu=-0.5),
        dict(lam=-2.5),  # lambda + mu <= 0 loses ellipticity
        dict(theta=np.pi / 2),
        dict(theta=-2.0),
        dict(period=0.0),
        dict(gamma_height=-1.0),
        dict(omega=float("nan")),
        dict(theta=2.0),
    ],
)
def test_derive_context_rejects_inadmissible_parameters(bad):
    # WaveContext checks its inputs itself, so neither building one nor
    # replacing a field of an admissible one gets past the checks
    params = dict(
        omega=2 * np.pi, lam=1.0, mu=2.0, theta=np.pi / 6, period=1.0, gamma_height=1.0
    )
    ctx = WaveContext(**params)
    with pytest.raises(ValueError):
        WaveContext(**{**params, **bad})
    with pytest.raises(ValueError):
        dataclasses.replace(ctx, **bad)


def test_wave_context_stores_floats_and_the_incident_wave(ctx1):
    ctx = WaveContext(omega=2, lam=1, mu=2, theta=0, period=1, gamma_height=1)
    assert all(type(v) is float for v in vars(ctx).values())
    assert ctx == WaveContext(2.0, 1.0, 2.0, 0.0, 1.0, 1.0)
    assert ctx1.polarization == (math.sin(ctx1.theta), -math.cos(ctx1.theta))
    assert ctx1.wavevector == (ctx1.alpha, -ctx1.beta)


# ---------------------------------------------------------------------------
# mode table
# ---------------------------------------------------------------------------


def test_mode_table_reference_values(modes1):
    i0 = modes1.index(0)
    ip = modes1.index(1)
    im = modes1.index(-1)

    assert modes1.alpha_n[ip] == pytest.approx(7.6881482533877318, rel=1e-14)
    assert modes1.alpha_n[im] == pytest.approx(-4.8782223609714412, rel=1e-14)

    assert modes1.beta1[i0] == pytest.approx(2.4334672055841671 + 0j, rel=1e-14)
    assert modes1.beta2[i0] == pytest.approx(4.2148888386244358 + 0j, rel=1e-14)
    assert modes1.beta1[ip] == pytest.approx(7.156251815384737j, rel=1e-14)
    assert modes1.beta2[ip] == pytest.approx(6.2744254528912935j, rel=1e-14)
    assert modes1.beta1[im] == pytest.approx(3.9876521766837056j, rel=1e-14)
    assert modes1.beta2[im] == pytest.approx(2.014409243650124j, rel=1e-14)

    assert modes1.chi[i0] == pytest.approx(12.230714644193173 + 0j, rel=1e-13)
    assert modes1.chi[ip] == pytest.approx(14.206255028319311 + 0j, rel=1e-13)
    assert modes1.chi[im] == pytest.approx(15.764289997908588 + 0j, rel=1e-13)

    # only the specular order propagates for either branch at this frequency
    assert modes1.n[modes1.prop1].tolist() == [0]
    assert modes1.n[modes1.prop2].tolist() == [0]


def test_mode_table_layout_and_index(modes1):
    assert modes1.n_max == 20
    assert modes1.n.size == 41
    assert np.array_equal(modes1.n, np.arange(-20, 21))
    assert modes1.alpha_n[modes1.index(5)] == pytest.approx(
        modes1.ctx.alpha + 10 * np.pi / modes1.ctx.period
    )
    with pytest.raises(IndexError):
        modes1.index(21)
    with pytest.raises(IndexError):
        modes1.index(-21)


def test_mode_table_branch_convention(modes1):
    # propagating: exactly real, nonnegative; evanescent: exactly imaginary
    for beta, prop in ((modes1.beta1, modes1.prop1), (modes1.beta2, modes1.prop2)):
        assert np.all(beta[prop].imag == 0.0)
        assert np.all(beta[prop].real > 0.0)
        assert np.all(beta[~prop].real == 0.0)
        assert np.all(beta[~prop].imag > 0.0)


def test_mode_table_cutoff_distances(modes1):
    k1, k2 = modes1.ctx.kappa1, modes1.ctx.kappa2
    delta1 = np.sqrt(np.abs(k1**2 - modes1.alpha_n**2))
    delta2 = np.sqrt(np.abs(k2**2 - modes1.alpha_n**2))
    d_minus1 = delta1[modes1.prop1].min()
    d_plus1 = delta1[~modes1.prop1].min()
    assert modes1.delta_minus[0] == pytest.approx(d_minus1, rel=1e-15)
    assert modes1.delta_plus[0] == pytest.approx(d_plus1, rel=1e-15)
    assert modes1.delta_minus[1] == pytest.approx(
        delta2[modes1.prop2].min(), rel=1e-15
    )


def test_mode_table_rejects_cutoff_resonance():
    # omega = 2*pi*sqrt(2), mu = 2 puts kappa2 = 2*pi exactly at |alpha_1|
    # for normal incidence on a unit period.
    ctx = WaveContext(
        omega=2 * np.pi * np.sqrt(2.0),
        lam=1.0,
        mu=2.0,
        theta=0.0,
        period=1.0,
        gamma_height=1.0,
    )
    with pytest.raises(ResonanceError):
        build_mode_table(ctx, 5)
    # a looser table that stops short of the resonant order still builds
    assert build_mode_table(ctx, 0).n.size == 1


def test_mode_table_rejects_a_negative_window(ctx1):
    with pytest.raises(ValueError, match="n_max must be >= 0, got -1"):
        build_mode_table(ctx1, -1)


def test_mode_table_rejects_a_fractional_window(ctx1):
    for n_max in (2.5, 2.0, np.float64(3.0)):
        with pytest.raises(ValueError, match="n_max must be an integer"):
            build_mode_table(ctx1, n_max)
    assert build_mode_table(ctx1, np.int64(2)).n.tolist() == [-2, -1, 0, 1, 2]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_coupling_scalar_strictly_between_squared_wavenumbers(seed):
    rng = np.random.default_rng(seed)
    ctx = draw_context(rng)
    modes = build_mode_table(ctx, 50)
    mag = np.abs(modes.chi)
    assert np.all(mag > ctx.kappa1**2)
    assert np.all(mag < ctx.kappa2**2)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.floats(0.25, 16.0))
def test_derived_window_holds_every_mode_the_minima_depend_on(seed, delta):
    # the default window ends at the first evanescent shear order on the
    # wider side; a much wider table changes none of the layer's inputs
    rng = np.random.default_rng(seed)
    ctx = draw_context(rng, n_max=60)
    derived = build_mode_table(ctx)
    wide = build_mode_table(ctx, 60)
    shear = wide.n[wide.prop2]
    assert derived.n_max == max(1 - shear[0], shear[-1] + 1) < 60
    assert derived.delta_minus == wide.delta_minus
    assert derived.delta_plus == wide.delta_plus
    assert np.array_equal(derived.n[derived.prop1], wide.n[wide.prop1])
    assert np.array_equal(derived.n[derived.prop2], shear)
    layer = make_pml(12.0 + 12.0j, 2, delta, ctx.gamma_height)
    assert np.array_equal(
        modeling_constants(ctx, derived, layer).terms,
        modeling_constants(ctx, wide, layer).terms,
    )


# ---------------------------------------------------------------------------
# incident field
# ---------------------------------------------------------------------------


def test_incident_field_at_origin_is_polarization_vector(ctx1):
    val = incident_field(ctx1, np.array([0.0]), np.array([0.0]))
    assert val.shape == (1, 2)
    assert val[0, 0] == pytest.approx(np.sin(ctx1.theta), rel=1e-15)
    assert val[0, 1] == pytest.approx(-np.cos(ctx1.theta), rel=1e-15)


def test_incident_field_phase_factors(ctx1):
    x = np.array([0.3, -0.7, 1.9])
    y = np.array([0.2, 1.1, 0.4])
    val = incident_field(ctx1, x, y)
    expect = np.exp(1j * (ctx1.alpha * x - ctx1.beta * y))
    pol = np.array([np.sin(ctx1.theta), -np.cos(ctx1.theta)])
    assert np.allclose(val, expect[:, None] * pol, rtol=1e-14)


@pytest.mark.parametrize("wave", ["incident", "oblique"])
def test_plane_wave_jacobian_matches_finite_differences(ctx1, wave):
    # d u_c / d x_d = value[c] * i*k[d], the rule FlatSolution.gradient sums
    pol, k = {
        "incident": (ctx1.polarization, ctx1.wavevector),
        "oblique": ((0.3, -1.7), (2.1, 0.8)),
    }[wave]
    rng = np.random.default_rng(7)
    x = rng.uniform(-1, 2, 6)
    y = rng.uniform(0, 2, 6)
    grad = plane_wave(pol, k, x, y)[:, :, None] * (1j * np.asarray(k))
    h = 1e-6
    dx = (plane_wave(pol, k, x + h, y) - plane_wave(pol, k, x - h, y)) / (2 * h)
    dy = (plane_wave(pol, k, x, y + h) - plane_wave(pol, k, x, y - h)) / (2 * h)
    assert np.allclose(grad[:, :, 0], dx, rtol=1e-8, atol=1e-10)
    assert np.allclose(grad[:, :, 1], dy, rtol=1e-8, atol=1e-10)


def test_incident_field_is_quasi_periodic(ctx1):
    x = np.linspace(0.0, 1.0, 5)
    y = np.full(5, 0.6)
    left = incident_field(ctx1, x, y)
    right = incident_field(ctx1, x + ctx1.period, y)
    assert np.allclose(right, ctx1.phase * left, rtol=1e-14)
