"""Layer profile, fluctuation constants, calibration, and the layer source."""

import inspect
import re
from collections.abc import Iterable, Iterator

import numpy as np
import pytest
from scipy.integrate import quad

from gratpml import (
    CalibrationError,
    WaveContext,
    build_mode_table,
    calibrate,
    incident_field,
    layer_weights,
    make_pml,
    modeling_constants,
    pml_source,
    rho,
    rho_prime,
    thickness_bound,
)
from gratpml.pml import (
    DELTA_GRID,
    TARGET_FHAT,
    ModelingConstants,
    PmlProfile,
)

from conftest import draw_context

SIGMA = 12.0 + 12.0j


# ---------------------------------------------------------------------------
# profile and medium function
# ---------------------------------------------------------------------------


def test_stretched_depth_closed_form():
    assert make_pml(SIGMA, 2, 8.0, b=1.0).zeta == 40.0 + 32.0j
    assert make_pml(3.0j, 1, 2.0, b=1.0).zeta == 2.0 + 3.0j


def test_stretched_depth_equals_integral_of_medium_function():
    profile = make_pml(SIGMA, 2, 1.5, b=1.0)
    re = quad(lambda y: rho(profile, y).real, profile.b, profile.top)[0]
    im = quad(lambda y: rho(profile, y).imag, profile.b, profile.top)[0]
    assert re + 1j * im == pytest.approx(profile.zeta, rel=1e-12)


@pytest.mark.parametrize(
    "sigma,m,delta",
    [
        (SIGMA, 2, 0.0),
        (SIGMA, 2, -1.0),
        (SIGMA, 0, 1.0),
        (SIGMA, 2.5, 1.0),
        (0.0, 2, 1.0),
        (-1.0 + 1.0j, 2, 1.0),
        (1.0 - 1.0j, 2, 1.0),
        (SIGMA, 2, float("inf")),
        (complex(float("nan"), 12.0), 2, 1.0),
        (complex(float("inf"), 12.0), 2, 1.0),
    ],
)
def test_make_pml_rejects_bad_parameters(sigma, m, delta):
    with pytest.raises(ValueError):
        make_pml(sigma, m, delta, b=1.0)


@pytest.mark.parametrize("b", [float("nan"), float("inf"), -float("inf")])
def test_make_pml_rejects_a_non_finite_interface_height(b):
    with pytest.raises(ValueError, match="b must be finite"):
        make_pml(SIGMA, 2, 1.0, b)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_medium_function_values(m):
    profile = make_pml(SIGMA, m, 2.0, b=1.0)
    y = np.array([0.0, 0.5, 1.0, 2.0, 3.0])
    r = rho(profile, y)
    rp = rho_prime(profile, y)
    # exactly 1+0j and 0 at and below the interface, signs of zero included
    # (for m = 1, t**0 = 1 there, so rho' needs its mask)
    assert np.all(r[:3] == 1.0 + 0.0j) and np.all(rp[:3] == 0.0)
    for zeros in (r[:3].imag, rp[:3].real, rp[:3].imag):
        assert not np.signbit(zeros).any()
    assert r[3] == 1.0 + SIGMA * 0.5**m  # t = 1/2
    assert r[4] == 1.0 + SIGMA  # top of the layer
    assert rp[3] == SIGMA * m * 0.5 ** (m - 1) / 2.0


def test_medium_function_derivative_matches_finite_differences():
    profile = make_pml(SIGMA, 3, 1.7, b=1.0)
    y = np.linspace(1.05, 2.65, 9)
    h = 1e-6
    fd = (rho(profile, y + h) - rho(profile, y - h)) / (2 * h)
    assert np.allclose(rho_prime(profile, y), fd, rtol=1e-8, atol=1e-9)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_layer_weights_are_the_powers_of_rho_and_their_y_derivatives(m):
    rng = np.random.default_rng(m)
    for _ in range(10):
        # admissible: Re sigma >= 0, Im sigma >= 0, one of them drawn as 0 at times
        sigma = complex(*(rng.uniform(0.0, 30.0, 2) * (rng.random(2) > 0.2)))
        if sigma == 0:
            continue
        profile = make_pml(sigma, m, rng.uniform(0.5, 10.0), b=1.0)
        y = profile.b + profile.delta * rng.uniform(0.05, 1.0, 40)
        r, rp = rho(profile, y), rho_prime(profile, y)
        weight = layer_weights(r, rp)
        want = {1: (r, rp), 0: (1.0, 0.0), -1: (1.0 / r, -rp / r**2)}
        assert sorted(weight) == [-1, 0, 1]
        for p, (w, dy_w) in weight.items():
            # the weight 1 is a scalar, the others have the points' shape
            assert np.shape(w) == (y.shape if p else ())
            np.testing.assert_allclose(w, want[p][0], rtol=1e-15, atol=0)
            np.testing.assert_allclose(dy_w, want[p][1], rtol=1e-15, atol=0)
            # the derivative of rho^p in y, by central differences
            h = 1e-6 * profile.delta
            fd = (rho(profile, y + h) ** p - rho(profile, y - h) ** p) / (2 * h)
            scale = np.abs(dy_w).max()
            assert np.abs(dy_w - fd).max() <= 1e-6 * scale, (p, sigma)


# ---------------------------------------------------------------------------
# modeling constants and calibration
# ---------------------------------------------------------------------------


def test_modeling_constants_internal_relations(ctx1, modes1):
    profile = make_pml(SIGMA, 2, 2.0, b=ctx1.gamma_height)
    mc = modeling_constants(ctx1, modes1, profile)
    assert mc.terms.shape == (2, 2)
    assert np.all(mc.terms >= 0.0)
    assert mc.f == pytest.approx(mc.terms.max() * mc.cmax, rel=1e-15)
    assert mc.f_hat == pytest.approx(
        17.0 * ctx1.omega**2 * mc.f / ctx1.kappa1**4, rel=1e-15
    )
    assert mc.coercive == (mc.f <= ctx1.kappa1**2 / 2.0)


def test_fluctuation_bound_decreases_with_layer_thickness(ctx1, modes1):
    grid = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
    vals = [
        modeling_constants(
            ctx1, modes1, make_pml(SIGMA, 2, d, b=ctx1.gamma_height)
        ).f_hat
        for d in grid
    ]
    assert all(a > b > 0.0 or (a > b == 0.0) for a, b in zip(vals, vals[1:]))


def test_calibration_selects_frozen_thickness(ctx1, modes1):
    profile = calibrate(ctx1, modes1)
    assert profile.delta == 8.0
    assert profile.zeta == 40.0 + 32.0j
    mc = modeling_constants(ctx1, modes1, profile)
    assert mc.f_hat == pytest.approx(2.0117410947411143e-12, rel=1e-10)
    assert mc.f_hat * np.sqrt(ctx1.period) <= 1e-8
    assert mc.coercive
    # the next-smaller grid point must fail the target, or 8 would not be
    # the first admissible thickness
    mc4 = modeling_constants(
        ctx1, modes1, make_pml(SIGMA, 2, 4.0, b=ctx1.gamma_height)
    )
    assert mc4.f_hat * np.sqrt(ctx1.period) > 1e-8


def test_calibration_reports_best_reached_when_cap_too_small(ctx1, modes1):
    # a weak layer meets the target nowhere on the grid; the thickest,
    # delta = 64, comes closest
    with pytest.raises(CalibrationError, match=r"best was 0\.377 at delta = 64\.0"):
        calibrate(ctx1, modes1, 0.5 + 0.5j)


def test_calibration_grid_and_target_are_fixed(ctx1, modes1):
    assert DELTA_GRID == (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
    assert TARGET_FHAT == 1e-8
    params = inspect.signature(calibrate).parameters
    assert list(params) == ["ctx", "modes", "sigma", "m"]
    assert inspect.signature(thickness_bound).parameters == params
    # the shipped layer: the bound rounded up to the grid
    bound = thickness_bound(ctx1, modes1)
    assert bound == pytest.approx(6.2512, abs=1e-4)
    assert calibrate(ctx1, modes1).delta == min(d for d in DELTA_GRID if d >= bound)


@pytest.mark.parametrize(
    "sigma,m", [(12.0 - 12.0j, 2), (-12.0 + 12.0j, 2), (SIGMA, -1)]
)
def test_thickness_bound_rejects_what_make_pml_rejects(ctx1, modes1, sigma, m):
    with pytest.raises(ValueError):
        make_pml(sigma, m, 1.0, b=1.0)
    with pytest.raises(ValueError):
        thickness_bound(ctx1, modes1, sigma, m)


def test_calibration_without_damping_names_the_cause(ctx1, modes1):
    # Im sigma = 0 is an admissible layer, but Im zeta = 0 damps no
    # propagating mode at any thickness
    assert thickness_bound(ctx1, modes1, 12.0 + 0.0j) == np.inf
    with pytest.raises(CalibrationError) as info:
        calibrate(ctx1, modes1, 12.0 + 0.0j)
    message = str(info.value)
    assert "with Im sigma = 0, Im zeta = 0 and the propagating modes are not " \
        "damped" in message
    assert "None" not in message and "inf" not in message


def _conditions(ctx, modes, sigma, delta):
    """Re zeta >= 1, the target met, and the column (0 for the Dj-, 1 for
    the Dj+) of the largest fluctuation term, at thickness delta."""
    profile = make_pml(sigma, 2, delta, b=ctx.gamma_height)
    mc = modeling_constants(ctx, modes, profile)
    return (profile.zeta.real >= 1.0,
            mc.f_hat * np.sqrt(ctx.period) <= TARGET_FHAT,
            int(np.argmax(mc.terms.max(axis=0))))


@pytest.mark.parametrize(
    "sigma, n_max, below",
    [
        (SIGMA, 20, (True, False, 0)),  # shipped: Im zeta >= 25.0 binds
        (12.0j, 20, (True, False, 1)),  # Re zeta >= 30.0 binds
        (1000.0j, 0, (False, True, 0)),  # no evanescent mode: Re zeta >= 1
    ],
    ids=["im", "re", "floor"],
)
def test_thickness_bound_is_the_threshold(ctx1, sigma, n_max, below):
    modes = build_mode_table(ctx1, n_max)
    bound = thickness_bound(ctx1, modes, sigma, 2)
    assert _conditions(ctx1, modes, sigma, bound * (1 + 1e-9))[:2] == (True, True)
    assert _conditions(ctx1, modes, sigma, bound * (1 - 1e-9)) == below


# The grid walk that calibration ran before the closed form, verbatim: an
# oracle for the closed form's choice and for its failure message.


def calibration_walk(
    ctx,
    modes,
    sigma: complex = 12.0 + 12.0j,
    m: int = 2,
) -> Iterator[tuple[PmlProfile, ModelingConstants, float, bool]]:
    """Walk delta through DELTA_GRID (0.25, 0.5, ..., 64).

    Yields (profile, constants, achieved, accepted) per thickness, with
    achieved = F_hat * sqrt(period) and accepted = (Re zeta >= 1 and
    achieved <= TARGET_FHAT).  Arguments as for :func:`calibrate`.
    """
    sqrt_period = float(np.sqrt(ctx.period))
    for delta in DELTA_GRID:
        profile = make_pml(sigma, m, delta, ctx.gamma_height)
        mc = modeling_constants(ctx, modes, profile)
        achieved = mc.f_hat * sqrt_period
        accepted = profile.zeta.real >= 1.0 and achieved <= TARGET_FHAT
        yield profile, mc, achieved, accepted


def select_thickness(
    steps: Iterable[tuple[PmlProfile, ModelingConstants, float, bool]],
) -> PmlProfile:
    """The profile of the first accepted step of a :func:`calibration_walk`.

    Consumes ``steps`` only up to that step, so :func:`calibrate` stops its
    walk there.

    Raises
    ------
    CalibrationError
        If no step is accepted; the message reports the best F_hat *
        sqrt(period) reached with Re zeta >= 1.
    """
    best = float("inf")
    best_delta = None
    for profile, _, achieved, accepted in steps:
        if accepted:
            return profile
        if profile.zeta.real >= 1.0 and achieved < best:
            best, best_delta = achieved, profile.delta
    raise CalibrationError(
        f"no delta in [{DELTA_GRID[0]}, {DELTA_GRID[-1]}] reaches "
        f"F_hat*sqrt(period) <= {TARGET_FHAT:.3g}; best was {best:.3g} at "
        f"delta = {best_delta}"
    )


def _outcome(choose):
    try:
        return choose()
    except CalibrationError as exc:
        return str(exc)


def test_closed_form_calibration_matches_the_grid_walk():
    rng = np.random.default_rng(28)
    fixed = [SIGMA, 12.0j, 12.0 + 0.0j, 0.5 + 0.5j]
    chosen, failed = 0, 0
    for _ in range(2000):
        ctx = draw_context(rng)
        pick = rng.integers(len(fixed) + 1)
        sigma = (fixed[pick] if pick < len(fixed)
                 else complex(rng.uniform(0.0, 30.0), rng.uniform(0.0, 30.0)))
        m = int(rng.integers(1, 4))
        window = int(rng.integers(-1, 4))
        modes = build_mode_table(ctx, None if window < 0 else window)
        args = (ctx, modes, sigma, m)
        want = _outcome(lambda: select_thickness(calibration_walk(*args)))
        got = _outcome(lambda: calibrate(*args))
        case = (ctx, sigma, m, modes.n_max)
        if isinstance(want, PmlProfile):
            chosen += 1
            assert got == want, case
            continue
        failed += 1
        assert isinstance(got, str), case
        if sigma.imag == 0.0:
            assert "best was inf at delta = None" in want
            assert "with Im sigma = 0" in got, case
        else:
            best = re.search(r"best was \S+ at delta = 64\.0", want)
            assert best is not None and got.startswith(want + "; the target "
                                                       "needs delta >= "), case
    assert chosen > 500 and failed > 500


def test_huge_layer_saturates_instead_of_overflowing(ctx1, modes1):
    profile = make_pml(SIGMA, 2, 4096.0, b=ctx1.gamma_height)
    mc = modeling_constants(ctx1, modes1, profile)
    assert np.all(np.isfinite(mc.terms))
    assert mc.f >= 0.0
    assert mc.coercive


# ---------------------------------------------------------------------------
# layer volume source
# ---------------------------------------------------------------------------


def _source_by_differentiating_the_operator(ctx, profile, x, y, h=1e-5):
    """Apply the stretched Navier operator to the incident wave directly.

    x-derivatives of the plane wave are exact (factors i*alpha); the only
    y-derivative that involves the medium function, d/dy(rho^-1 du/dy), is
    taken by central differences.
    """
    lam, mu = ctx.lam, ctx.mu
    al, be, om2 = ctx.alpha, ctx.beta, ctx.omega**2

    def dy_stretch(xx, yy, comp):
        def f(yv):
            u = incident_field(ctx, xx, yv)
            return (-1j * be) * u[..., comp] / rho(profile, yv)

        return (f(yy + h) - f(yy - h)) / (2 * h)

    u = incident_field(ctx, x, y)
    r = rho(profile, y)
    g = np.empty_like(u)
    g[..., 0] = (
        (lam + 2 * mu) * r * (1j * al) ** 2 * u[..., 0]
        + mu * dy_stretch(x, y, 0)
        + (lam + mu) * (1j * al) * (-1j * be) * u[..., 1]
        + om2 * r * u[..., 0]
    )
    g[..., 1] = (
        mu * r * (1j * al) ** 2 * u[..., 1]
        + (lam + 2 * mu) * dy_stretch(x, y, 1)
        + (lam + mu) * (1j * al) * (-1j * be) * u[..., 0]
        + om2 * r * u[..., 1]
    )
    return g


@pytest.mark.parametrize("delta", [8.0, 1.0])
def test_layer_source_matches_operator_applied_to_incident_wave(ctx1, delta):
    profile = make_pml(SIGMA, 2, delta, b=ctx1.gamma_height)
    rng = np.random.default_rng(11)
    x = rng.uniform(0.0, ctx1.period, 8)
    pad = 0.05 * delta
    y = rng.uniform(profile.b + pad, profile.top - pad, 8)
    got = pml_source(ctx1, profile, x, y)
    want = _source_by_differentiating_the_operator(ctx1, profile, x, y)
    assert np.allclose(got, want, rtol=1e-6, atol=1e-7)


def test_layer_source_vanishes_outside_layer(ctx1, profile1):
    x = np.linspace(0.0, 1.0, 7)
    y = np.linspace(0.0, profile1.b, 7)  # at and below the interface
    g = pml_source(ctx1, profile1, x, y)
    assert np.all(g == 0.0)


def test_layer_source_nonzero_inside_layer(ctx1, profile1):
    g = pml_source(
        ctx1, profile1, np.array([0.5]), np.array([profile1.b + 4.0])
    )
    assert np.linalg.norm(g) > 1.0


def test_resonance_error_mentions_offending_mode():
    ctx = WaveContext(
        omega=2 * np.pi * np.sqrt(2.0),
        lam=1.0,
        mu=2.0,
        theta=0.0,
        period=1.0,
        gamma_height=1.0,
    )
    with pytest.raises(Exception, match="cut-off"):
        build_mode_table(ctx, 3)
