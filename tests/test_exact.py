"""Closed-form flat-grating solution and the exact-error measurement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gratpml import (
    bisect,
    fit_slope,
    flat_profile,
    flat_solution,
    generate_initial,
    h1_seminorm_error,
)

from conftest import draw_context


def test_reflection_coefficients_reference_values(ctx1):
    sol = flat_solution(ctx1)
    assert sol.r1 == pytest.approx(-0.2410095747489031, rel=1e-14)
    assert sol.r2 == pytest.approx(0.1989636154858305, rel=1e-14)
    assert sol.beta2 == pytest.approx(4.2148888386244358, rel=1e-14)


def test_normal_incidence_has_no_shear_reflection():
    from gratpml import WaveContext

    ctx = WaveContext(
        omega=2 * np.pi, lam=1.0, mu=2.0, theta=0.0, period=1.0, gamma_height=1.0
    )
    sol = flat_solution(ctx)
    assert sol.r2 == 0.0
    assert sol.r1 == pytest.approx(-1.0 / ctx.kappa1, rel=1e-14)


def test_total_field_vanishes_on_flat_surface(ctx1):
    sol = flat_solution(ctx1)
    x = np.linspace(-1.0, 2.0, 17)
    u = sol(x, np.zeros_like(x))
    assert np.max(np.abs(u)) < 1e-14


def test_total_field_is_quasi_periodic(ctx1):
    sol = flat_solution(ctx1)
    x = np.linspace(0.0, 1.0, 6)
    y = np.full(6, 0.37)
    assert np.allclose(
        sol(x + ctx1.period, y), ctx1.phase * sol(x, y), rtol=1e-13
    )


def test_solution_gradient_matches_finite_differences(ctx1):
    sol = flat_solution(ctx1)
    rng = np.random.default_rng(3)
    x = rng.uniform(0, 1, 5)
    y = rng.uniform(0.1, 1.0, 5)
    grad = sol.gradient(x, y)
    h = 1e-6
    dx = (sol(x + h, y) - sol(x - h, y)) / (2 * h)
    dy = (sol(x, y + h) - sol(x, y - h)) / (2 * h)
    assert np.allclose(grad[..., 0], dx, rtol=1e-7, atol=1e-9)
    assert np.allclose(grad[..., 1], dy, rtol=1e-7, atol=1e-9)


def _closed_form(ctx, sol, x, y):
    """The field and Jacobian of the flat solution written term by term."""
    a, b, b2, r1, r2 = ctx.alpha, ctx.beta, sol.beta2, sol.r1, sol.r2
    ei = np.exp(1j * (a * x - b * y))
    ep = np.exp(1j * (a * x + b * y))
    es = np.exp(1j * (a * x + b2 * y))
    s, c = np.sin(ctx.theta), np.cos(ctx.theta)
    u = np.stack([s * ei - a * r1 * ep - b2 * r2 * es,
                  -c * ei - b * r1 * ep + a * r2 * es], -1)
    jac = np.empty(x.shape + (2, 2), dtype=complex)
    jac[..., 0, 0] = 1j * a * (s * ei - a * r1 * ep - b2 * r2 * es)
    jac[..., 0, 1] = 1j * (-b * s * ei - b * a * r1 * ep - b2 * b2 * r2 * es)
    jac[..., 1, 0] = 1j * a * (-c * ei - b * r1 * ep + a * r2 * es)
    jac[..., 1, 1] = 1j * (b * c * ei - b * b * r1 * ep + b2 * a * r2 * es)
    return u, jac


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_flat_solution_waves_solve_the_navier_equation(seed):
    rng = np.random.default_rng(seed)
    ctx = draw_context(rng, n_max=1)
    sol = flat_solution(ctx)
    kinds = []
    for _, pol, k in sol.waves:
        p, k = np.asarray(pol), np.asarray(k)
        kk, scale = k @ k, np.hypot(*p) * np.hypot(*k)
        parallel = abs(p[0] * k[1] - p[1] * k[0]) <= 1e-12 * scale
        kinds.append("p" if parallel else "s")
        if parallel:
            assert kk == pytest.approx(ctx.kappa1**2, rel=1e-13)
        else:
            assert abs(p @ k) <= 1e-12 * scale
            assert kk == pytest.approx(ctx.kappa2**2, rel=1e-13)
        # mu*Lap(u) + (lam + mu)*grad(div(u)) + omega^2*u for u = p*exp(i k.x)
        residual = (ctx.omega**2 - ctx.mu * kk) * p - (ctx.lam + ctx.mu) * (k @ p) * k
        assert np.abs(residual).max() <= 1e-12 * ctx.omega**2 * np.abs(p).max()
    assert kinds == ["p", "p", "s"]
    x = rng.uniform(-1.0, 2.0, 7)
    y = rng.uniform(-0.5, 1.5, 7)
    u, jac = _closed_form(ctx, sol, x, y)
    assert np.abs(sol(x, y) - u).max() <= 1e-13 * np.abs(u).max()
    assert np.abs(sol.gradient(x, y) - jac).max() <= 1e-13 * np.abs(jac).max()


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_reflected_energy_balances_incident_energy(seed):
    rng = np.random.default_rng(seed)
    ctx = draw_context(rng, n_max=1)
    sol = flat_solution(ctx)
    flux = ctx.kappa1**2 * (ctx.beta * sol.r1**2 + sol.beta2 * sol.r2**2)
    assert flux / ctx.beta == pytest.approx(1.0, rel=0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# H1-seminorm error
# ---------------------------------------------------------------------------


def test_error_of_nodal_interpolant_decreases_under_refinement(ctx1, profile1):
    geom = flat_profile(ctx1.period)
    mesh = generate_initial(geom, ctx1, profile1, h0=0.5)
    sol = flat_solution(ctx1)
    errs = []
    for _ in range(3):
        field = sol(mesh.nodes[:, 0], mesh.nodes[:, 1])
        errs.append(h1_seminorm_error(mesh, field, sol))
        mesh, _ = bisect(mesh, np.arange(mesh.n_tris))
    assert errs[0] > errs[1] > errs[2] > 0.0


def test_error_ignores_layer_elements(ctx1, flat_mesh1):
    sol = flat_solution(ctx1)
    field = sol(flat_mesh1.nodes[:, 0], flat_mesh1.nodes[:, 1])
    base = h1_seminorm_error(flat_mesh1, field, sol)
    poisoned = field.copy()
    layer_nodes = flat_mesh1.nodes[:, 1] > ctx1.gamma_height + 0.25
    poisoned[layer_nodes] += 1e6
    # corrupting nodes strictly inside the layer leaves the measure unchanged
    assert h1_seminorm_error(flat_mesh1, poisoned, sol) == pytest.approx(
        base, rel=1e-12
    )


def test_error_rejects_a_field_that_is_not_nodal(ctx1, flat_mesh1):
    sol = flat_solution(ctx1)
    field = sol(flat_mesh1.nodes[:, 0], flat_mesh1.nodes[:, 1])
    for bad in (np.concatenate([field, field[:5]]), field[:, :1], field.ravel()):
        with pytest.raises(ValueError, match=r"shape \(n_nodes, 2\)"):
            h1_seminorm_error(flat_mesh1, bad, sol)


# ---------------------------------------------------------------------------
# slope fitting
# ---------------------------------------------------------------------------


def test_fit_slope_recovers_exact_power_law():
    sizes = np.array([10.0, 40.0, 160.0, 640.0, 2560.0])
    errors = 3.7 * sizes**-0.5
    assert fit_slope(sizes, errors) == pytest.approx(-0.5, rel=0.0, abs=1e-12)
    # the fit uses only the trailing window
    errors_head_noise = errors.copy()
    errors_head_noise[0] *= 100.0
    assert fit_slope(sizes, errors_head_noise, last=4) == pytest.approx(
        -0.5, rel=0.0, abs=1e-12
    )


def test_fit_slope_clips_window_and_validates_input():
    sizes = np.array([10.0, 100.0])
    errors = np.array([1.0, 0.1])
    assert fit_slope(sizes, errors, last=10) == pytest.approx(-1.0, abs=1e-12)
    with pytest.raises(ValueError):
        fit_slope(np.array([1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        fit_slope(np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]))


@pytest.mark.parametrize("last", [0, 1, -3])
def test_fit_slope_needs_a_window_of_two_points(last):
    with pytest.raises(ValueError, match="last >= 2"):
        fit_slope(np.array([1.0, 2.0, 3.0]), np.array([1.0, 0.5, 0.3]), last=last)
