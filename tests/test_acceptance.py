"""Acceptance gate: the full verification contract, one criterion per test.

Each test prints one labeled PASS/FAIL line.  The two reference runs are the
shipped configurations (configs/flat.cfg, configs/sharp.cfg) executed through
the public driver, exactly as the CLI would.
"""

import time

import mpmath as mp
import numpy as np
import pytest
from conftest import CONFIG_DIR, draw_context

from gratpml import (
    CalibrationError,
    build_mode_table,
    calibrate,
    dtn_matrix,
    flat_solution,
    fit_slope,
    indicators,
    layer_dtn_matrix,
    layer_system,
    load_config,
    make_pml,
    modeling_constants,
    run,
    spectral_norm_2x2,
)
from gratpml.rayleigh import ab_coefficients

SLOPE_BAND = (-0.65, -0.35)


def _report(number, ok, detail):
    line = f"CRITERION {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def flat_run():
    cfg = load_config(CONFIG_DIR / "flat.cfg")
    t0 = time.perf_counter()
    result = run(cfg)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def sharp_run():
    return run(load_config(CONFIG_DIR / "sharp.cfg"))


def test_criterion_1_flat_benchmark_convergence_rate(flat_run):
    result, elapsed = flat_run
    dofs = np.array([r.n_dofs for r in result.records], dtype=float)
    errors = np.array([r.true_error for r in result.records])
    slope = fit_slope(dofs, errors, last=4)
    ok = (
        SLOPE_BAND[0] <= slope <= SLOPE_BAND[1]
        and elapsed <= 300.0
        and result.final.n_dofs <= 200_000
    )
    _report(
        1,
        ok,
        f"true H1-error slope over last 4 iterations = {slope:.4f} "
        f"(required in [{SLOPE_BAND[0]}, {SLOPE_BAND[1]}]), "
        f"wall time {elapsed:.1f}s <= 300s, "
        f"final dofs {result.final.n_dofs} <= 200000",
    )


def test_criterion_2_computed_energy_balance_converges(flat_run):
    result, _ = flat_run
    defects = [r.energy_defect for r in result.records]
    tail = defects[-3:]
    ok = defects[-1] <= 5e-3 and tail[0] > tail[1] > tail[2]
    _report(
        2,
        ok,
        f"finest |energy - 1| = {defects[-1]:.3e} <= 5e-3 and last three "
        f"defects strictly decrease ({tail[0]:.3e} > {tail[1]:.3e} > "
        f"{tail[2]:.3e})",
    )


def test_criterion_3_closed_form_energy_identity():
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(1000):
        ctx = draw_context(rng, n_max=1)
        sol = flat_solution(ctx)
        total = (
            ctx.kappa1**2
            * (ctx.beta * abs(sol.r1) ** 2 + sol.beta2 * abs(sol.r2) ** 2)
            / ctx.beta
        )
        worst = max(worst, abs(total - 1.0))
    ok = worst <= 1e-12
    _report(
        3,
        ok,
        f"energy identity of the closed-form flat solution holds to "
        f"{worst:.3e} <= 1e-12 over 1000 random parameter sets",
    )


def _mp_operator_pair(modes, profile, n):
    """Half-space and layer operators of mode n in exact-input arithmetic.

    The calibrated modeling constant is often far below double-precision
    resolution of the operators (~1e-16 * ||M||), so the distance it bounds
    must be evaluated in extended precision.  The float mode data is lifted
    exactly; only the evaluation gains digits.
    """
    k = modes.index(n)
    i = mp.mpc(0, 1)
    a = mp.mpmathify(complex(modes.alpha_n[k]))
    b1 = mp.mpmathify(complex(modes.beta1[k]))
    b2 = mp.mpmathify(complex(modes.beta2[k]))
    chi = mp.mpmathify(complex(modes.chi[k]))
    zeta = mp.mpmathify(complex(profile.zeta))
    om2 = mp.mpf(modes.ctx.omega) ** 2
    mu = mp.mpf(modes.ctx.mu)

    t1, t2 = -i * b1 * zeta, -i * b2 * zeta
    eps1 = 2 / mp.expm1(2 * t1)
    den1, den2 = -mp.expm1(-2 * t1), -mp.expm1(-2 * t2)
    num = mp.exp(-(t1 + t2))
    delta1 = (num - mp.exp(-2 * t1)) / den1
    delta2 = (mp.exp(-2 * t2) - num) / den2
    eps1_eta = 2 * num / den2
    chi_hat = chi + 4 * (delta2 - delta1 - delta1 * delta2) * a**2 * b1 * b2 / chi
    b1b2 = b1 * b2
    layer = [
        [
            i * om2 * b1 / chi_hat
            + (i * om2 * b1 / (chi * chi_hat))
            * (eps1 * a**2 + (eps1_eta + 2 * delta2) * b1b2),
            i * mu * a
            - i * om2 * a / chi_hat
            - (i * om2 * a * b1b2 / (chi * chi_hat))
            * (eps1 * (1 + 2 * delta2) - eps1_eta + 2 * delta2),
        ],
        [
            -i * mu * a
            + i * om2 * a / chi_hat
            - (i * om2 * a * b1b2 / (chi * chi_hat))
            * (
                eps1 * (1 + 2 * delta2)
                - eps1_eta
                + 2 * (2 * delta1 * (1 + delta2) - delta2)
            ),
            i * om2 * b2 / chi_hat
            + (i * om2 * b2 / (chi * chi_hat))
            * (eps1 * b1b2 + (eps1_eta + 2 * delta2) * a**2),
        ],
    ]
    half = [
        [i * om2 * b1 / chi, i * (mu * a * chi - om2 * a) / chi],
        [i * (om2 * a - mu * a * chi) / chi, i * om2 * b2 / chi],
    ]
    return half, layer


def _mp_spectral_norm(m):
    frob2 = sum(abs(m[r][c]) ** 2 for r in range(2) for c in range(2))
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    gap2 = frob2**2 - 4 * abs(det) ** 2
    if gap2 < 0:
        gap2 = mp.mpf(0)
    return mp.sqrt((frob2 + mp.sqrt(gap2)) / 2)


def test_criterion_4_layer_operator_within_modeling_bound(ctx1, modes1):
    rng = np.random.default_rng(1004)
    worst_ratio = 0.0
    worst_eval = 0.0
    checked = 0
    with mp.workdps(60):
        while checked < 50:
            ctx = draw_context(rng, n_max=20)
            modes = build_mode_table(ctx, 20)
            try:
                profile = calibrate(ctx, modes)
            except CalibrationError:
                continue
            f_hat = modeling_constants(ctx, modes, profile).f_hat
            for n in range(-20, 21):
                half_mp, layer_mp = _mp_operator_pair(modes, profile, n)
                diff = [
                    [layer_mp[r][c] - half_mp[r][c] for c in range(2)]
                    for r in range(2)
                ]
                dist = float(_mp_spectral_norm(diff))
                worst_ratio = max(worst_ratio, dist / f_hat)
                # the double-precision operators must match the extended
                # evaluation, so the distance genuinely describes the code
                scale = float(_mp_spectral_norm(half_mp))
                for got, want in (
                    (dtn_matrix(modes, n), half_mp),
                    (layer_dtn_matrix(modes, profile, n), layer_mp),
                ):
                    err = max(
                        abs(got[r, c] - complex(want[r][c]))
                        for r in range(2)
                        for c in range(2)
                    )
                    worst_eval = max(worst_eval, err / scale)
            checked += 1
    assert worst_eval <= 1e-12

    dists = []
    for delta in (0.25, 0.5, 1.0, 2.0):
        profile = make_pml(12.0 + 12.0j, 2, delta, b=ctx1.gamma_height)
        dists.append(
            spectral_norm_2x2(
                layer_dtn_matrix(modes1, profile, 0) - dtn_matrix(modes1, 0)
            )
        )
    decreasing = all(a > b for a, b in zip(dists, dists[1:]))
    ok = worst_ratio <= 1.0 and decreasing
    _report(
        4,
        ok,
        f"||exact - layer operator||_2 <= F_hat for all |n| <= 20 over 50 "
        f"calibrated random contexts (worst distance/F_hat = "
        f"{worst_ratio:.3e}, operators evaluated at 60 digits, double "
        f"evaluation within {worst_eval:.1e} of exact) and the distance "
        f"decreases with depth ({', '.join(f'{d:.3e}' for d in dists)})",
    )


def test_criterion_5_mode_coupling_stays_between_wavenumbers():
    rng = np.random.default_rng(1005)
    margin_low = np.inf
    margin_high = np.inf
    for _ in range(1000):
        ctx = draw_context(rng, n_max=50)
        modes = build_mode_table(ctx, 50)
        mag = np.abs(modes.chi)
        if not (np.all(ctx.kappa1**2 < mag) and np.all(mag < ctx.kappa2**2)):
            _report(5, False, "strict wavenumber bounds violated")
        margin_low = min(margin_low, float((mag - ctx.kappa1**2).min()))
        margin_high = min(margin_high, float((ctx.kappa2**2 - mag).min()))
    _report(
        5,
        True,
        f"kappa1^2 < |chi_n| < kappa2^2 strictly for all |n| <= 50 over "
        f"1000 random contexts (smallest margins {margin_low:.3e}, "
        f"{margin_high:.3e})",
    )


def test_criterion_6_amplitudes_verify_against_explicit_system(ctx1, modes1):
    rng = np.random.default_rng(1006)
    worst = 0.0

    def check(modes, profile, n):
        nonlocal worst
        v_hat = rng.normal(size=2) + 1j * rng.normal(size=2)
        x = ab_coefficients(modes, profile, n, v_hat)
        mat, rhs = layer_system(modes, profile, n, v_hat)
        # divide by the largest entry first: at delta = 4 the Frobenius norm
        # of the unscaled matrix overflows to inf
        big = np.abs(mat).max()
        mat, rhs = mat / big, rhs / big
        res = np.linalg.norm(mat @ x - rhs)
        scale = np.linalg.norm(mat) * np.linalg.norm(x) + np.linalg.norm(rhs)
        worst = max(worst, res / scale)

    for _ in range(200):
        ctx = draw_context(rng, n_max=5)
        modes = build_mode_table(ctx, 5)
        delta = float(rng.choice([0.25, 0.5]))
        profile = make_pml(12.0 + 12.0j, 2, delta, b=ctx.gamma_height)
        check(modes, profile, int(rng.integers(-5, 6)))
    for delta in (1.0, 2.0, 4.0):
        profile = make_pml(12.0 + 12.0j, 2, delta, b=ctx1.gamma_height)
        for n in range(-5, 6):
            check(modes1, profile, n)
    ok = worst <= 1e-10
    _report(
        6,
        ok,
        f"wave amplitudes satisfy the explicit 4x4 interface system with "
        f"relative residual {worst:.3e} <= 1e-10 (randomized)",
    )


def test_criterion_7_estimator_consistency_and_effectivity(flat_run):
    result, _ = flat_run
    mesh0 = result.records[0].mesh
    zero = indicators(
        mesh0,
        np.zeros((mesh0.n_nodes, 2), dtype=complex),
        result.ctx,
        result.profile,
        result.constants.f_hat,
        amplitude=0.0,
    )
    zero_ok = (
        np.all(zero.eta_hat == 0.0)
        and zero.global_eta == 0.0
        and zero.eps_fem == 0.0
        and zero.eps_pml == 0.0
    )

    effs = np.array(
        [r.global_eta / r.true_error for r in result.records]
    )
    eff_ok = bool(np.all((effs >= 0.1) & (effs <= 100.0)))

    rec = result.final
    edges, _, edge_tri = rec.mesh.edge_structure()
    top_edge = rec.mesh.on_top[edges[:, 0]] & rec.mesh.on_top[edges[:, 1]]
    expected = np.zeros(rec.mesh.n_tris, dtype=bool)
    expected[edge_tri[top_edge, 0]] = True
    extra = rec.indicators.eta_hat - rec.indicators.eta
    support_ok = bool(np.array_equal(extra > 0.0, expected))

    ok = zero_ok and eff_ok and support_ok
    _report(
        7,
        ok,
        f"zero data gives identically zero indicators ({zero_ok}), "
        f"effectivity in [0.1, 100] on every iteration "
        f"(range [{effs.min():.2f}, {effs.max():.2f}]) ({eff_ok}), and the "
        f"data term is supported exactly on truncation-line elements "
        f"({support_ok})",
    )


def test_criterion_8_corner_refinement_and_estimate_decay(sharp_run):
    result = sharp_run
    fractions = [r.corner_fraction for r in result.records]
    dofs = np.array([r.n_dofs for r in result.records], dtype=float)
    etas = np.array([r.global_eta for r in result.records])
    slope = fit_slope(dofs, etas, last=4)
    frac_ok = fractions[-1] > fractions[0]
    slope_ok = SLOPE_BAND[0] <= slope <= SLOPE_BAND[1]
    ok = frac_ok and slope_ok
    _report(
        8,
        ok,
        f"corner element fraction grows {fractions[0]:.4f} -> "
        f"{fractions[-1]:.4f} and the estimate slope over the last 4 "
        f"iterations is {slope:.4f} in [{SLOPE_BAND[0]}, {SLOPE_BAND[1]}]",
    )


def test_criterion_9_layer_truncation_error_is_negligible(flat_run, sharp_run):
    flat_result, _ = flat_run
    worst = 0.0
    for result in (flat_result, sharp_run):
        for r in result.records:
            worst = max(worst, r.eps_pml / r.eps_fem)
    ok = worst <= 1e-6
    _report(
        9,
        ok,
        f"eps_pml / eps_fem <= {worst:.3e} <= 1e-6 on every iteration of "
        f"both reference runs",
    )
