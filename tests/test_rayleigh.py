"""Interface Fourier analysis, transparent-boundary operators, efficiencies.

The layer boundary operator has two independent implementations on purpose:
the closed-form matrix (`layer_dtn_matrix`) and the amplitude route
(`ab_coefficients` -> traction at the interface).  Several tests here drive
one against the other; they must never be collapsed into a single code path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from gratpml import (
    TraceError,
    build_mode_table,
    calibrate,
    efficiencies,
    flat_solution,
    fourier_trace,
    make_pml,
    recover_potentials,
)
from gratpml.meshing import Mesh, bisect
from gratpml.rayleigh import EfficiencyReport, _segment_integrals

from conftest import rebuilt
from layer_free import (
    ParameterRegimeError,
    ab_coefficients,
    dtn_matrix,
    layer_dtn_matrix,
    layer_system,
    spectral_norm_2x2,
)

SIGMA = 12.0 + 12.0j


# ---------------------------------------------------------------------------
# edge integrals
# ---------------------------------------------------------------------------


def _quad_complex(f, a, b):
    re = quad(lambda s: f(s).real, a, b, limit=200)[0]
    im = quad(lambda s: f(s).imag, a, b, limit=200)[0]
    return re + 1j * im


@pytest.mark.parametrize(
    "t,h",
    [
        (3.7, 0.25),
        (-12.9, 0.4),
        (0.0, 0.3),
        (1e-8, 0.5),
        (-2e-7, 0.125),
        (250.0, 1.0),
    ],
)
def test_segment_integrals_match_quadrature(t, h):
    e1, e2 = _segment_integrals(np.array(t), np.array(h))
    ref1 = _quad_complex(lambda s: np.exp(-1j * t * s), 0.0, h)
    ref2 = _quad_complex(lambda s: s * np.exp(-1j * t * s), 0.0, h)
    assert complex(e1) == pytest.approx(ref1, rel=1e-12, abs=1e-15)
    assert complex(e2) == pytest.approx(ref2, rel=1e-12, abs=1e-15)


def test_segment_integrals_series_and_closed_form_agree_at_crossover():
    # just above the switch the closed form cancels catastrophically in its
    # tiny imaginary parts, so require continuity rather than full precision
    h = np.array(0.5)
    for t in (9e-7 / 0.5, 1.1e-6 / 0.5):  # straddle the |t*h| = 1e-6 switch
        e1, e2 = _segment_integrals(np.array(t), h)
        ref1 = _quad_complex(lambda s: np.exp(-1j * t * s), 0.0, float(h))
        ref2 = _quad_complex(lambda s: s * np.exp(-1j * t * s), 0.0, float(h))
        assert complex(e1) == pytest.approx(ref1, rel=1e-12, abs=1e-9)
        assert complex(e2) == pytest.approx(ref2, rel=1e-12, abs=1e-9)


# ---------------------------------------------------------------------------
# Fourier trace on the interface
# ---------------------------------------------------------------------------


def _trace_by_quadrature(mesh, field, ctx, n):
    """Integrate the linear interpolant numerically, edge by edge."""
    edges, _, _ = mesh.edge_structure()
    on_g = mesh.on_gamma
    gamma = edges[on_g[edges[:, 0]] & on_g[edges[:, 1]]]
    alpha_n = ctx.alpha + 2.0 * np.pi * n / ctx.period
    total = np.zeros(2, dtype=complex)
    for e0, e1 in gamma:
        if mesh.nodes[e1, 0] < mesh.nodes[e0, 0]:
            e0, e1 = e1, e0
        x0, x1 = mesh.nodes[e0, 0], mesh.nodes[e1, 0]
        w0, w1 = field[e0], field[e1]
        for d in range(2):
            total[d] += _quad_complex(
                lambda x, d=d: (
                    w0[d] + (w1[d] - w0[d]) * (x - x0) / (x1 - x0)
                ) * np.exp(-1j * alpha_n * x),
                x0,
                x1,
            )
    pol = np.array([np.sin(ctx.theta), -np.cos(ctx.theta)]) * np.exp(
        -1j * ctx.beta * ctx.gamma_height
    )
    if n == 0:
        total -= pol * ctx.period
    return total / ctx.period


def test_fourier_trace_matches_quadrature_oracle(ctx1, flat_mesh1):
    rng = np.random.default_rng(17)
    field = rng.normal(size=(flat_mesh1.n_nodes, 2)) + 1j * rng.normal(
        size=(flat_mesh1.n_nodes, 2)
    )
    modes = build_mode_table(ctx1, 2)
    trace = fourier_trace(flat_mesh1, field, modes)
    assert trace.shape == (5, 2)
    for k, n in enumerate(modes.n):
        want = _trace_by_quadrature(flat_mesh1, field, ctx1, n)
        assert np.allclose(trace[k], want, rtol=1e-10, atol=1e-13)


def test_fourier_trace_of_zero_field_is_minus_incident(ctx1, flat_mesh1):
    field = np.zeros((flat_mesh1.n_nodes, 2), dtype=complex)
    modes = build_mode_table(ctx1, 3)
    trace = fourier_trace(flat_mesh1, field, modes)
    pol = np.array([np.sin(ctx1.theta), -np.cos(ctx1.theta)]) * np.exp(
        -1j * ctx1.beta * ctx1.gamma_height
    )
    assert np.allclose(trace[modes.index(0)], -pol, rtol=1e-13)
    for n in (-3, -1, 1, 2):
        assert np.max(np.abs(trace[modes.index(n)])) < 1e-13


def test_fourier_trace_survives_refinement(ctx1, flat_mesh1):
    # refining the mesh must not change the trace of an exactly
    # representable (piecewise-linear in x) interface field
    field = np.zeros((flat_mesh1.n_nodes, 2), dtype=complex)
    field[:, 0] = 1.7 - 0.3j
    coarse = fourier_trace(flat_mesh1, field, build_mode_table(ctx1, 2))
    fine_mesh, _ = bisect(flat_mesh1, np.arange(flat_mesh1.n_tris))
    fine_field = np.zeros((fine_mesh.n_nodes, 2), dtype=complex)
    fine_field[:, 0] = 1.7 - 0.3j
    fine = fourier_trace(fine_mesh, fine_field, build_mode_table(ctx1, 2))
    assert np.allclose(coarse, fine, rtol=1e-12, atol=1e-14)


def test_fourier_trace_input_validation(ctx1, flat_mesh1):
    modes = build_mode_table(ctx1, 2)
    with pytest.raises(ValueError):
        fourier_trace(flat_mesh1, np.zeros((3, 2)), modes)


def test_fourier_trace_requires_full_interface_coverage(ctx1, flat_mesh1):
    m = flat_mesh1
    field = np.zeros((m.n_nodes, 2), dtype=complex)
    modes = build_mode_table(ctx1, 2)

    # no interface edges at all: no node lies on the line y = b
    off_line = Mesh(m.nodes, m.tris, m.ref_edge, m.period, m.b + 0.1, m.top)
    assert not off_line.on_gamma.any()
    with pytest.raises(TraceError, match="no mesh edges"):
        fourier_trace(off_line, field, modes)

    # a gap in the middle of the interface: one node moved off the line
    interior = np.nonzero(m.on_gamma & ~m.on_left & ~m.on_right)[0]
    nodes = m.nodes.copy()
    nodes[interior[0], 1] += 0.01
    with pytest.raises(TraceError, match="cover"):
        fourier_trace(rebuilt(m, nodes=nodes), field, modes)


def test_fourier_trace_rejects_a_degenerate_interface_edge(ctx1, flat_mesh1):
    # an interface node moved onto its neighbour: one edge of length zero
    m = flat_mesh1
    edges = m.edge_structure()[0][m.edges_on(m.on_gamma)]
    a, b = edges[~(m.on_left[edges] | m.on_right[edges]).any(axis=1)][0]
    nodes = m.nodes.copy()
    nodes[a] = nodes[b]
    mesh = rebuilt(m, nodes=nodes)
    assert mesh.edge_lengths[mesh.edges_on(mesh.on_gamma)].min() == 0.0
    with pytest.raises(TraceError, match="degenerate"):
        fourier_trace(mesh, np.zeros((m.n_nodes, 2), dtype=complex),
                      build_mode_table(ctx1, 2))


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------


def test_potential_recovery_inverts_the_trace_map(modes1):
    rng = np.random.default_rng(23)
    m = modes1.n.size
    phi1 = rng.normal(size=m) + 1j * rng.normal(size=m)
    phi2 = rng.normal(size=m) + 1j * rng.normal(size=m)
    # forward modal map: v_hat = i * [[alpha, beta2], [beta1, -alpha]] phi
    v1 = 1j * (modes1.alpha_n * phi1 + modes1.beta2 * phi2)
    v2 = 1j * (modes1.beta1 * phi1 - modes1.alpha_n * phi2)
    pots = recover_potentials(modes1, np.stack([v1, v2], axis=1))
    assert pots.shape == (m, 2)
    assert np.allclose(pots[:, 0], phi1, rtol=1e-12, atol=1e-13)
    assert np.allclose(pots[:, 1], phi2, rtol=1e-12, atol=1e-13)


def test_potential_recovery_rejects_window_mismatch(modes1):
    # coefficients of the window |n| <= 3 against a table of |n| <= 20
    for coeffs in (np.zeros((7, 2)), np.zeros(modes1.n.size)):
        with pytest.raises(ValueError, match="orders of the mode table"):
            recover_potentials(modes1, coeffs)


# ---------------------------------------------------------------------------
# efficiencies via the closed-form flat solution
# ---------------------------------------------------------------------------


def _analytic_flat_trace(ctx, modes):
    """Interface trace of the exact scattered field, one nonzero mode."""
    sol = flat_solution(ctx)
    b = ctx.gamma_height
    coeffs = np.zeros((modes.n.size, 2), dtype=complex)
    up = np.exp(1j * ctx.beta * b) * sol.r1
    us = np.exp(1j * sol.beta2 * b) * sol.r2
    coeffs[modes.index(0)] = [
        -ctx.alpha * up - sol.beta2 * us,
        -ctx.beta * up + ctx.alpha * us,
    ]
    return coeffs


def test_efficiencies_of_exact_flat_solution(ctx1, modes1):
    trace = _analytic_flat_trace(ctx1, modes1)
    report = efficiencies(modes1, recover_potentials(modes1, trace))
    i0 = modes1.index(0)
    assert report.e1[i0] == pytest.approx(0.45862563410777724, rel=1e-12)
    assert report.e2[i0] == pytest.approx(0.541374365892223, rel=1e-12)
    assert report.total == pytest.approx(1.0, rel=0.0, abs=1e-12)
    # the compressional reflected amplitude referred to y = 0
    sol = flat_solution(ctx1)
    assert report.r1[i0] == pytest.approx(1j * sol.r1, rel=1e-12)
    # evanescent orders carry no energy entry
    assert np.isnan(report.e1[modes1.index(1)])
    assert np.isnan(report.e2[modes1.index(-1)])
    assert report.propagating() == [(0, report.e1[i0], report.e2[i0])]


def test_propagating_lists_orders_open_to_either_wave_type():
    nan = np.nan
    report = EfficiencyReport(
        n=np.arange(-2, 3),
        e1=np.array([nan, nan, 0.4, nan, nan]),
        e2=np.array([nan, 0.1, 0.3, 0.2, nan]),
        r1=np.zeros(5, dtype=complex),
        r2=np.zeros(5, dtype=complex),
        total=1.0,
    )
    rows = report.propagating()
    assert [n for n, _, _ in rows] == [-1, 0, 1]
    assert np.array_equal(
        [(e1, e2) for _, e1, e2 in rows],
        [(nan, 0.1), (0.4, 0.3), (nan, 0.2)],
        equal_nan=True,
    )


def test_efficiencies_input_validation(ctx1, modes1):
    pots = recover_potentials(modes1, _analytic_flat_trace(ctx1, modes1))
    small = build_mode_table(ctx1, 3)
    with pytest.raises(ValueError, match="orders of the mode table"):
        efficiencies(small, pots)


# ---------------------------------------------------------------------------
# half-space boundary operator
# ---------------------------------------------------------------------------


def test_halfspace_operator_reference_values(modes1):
    m = dtn_matrix(modes1, 0)
    assert m[0, 0] == pytest.approx(7.8547687002224157j, rel=1e-13)
    assert m[0, 1] == pytest.approx(-1.725026931079368j, rel=1e-13)
    assert m[1, 0] == pytest.approx(1.725026931079368j, rel=1e-13)
    assert m[1, 1] == pytest.approx(13.604858470486976j, rel=1e-13)


def test_halfspace_operator_antisymmetric_off_diagonal(modes1):
    for n in (-7, -1, 0, 1, 13):
        m = dtn_matrix(modes1, n)
        assert m[1, 0] == pytest.approx(-m[0, 1], rel=1e-14)


# ---------------------------------------------------------------------------
# layer boundary operator: convergence and the amplitude cross-route
# ---------------------------------------------------------------------------


def test_layer_operator_converges_to_halfspace_operator(ctx1, modes1):
    profile = calibrate(ctx1, modes1)
    for n in (-5, -1, 0, 1, 5):
        diff = layer_dtn_matrix(modes1, profile, n) - dtn_matrix(modes1, n)
        assert spectral_norm_2x2(diff) <= 1e-11


def test_layer_operator_within_modeling_bound_at_reference(ctx1, modes1):
    from gratpml import modeling_constants

    profile = calibrate(ctx1, modes1)
    f_hat = modeling_constants(ctx1, modes1, profile).f_hat
    for n in range(-20, 21):
        diff = layer_dtn_matrix(modes1, profile, n) - dtn_matrix(modes1, n)
        assert spectral_norm_2x2(diff) <= f_hat


def test_layer_operator_distance_decreases_with_depth(ctx1, modes1):
    for n in (0, -1):
        dists = []
        for delta in (0.25, 0.5, 1.0, 2.0):
            profile = make_pml(SIGMA, 2, delta, b=ctx1.gamma_height)
            dists.append(
                spectral_norm_2x2(
                    layer_dtn_matrix(modes1, profile, n) - dtn_matrix(modes1, n)
                )
            )
        assert all(a > b for a, b in zip(dists, dists[1:]))
        assert dists[-1] < 1e-5


def test_layer_operator_saturates_for_very_deep_layers(ctx1, modes1):
    profile = make_pml(SIGMA, 2, 4096.0, b=ctx1.gamma_height)
    for n in (-20, -1, 0, 1, 20):
        m_layer = layer_dtn_matrix(modes1, profile, n)
        m_half = dtn_matrix(modes1, n)
        assert np.all(np.isfinite(m_layer))
        assert spectral_norm_2x2(m_layer - m_half) <= 1e-13 * spectral_norm_2x2(
            m_half
        )


def _traction_from_amplitudes(ctx, modes, profile, n, v_hat):
    """Interface traction of the layer field, via its four wave amplitudes.

    Independent route: expand the layer field in up/down compressional and
    shear parts with `ab_coefficients`, then evaluate the traction operator
    on each part at the interface.
    """
    k = modes.index(n)
    a, b1, b2 = modes.alpha_n[k], modes.beta1[k], modes.beta2[k]
    a1, b1c, a2, b2c = ab_coefficients(modes, profile, n, v_hat)
    mu, lam, k1 = ctx.mu, ctx.lam, ctx.kappa1
    d1 = -mu * (a * b1 * (a1 - b1c) + b2**2 * (a2 + b2c))
    d2 = -mu * (b1**2 * (a1 + b1c) - a * b2 * (a2 - b2c)) - (
        lam + mu
    ) * k1**2 * (a1 + b1c)
    return np.array([d1, d2])


@pytest.mark.parametrize("delta", [0.25, 0.5, 1.0, 2.0, 4.0])
def test_layer_operator_agrees_with_amplitude_route(ctx1, modes1, delta):
    profile = make_pml(SIGMA, 2, delta, b=ctx1.gamma_height)
    for n in range(-20, 21):
        m = layer_dtn_matrix(modes1, profile, n)
        via_amp = np.stack(
            [
                _traction_from_amplitudes(ctx1, modes1, profile, n, e)
                for e in (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
            ],
            axis=1,
        )
        assert spectral_norm_2x2(m - via_amp) <= 1e-10 * spectral_norm_2x2(m)


@pytest.mark.parametrize(
    "delta,n_span", [(0.25, 20), (0.5, 20), (1.0, 6), (2.0, 6)]
)
def test_amplitudes_solve_the_explicit_layer_system(ctx1, modes1, delta, n_span):
    profile = make_pml(SIGMA, 2, delta, b=ctx1.gamma_height)
    rng = np.random.default_rng(29)
    for n in range(-n_span, n_span + 1):
        v_hat = rng.normal(size=2) + 1j * rng.normal(size=2)
        x = ab_coefficients(modes1, profile, n, v_hat)
        mat, rhs = layer_system(modes1, profile, n, v_hat)
        # divide by the largest entry first: at delta = 2 the Frobenius norm
        # of the unscaled matrix overflows to inf
        big = np.abs(mat).max()
        mat, rhs = mat / big, rhs / big
        res = np.linalg.norm(mat @ x - rhs)
        scale = np.linalg.norm(mat) * np.linalg.norm(x) + np.linalg.norm(rhs)
        assert res <= 1e-10 * scale


@pytest.mark.parametrize("delta,n_span", [(0.25, 20), (0.5, 20), (1.0, 6)])
def test_amplitudes_solve_each_row_of_the_explicit_layer_system(
    ctx1, modes1, delta, n_span
):
    # componentwise: each row's residual against the size of that row's
    # terms, so the small interface rows are not hidden by the exponentially
    # large rows at depth (at delta = 2 the explicit system is too
    # ill-conditioned for this check)
    profile = make_pml(SIGMA, 2, delta, b=ctx1.gamma_height)
    rng = np.random.default_rng(29)
    for n in range(-n_span, n_span + 1):
        v_hat = rng.normal(size=2) + 1j * rng.normal(size=2)
        x = ab_coefficients(modes1, profile, n, v_hat)
        mat, rhs = layer_system(modes1, profile, n, v_hat)
        res = np.abs(mat @ x - rhs)
        assert np.all(res <= 1e-10 * (np.abs(mat) @ np.abs(x) + np.abs(rhs)))


def test_amplitudes_validate_input(modes1, profile1):
    with pytest.raises(ValueError):
        ab_coefficients(modes1, profile1, 0, np.zeros(3))


def test_undamped_layer_is_rejected_for_propagating_modes(ctx1, modes1):
    # purely real stretching leaves propagating modes undamped
    real_profile = make_pml(12.0, 2, 8.0, b=ctx1.gamma_height)
    with pytest.raises(ParameterRegimeError, match="damp"):
        layer_dtn_matrix(modes1, real_profile, 0)
    # evanescent modes decay anyway: same profile, mode 1 is fine
    m = layer_dtn_matrix(modes1, real_profile, 1)
    assert np.all(np.isfinite(m))


# ---------------------------------------------------------------------------
# spectral norm
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_spectral_norm_matches_svd(seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    want = float(np.linalg.svd(m, compute_uv=False)[0])
    assert spectral_norm_2x2(m) == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_spectral_norm_validates_shape():
    with pytest.raises(ValueError):
        spectral_norm_2x2(np.eye(3))
