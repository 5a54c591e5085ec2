"""Residual error estimation: indicators, jumps, and global measures."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import gratpml.assembly
import gratpml.estimator
from gratpml import (
    element_residuals,
    flat_profile,
    generate_initial,
    indicators,
    jump_terms,
    layer_source,
    make_pml,
)
from gratpml.pml import rho
from gratpml.quadrature import ELEMENT_DEGREE, triangle_rule

from conftest import draw_context, gratings


@pytest.fixture(scope="module")
def small_mesh(ctx1, profile1):
    return generate_initial(flat_profile(1.0), ctx1, profile1, h0=0.5)


def _random_field(mesh, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(mesh.n_nodes, 2)) + 1j * rng.normal(
        size=(mesh.n_nodes, 2)
    )


# ---------------------------------------------------------------------------
# global structure
# ---------------------------------------------------------------------------


def test_zero_data_gives_identically_zero_indicators(ctx1, profile1, flat_mesh1):
    field = np.zeros((flat_mesh1.n_nodes, 2), dtype=complex)
    ind = indicators(flat_mesh1, field, ctx1, profile1, 1e-12, amplitude=0.0)
    assert np.all(ind.eta == 0.0)
    assert np.all(ind.eta_hat == 0.0)
    assert np.all(ind.residual_terms == 0.0)
    assert np.all(ind.jump_terms == 0.0)
    assert np.all(ind.top_terms == 0.0)
    assert ind.global_eta == 0.0
    assert ind.eps_fem == 0.0
    assert ind.eps_pml == 0.0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_amplitude_scales_every_data_term_together(seed, data):
    # the problem is linear: the field a*u driven by a*u_inc has the
    # indicators of u driven by u_inc, scaled by a (the squared jumps by a^2)
    rng = np.random.default_rng(seed)
    ctx = draw_context(rng, n_max=5)
    geom = data.draw(gratings(ctx.period))
    a = data.draw(st.floats(0.25, 4.0))
    layer = make_pml(12 + 12j, 2, 1.0, b=ctx.gamma_height)
    mesh = generate_initial(geom, ctx, layer, h0=0.25)
    source = layer_source(mesh, ctx, layer) if data.draw(st.booleans()) else None
    field = rng.normal(size=(mesh.n_nodes, 2)) + 1j * rng.normal(
        size=(mesh.n_nodes, 2)
    )
    unit = indicators(mesh, field, ctx, layer, 1e-8, source=source)
    scaled = indicators(
        mesh, a * field, ctx, layer, 1e-8, amplitude=a, source=source
    )
    for name in ("eta", "eta_hat", "residual_terms", "top_terms",
                 "eps_fem", "eps_pml"):
        assert np.allclose(
            getattr(scaled, name), a * getattr(unit, name), rtol=1e-12, atol=0.0
        ), name
    assert np.allclose(
        scaled.jump_terms, a**2 * unit.jump_terms, rtol=1e-12, atol=0.0
    )
    assert unit.eps_pml > 0.0 and np.any(unit.top_terms > 0.0)


def test_reported_quantities_are_mutually_consistent(ctx1, profile1, flat_mesh1):
    field = _random_field(flat_mesh1, 5)
    f_hat = 3.25e-9
    ind = indicators(flat_mesh1, field, ctx1, profile1, f_hat)
    assert np.allclose(
        ind.eta,
        flat_mesh1.diameters() * ind.residual_terms
        + np.sqrt(0.5 * ind.jump_terms),
        rtol=1e-14,
    )
    assert np.allclose(ind.eta_hat, ind.eta + ind.top_terms, rtol=1e-14)
    assert ind.global_eta == pytest.approx(
        float(np.sqrt((ind.eta_hat**2).sum())), rel=1e-14
    )
    assert ind.eps_fem == pytest.approx(
        ind.boundary_l2_top + ind.global_eta, rel=1e-14
    )
    assert ind.eps_pml == pytest.approx(
        f_hat * ind.boundary_l2_interface, rel=1e-14
    )


def test_data_term_lives_exactly_on_truncation_line_elements(
    ctx1, profile1, flat_mesh1
):
    field = _random_field(flat_mesh1, 11)
    ind = indicators(flat_mesh1, field, ctx1, profile1, 1e-12)
    edges, _, edge_tri = flat_mesh1.edge_structure()
    on_top_edge = (
        flat_mesh1.on_top[edges[:, 0]] & flat_mesh1.on_top[edges[:, 1]]
    )
    expected = np.zeros(flat_mesh1.n_tris, dtype=bool)
    expected[edge_tri[on_top_edge, 0]] = True
    extra = ind.eta_hat - ind.eta
    assert np.array_equal(extra > 0.0, expected)
    assert np.all(ind.eta_hat >= ind.eta)


def test_indicators_validate_field_shape(ctx1, profile1, flat_mesh1):
    with pytest.raises(ValueError):
        indicators(flat_mesh1, np.zeros((4, 2)), ctx1, profile1, 1e-12)


# ---------------------------------------------------------------------------
# jump terms
# ---------------------------------------------------------------------------


def test_constant_field_has_no_jumps(ctx1, profile1, flat_mesh1):
    field = np.full((flat_mesh1.n_nodes, 2), 0.8 - 1.3j)
    jumps = jump_terms(flat_mesh1, field, ctx1, profile1)
    assert np.all(jumps == 0.0)


def test_affine_field_jumps_only_at_periodic_wall(ctx1, profile1, flat_mesh1):
    x, y = flat_mesh1.nodes[:, 0], flat_mesh1.nodes[:, 1]
    field = np.stack(
        [0.3 + (1.1 - 0.2j) * x + 0.7j * y, -1.0j + 0.5 * x + (2.0 + 1.0j) * y],
        axis=1,
    )
    jumps = jump_terms(flat_mesh1, field, ctx1, profile1)
    edges, _, edge_tri = flat_mesh1.edge_structure()
    wall = flat_mesh1.on_left | flat_mesh1.on_right
    wall_edge = (edge_tri[:, 1] < 0) & wall[edges[:, 0]] & wall[edges[:, 1]]
    has_wall_edge = np.zeros(flat_mesh1.n_tris, dtype=bool)
    has_wall_edge[edge_tri[wall_edge, 0]] = True
    # matching constant gradients cancel across interior edges (up to the
    # rounding of the nodal evaluation) ...
    assert np.all(jumps[~has_wall_edge] <= 1e-20)
    # ... but not across the quasi-periodic wall (the Bloch phase is not 1)
    assert np.all(jumps[has_wall_edge] > 1e-6)


def _naive_gradients(mesh, field):
    grads = np.empty((mesh.n_tris, 2, 2), dtype=complex)
    for t in range(mesh.n_tris):
        p = mesh.nodes[mesh.tris[t]]
        v = field[mesh.tris[t]]
        emat = np.array([p[1] - p[0], p[2] - p[0]])
        for c in range(2):
            grads[t, c] = np.linalg.solve(emat, v[1:, c] - v[0, c])
    return grads


def _naive_flux(j, nx, ny, ctx):
    # rho-weighted, constant, and 1/rho-weighted contributions
    lam, mu = ctx.lam, ctx.mu
    p = np.array([(lam + 2 * mu) * j[0, 0] * nx, mu * j[1, 0] * nx])
    c = np.array([(lam + mu) * j[1, 1] * nx, (lam + mu) * j[0, 0] * ny])
    q = np.array([mu * j[0, 1] * ny, (lam + 2 * mu) * j[1, 1] * ny])
    return p, c, q


def _naive_jump_terms(mesh, field, ctx, profile):
    grads = _naive_gradients(mesh, field)
    edges, _, edge_tri = mesh.edge_structure()
    out = np.zeros(mesh.n_tris)

    def add(eid, dp, dc, dq, tris):
        pa, pb = mesh.nodes[edges[eid, 0]], mesh.nodes[edges[eid, 1]]
        h = float(np.hypot(*(pb - pa)))

        def dens(s):
            r = rho(profile, pa[1] + (pb[1] - pa[1]) * s)
            val = dp * r + dc + dq / r
            return float((np.abs(val) ** 2).sum())

        q_e = h**2 * quad(dens, 0.0, 1.0, limit=200)[0]
        for t in tris:
            out[t] += q_e

    for eid in range(len(edges)):
        t1, t2 = edge_tri[eid]
        if t2 < 0:
            continue
        pa, pb = mesh.nodes[edges[eid, 0]], mesh.nodes[edges[eid, 1]]
        d = pb - pa
        h = float(np.hypot(*d))
        nx, ny = d[1] / h, -d[0] / h
        pcq1 = _naive_flux(grads[t1], nx, ny, ctx)
        pcq2 = _naive_flux(grads[t2], nx, ny, ctx)
        add(eid, *(a - b for a, b in zip(pcq1, pcq2)), (t1, t2))

    # pair up wall edges by their y-interval
    def wall_edges(flags):
        found = {}
        for eid in range(len(edges)):
            a, b = edges[eid]
            if edge_tri[eid, 1] < 0 and flags[a] and flags[b]:
                key = round(float(mesh.nodes[[a, b], 1].sum()) / 2.0, 9)
                found[key] = eid
        return found

    lefts = wall_edges(mesh.on_left)
    rights = wall_edges(mesh.on_right)
    assert set(lefts) == set(rights)
    phase = np.exp(-1j * ctx.alpha * ctx.period)
    for key, eid in lefts.items():
        mate = rights[key]
        tl, tr = edge_tri[eid, 0], edge_tri[mate, 0]
        pcql = _naive_flux(grads[tl], 1.0, 0.0, ctx)
        pcqr = _naive_flux(grads[tr], 1.0, 0.0, ctx)
        add(eid, *(a - phase * b for a, b in zip(pcql, pcqr)), (tl, tr))
    return out


def test_jump_terms_match_naive_edge_loop(ctx1, profile1, small_mesh, refined_mesh):
    for mesh in (small_mesh, refined_mesh):
        field = _random_field(mesh, 3)
        got = jump_terms(mesh, field, ctx1, profile1)
        want = _naive_jump_terms(mesh, field, ctx1, profile1)
        assert np.allclose(got, want, rtol=1e-10, atol=1e-13)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_jump_terms_are_finite_and_nonnegative(seed, data):
    # an affine field has only round-off jumps inside, where the terms of
    # the expanded form cancel; the noise makes them genuine
    rng = np.random.default_rng(seed)
    ctx = draw_context(rng, n_max=5)
    geom = data.draw(gratings(ctx.period))
    layer = make_pml(12 + 12j, 2, 1.0, b=ctx.gamma_height)
    mesh = generate_initial(geom, ctx, layer, h0=0.25)
    x, y = mesh.nodes.T
    gx, gy, u0 = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    noise = data.draw(st.sampled_from([0.0, 1e-9, 1.0]))
    field = u0 + x[:, None] * gx + y[:, None] * gy
    field += noise * _random_field(mesh, seed)
    jumps = jump_terms(mesh, field, ctx, layer)
    assert jumps.shape == (mesh.n_tris,)
    assert np.all(np.isfinite(jumps)) and np.all(jumps >= 0.0)


# ---------------------------------------------------------------------------
# element residuals
# ---------------------------------------------------------------------------


def test_physical_residual_is_omega_squared_field_norm(
    ctx1, profile1, flat_mesh1
):
    field = _random_field(flat_mesh1, 7)
    res = element_residuals(flat_mesh1, field, ctx1, profile1)
    bary, w = triangle_rule(4)  # |linear|^2 is quadratic: integrated exactly
    phys = np.nonzero(flat_mesh1.region == 0)[0][:40]
    for t in phys:
        coords = flat_mesh1.nodes[flat_mesh1.tris[t]]
        vals = field[flat_mesh1.tris[t]]
        d1, d2 = coords[1] - coords[0], coords[2] - coords[0]
        area = 0.5 * abs(d1[0] * d2[1] - d1[1] * d2[0])
        uq = bary @ vals
        want = ctx1.omega**2 * np.sqrt(
            area * np.sum(w * (np.abs(uq) ** 2).sum(axis=1))
        )
        assert res[t] == pytest.approx(want, rel=1e-13)


def test_layer_residual_is_quadrature_converged(
    ctx1, profile1, flat_mesh1, monkeypatch
):
    field = _random_field(flat_mesh1, 9)
    coarse = element_residuals(flat_mesh1, field, ctx1, profile1)

    def degree_12_rule(degree):
        assert degree == ELEMENT_DEGREE
        return triangle_rule(12)

    # the reference: the same residual evaluated with a degree-12 rule, for
    # the field terms (estimator) and the layer volume data (assembly)
    monkeypatch.setattr(gratpml.estimator, "triangle_rule", degree_12_rule)
    monkeypatch.setattr(gratpml.assembly, "triangle_rule", degree_12_rule)
    fine = element_residuals(flat_mesh1, field, ctx1, profile1)
    layer = flat_mesh1.region != 0
    assert not np.array_equal(coarse[layer], fine[layer])  # the rule changed
    assert np.allclose(coarse[layer], fine[layer], rtol=1e-5)


def test_residual_scales_linearly_in_the_field_when_undriven(
    ctx1, profile1, flat_mesh1
):
    field = _random_field(flat_mesh1, 13)
    zero = np.zeros_like(layer_source(flat_mesh1, ctx1, profile1))
    res1 = element_residuals(flat_mesh1, field, ctx1, profile1, source=zero)
    res3 = element_residuals(flat_mesh1, 3.0 * field, ctx1, profile1, source=zero)
    assert np.allclose(res3, 3.0 * res1, rtol=1e-13)
