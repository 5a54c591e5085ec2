"""Element kernels, constraint folding, and the reduced linear system."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import gratpml.assembly
from gratpml import (
    Mesh,
    WaveContext,
    assemble,
    build_dofmap,
    build_mode_table,
    calibrate,
    flat_profile,
    generate_initial,
    indicators,
    load_config,
    make_pml,
    mark,
    pml_source,
    setup,
    sharp_profile,
    solve_system,
)
from gratpml.assembly import (
    _PAIR_A,
    _PAIR_B,
    _pair_integrals,
    element_blocks,
    layer_source,
)
from gratpml.meshing import PHYSICAL, PML, bisect, p1_geometry
from gratpml.quadrature import ELEMENT_RULE, at_rule_points

from conftest import (
    CONFIG_DIR, REFERENCE, draw_context, gratings, rebuilt, reference_rule,
)


@pytest.fixture(scope="module")
def small_mesh(ctx1, profile1):
    return generate_initial(flat_profile(ctx1.period), ctx1, profile1, h0=0.5)


# ---------------------------------------------------------------------------
# element kernel against direct quadrature of the sesquilinear form
# ---------------------------------------------------------------------------


def _element_by_quadrature(coords, region, ctx, profile, rule, literal_mixed):
    """Entry-wise quadrature of the form; independent of the batched kernel.

    Unlike the kernel it reads the region label: rho is set to 1 on
    physical elements instead of being evaluated there.  ``rule`` is a
    triangle rule (barycentric points, weights).

    ``literal_mixed`` selects the literal grouping of the mixed term instead
    of the transpose grouping that ``assemble`` uses (see
    ``gratpml.pml.flux_terms``).
    """
    from gratpml.pml import rho

    coords = np.asarray(coords, dtype=float)
    d1, d2 = coords[1] - coords[0], coords[2] - coords[0]
    det = d1[0] * d2[1] - d1[1] * d2[0]
    area = 0.5 * det
    grads = np.empty((3, 2))
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        grads[i, 0] = (coords[j, 1] - coords[k, 1]) / det
        grads[i, 1] = (coords[k, 0] - coords[j, 0]) / det

    bary, w = rule
    yq = bary @ coords[:, 1]
    rq = rho(profile, yq) if region != 0 else np.ones_like(yq, dtype=complex)

    lam, mu, om2 = ctx.lam, ctx.mu, ctx.omega**2
    ke = np.zeros((6, 6), dtype=complex)
    for a in range(3):  # trial vertex
        for b in range(3):  # test vertex
            gxa, gya = grads[a]
            gxb, gyb = grads[b]
            mass = area * np.sum(w * rq * bary[:, a] * bary[:, b])
            i_rho = area * np.sum(w * rq)
            i_inv = area * np.sum(w / rq)
            ke[2 * b, 2 * a] = (
                (lam + 2 * mu) * gxa * gxb * i_rho
                + mu * gya * gyb * i_inv
                - om2 * mass
            )
            ke[2 * b + 1, 2 * a + 1] = (
                mu * gxa * gxb * i_rho
                + (lam + 2 * mu) * gya * gyb * i_inv
                - om2 * mass
            )
            if literal_mixed:
                ke[2 * b, 2 * a + 1] = (lam + mu) * gxa * gyb * area
                ke[2 * b + 1, 2 * a] = (lam + mu) * gxa * gyb * area
            else:
                ke[2 * b, 2 * a + 1] = (lam + mu) * gya * gxb * area
                ke[2 * b + 1, 2 * a] = (lam + mu) * gxa * gyb * area
    return ke


def _pair_entries(coords, ctx, profile, oracle):
    """The element kernel's values on the six node pairs of one triangle and
    the entries of the 6x6 ``oracle`` at those pairs, in both orders.

    Rows: the (u1, v1), (u2, v2), (u2, v1) and (u1, v2) entries of each pair
    (a, b) with test function a and trial function b, then of (b, a); the
    kernel gives both orders the same diagonal values and its two mixed
    values swapped.
    """
    xy = np.asarray(coords, dtype=float)[None]
    b00, b10, b01, b11 = (
        v[0] for v in _pair_integrals(*p1_geometry(xy), xy[..., 1], ctx, profile)
    )
    got = np.stack([b00, b11, b01, b10, b00, b11, b10, b01])
    want = []
    for test, trial in ((2 * _PAIR_A, 2 * _PAIR_B), (2 * _PAIR_B, 2 * _PAIR_A)):
        want += [oracle[test, trial], oracle[test + 1, trial + 1],
                 oracle[test, trial + 1], oracle[test + 1, trial]]
    return got, np.array(want)


def test_element_matrix_matches_direct_quadrature_physical(ctx1, profile1):
    coords = np.array([[0.1, 0.2], [0.6, 0.25], [0.3, 0.7]])
    oracle = _element_by_quadrature(
        coords, 0, ctx1, profile1, reference_rule(9), False
    )
    got, want = _pair_entries(coords, ctx1, profile1, oracle)
    assert np.allclose(got, want, rtol=1e-13, atol=1e-14)


def test_element_matrix_matches_direct_quadrature_layer(ctx1, profile1, flat_mesh1):
    layer = np.nonzero(flat_mesh1.region == 1)[0]
    for t in (layer[0], layer[-1]):  # bottom and top of the layer
        coords = flat_mesh1.nodes[flat_mesh1.tris[t]]
        oracle = _element_by_quadrature(
            coords, 1, ctx1, profile1, ELEMENT_RULE, False
        )
        got, want = _pair_entries(coords, ctx1, profile1, oracle)
        assert np.allclose(got, want, rtol=1e-13, atol=1e-14)
        # a higher-degree rule barely moves the answer (1/rho is smooth)
        finer = _element_by_quadrature(
            coords, 1, ctx1, profile1, reference_rule(9), False
        )
        _, want = _pair_entries(coords, ctx1, profile1, finer)
        assert np.allclose(got, want, rtol=1e-6, atol=1e-10)


@pytest.mark.parametrize("which", ["flat", "sharp"])
def test_assembly_and_estimator_ignore_region_labels(
    ctx1, profile1, which, request, monkeypatch
):
    # rho(y) alone tells the layer from the physical region
    fixture = {"flat": "flat_mesh1", "sharp": "refined_mesh"}[which]
    mesh = request.getfixturevalue(fixture)
    dm = build_dofmap(mesh, ctx1)
    matrix, rhs = assemble(mesh, ctx1, profile1, dm)
    values = dm.expand(solve_system(matrix, rhs)[0])
    eta = indicators(mesh, values, ctx1, profile1, 1e-9).eta_hat

    # every label flipped
    labels = mesh.region
    flipped = np.where(labels == PHYSICAL, PML, PHYSICAL).astype(np.uint8)
    monkeypatch.setattr(Mesh, "region", property(lambda self: flipped))
    assert np.all(mesh.region != labels)
    other, other_rhs = assemble(mesh, ctx1, profile1, build_dofmap(mesh, ctx1))
    assert np.array_equal(matrix.toarray(), other.toarray())
    assert np.array_equal(rhs, other_rhs)
    eta_flipped = indicators(mesh, values, ctx1, profile1, 1e-9).eta_hat
    assert np.array_equal(eta, eta_flipped)


# ---------------------------------------------------------------------------
# dof classification
# ---------------------------------------------------------------------------


def test_dofmap_reference_counts(ctx1, flat_mesh1):
    dm = build_dofmap(flat_mesh1, ctx1)
    assert dm.n_free == 280
    n_dir = int(np.count_nonzero(dm.eq < 0))
    n_slave = int(np.count_nonzero(dm.weight == ctx1.phase))
    assert n_dir == 10  # surface row and truncation row, five nodes each
    assert n_slave == 35  # right wall minus its two Dirichlet corners
    assert dm.n_free // 2 + n_dir + n_slave == flat_mesh1.n_nodes


def test_dofmap_dirichlet_beats_periodic_at_corners(ctx1, flat_mesh1):
    corner = np.nonzero(flat_mesh1.on_right & flat_mesh1.on_top)[0]
    dm = build_dofmap(flat_mesh1, ctx1)
    assert np.all(dm.eq[corner] == -1)
    assert np.all(dm.weight[corner] == 0.0)


def test_dofmap_top_values_are_incident_field(ctx1, flat_mesh1):
    from gratpml import incident_field

    dm = build_dofmap(flat_mesh1, ctx1)
    top = np.nonzero(flat_mesh1.on_top)[0]
    want = incident_field(ctx1, flat_mesh1.nodes[top, 0], flat_mesh1.nodes[top, 1])
    assert np.array_equal(dm.value[top], want)
    surface = np.nonzero(flat_mesh1.on_surface)[0]
    assert np.all(dm.value[surface] == 0.0)


def test_dofmap_expand_applies_constraints(ctx1, flat_mesh1):
    dm = build_dofmap(flat_mesh1, ctx1)
    rng = np.random.default_rng(5)
    x = rng.normal(size=dm.n_free) + 1j * rng.normal(size=dm.n_free)
    u = dm.expand(x)
    assert u.shape == (flat_mesh1.n_nodes, 2)
    free = dm.weight == 1.0
    assert np.array_equal(u[free], x.reshape(-1, 2)[dm.eq[free]])
    for left, right in flat_mesh1.periodic_pairs:
        if dm.eq[right] >= 0:
            assert np.allclose(u[right], ctx1.phase * u[left], rtol=1e-15)
    dirichlet = dm.eq < 0
    assert np.array_equal(u[dirichlet], dm.value[dirichlet])
    with pytest.raises(ValueError):
        dm.expand(x[:-1])


def _node_order_dofmap(dm, mesh):
    """``dm`` with the free equations numbered in node order instead."""
    free = dm.weight == 1.0
    eq = np.full_like(dm.eq, -1)
    eq[free] = np.arange(dm.n_free // 2)
    left, right = mesh.periodic_pairs.T
    slave = dm.eq[right] >= 0
    eq[right[slave]] = eq[left[slave]]
    return dataclasses.replace(dm, eq=eq)


def test_dofmap_numbers_free_nodes_by_height_then_x(ctx1, refined_mesh):
    dm = build_dofmap(refined_mesh, ctx1)
    free = np.nonzero(dm.weight == 1.0)[0]
    assert 2 * free.size == dm.n_free
    # bisect appended midpoints out of spatial order
    assert np.any(np.diff(refined_mesh.nodes[free, 1]) < 0)
    order = free[np.argsort(dm.eq[free])]
    x, y = refined_mesh.nodes[order].T
    assert np.all((np.diff(y) > 0) | ((np.diff(y) == 0) & (np.diff(x) > 0)))
    assert np.array_equal(dm.eq[order], np.arange(free.size))


def test_dofmap_slaves_share_their_masters_indices(ctx1, refined_mesh):
    dm = build_dofmap(refined_mesh, ctx1)
    left, right = refined_mesh.periodic_pairs.T
    slave = dm.eq[right] >= 0
    assert slave.sum() > 0
    assert np.all(dm.weight[right[slave]] == ctx1.phase)
    assert np.all(dm.weight[right[~slave]] == 0.0)
    assert np.array_equal(dm.eq[right[slave]], dm.eq[left[slave]])
    assert np.all(dm.weight[left[slave]] == 1.0)


def test_solution_does_not_depend_on_the_numbering(ctx1, profile1, refined_mesh):
    dm = build_dofmap(refined_mesh, ctx1)
    by_node = _node_order_dofmap(dm, refined_mesh)
    assert not np.array_equal(by_node.eq, dm.eq)
    fields = [
        d.expand(solve_system(*assemble(refined_mesh, ctx1, profile1, d))[0])
        for d in (dm, by_node)
    ]
    assert np.abs(fields[0] - fields[1]).max() <= 1e-12 * np.abs(fields[1]).max()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_dofmap_blocks_and_constraints_on_random_gratings(seed, data):
    rng = np.random.default_rng(seed)
    ctx = draw_context(rng, n_max=5)
    geom = data.draw(gratings(ctx.period))
    layer = make_pml(12 + 12j, 2, 1.0, b=ctx.gamma_height)
    mesh = generate_initial(geom, ctx, layer, h0=0.25)
    marked = data.draw(st.lists(st.integers(0, mesh.n_tris - 1), max_size=8))
    mesh, _ = bisect(mesh, marked)
    dm = build_dofmap(mesh, ctx)

    dirichlet = mesh.on_surface | mesh.on_top
    assert np.array_equal(dm.eq < 0, dirichlet)
    assert np.all(dm.eq[dirichlet] == -1)
    assert np.all(dm.weight[dirichlet] == 0.0)

    left, right = mesh.periodic_pairs.T
    slave = ~dirichlet[right]
    masters, slaves = left[slave], right[slave]
    assert np.array_equal(dm.eq[slaves], dm.eq[masters])
    assert np.all(dm.weight[slaves] == ctx.phase)

    free = np.ones(mesh.n_nodes, dtype=bool)
    free[dirichlet | mesh.on_right] = False
    assert np.all(dm.weight[free] == 1.0)
    k = dm.n_free // 2
    assert np.count_nonzero(free) == k
    order = np.nonzero(free)[0][np.argsort(dm.eq[free])]
    assert np.array_equal(dm.eq[order], np.arange(k))
    x, y = mesh.nodes[order].T
    assert np.all((np.diff(y) > 0) | ((np.diff(y) == 0) & (np.diff(x) > 0)))

    sol = rng.normal(size=dm.n_free) + 1j * rng.normal(size=dm.n_free)
    u = dm.expand(sol)
    blocks = sol.reshape(-1, 2)
    assert np.array_equal(u[dirichlet], dm.value[dirichlet])
    assert np.array_equal(u[order], blocks)
    assert np.allclose(
        u[slaves], ctx.phase * blocks[dm.eq[masters]], rtol=1e-15, atol=0.0
    )


def _without_left_wall_triangles(mesh, count):
    """``mesh`` less ``count`` triangles with an edge on the left wall.

    The triangles are spread over the wall, away from its corners.  Their
    other edges become boundary edges off the walls and the top line, so
    their nodes, the two on the wall included, count as surface nodes;
    the right partners of those wall nodes do not.  Returns the new mesh
    and the left wall nodes of each removed triangle, bottom to top.
    """
    edges, tri_edges, _ = mesh.edge_structure
    on_left = mesh.on_left
    wall = on_left[edges[:, 0]] & on_left[edges[:, 1]]
    tris = np.nonzero(wall[tri_edges].any(axis=1))[0]
    tris = tris[np.argsort(mesh.nodes[mesh.tris[tris], 1].min(axis=1))]
    step = len(tris) // (count + 1)
    gone = tris[step : step * (count + 1) : step]
    walls = [t[on_left[t]] for t in mesh.tris[gone]]
    return rebuilt(mesh, keep=~np.isin(np.arange(mesh.n_tris), gone)), walls


def _partners(mesh, left_nodes):
    """Periodic pairs (left, right) of ``left_nodes``."""
    pairs = mesh.periodic_pairs
    return pairs[np.isin(pairs[:, 0], left_nodes)]


def test_dofmap_rejects_constrained_periodic_master(ctx1, flat_mesh1):
    mesh, (wall,) = _without_left_wall_triangles(flat_mesh1, 1)
    assert np.all(mesh.on_surface[wall])
    master, node = min(_partners(mesh, wall), key=lambda pair: pair[1])
    with pytest.raises(
        RuntimeError,
        match=rf"periodic master {master} of node {node} is constrained",
    ):
        build_dofmap(mesh, ctx1)


def test_dofmap_rejects_right_node_without_partner(ctx1, flat_mesh1):
    # a right wall node moved off the height of every left wall node
    right = np.nonzero(flat_mesh1.on_right)[0]
    nodes = flat_mesh1.nodes.copy()
    nodes[right[len(right) // 2], 1] += 0.01
    with pytest.raises(RuntimeError, match="periodic walls do not match"):
        build_dofmap(rebuilt(flat_mesh1, nodes=nodes), ctx1)


@pytest.mark.parametrize("bottom_up", [True, False])
def test_dofmap_reports_the_first_offending_node(ctx1, flat_mesh1, bottom_up):
    # two right wall nodes far apart slave to constrained masters; the
    # lower-numbered one is reported, whether the nodes are numbered from
    # the bottom up (as generated) or from the top down
    mesh, (low, high) = _without_left_wall_triangles(flat_mesh1, 2)
    if not bottom_up:
        order = np.argsort(-mesh.nodes[:, 1], kind="stable")  # new -> old
        new_id = np.empty_like(order)
        new_id[order] = np.arange(order.size)
        mesh = Mesh(
            mesh.nodes[order], new_id[mesh.tris], mesh.ref_edge,
            mesh.period, mesh.b, mesh.top,
        )
        low, high = new_id[low], new_id[high]
    first, second = (low, high) if bottom_up else (high, low)
    master, node = min(_partners(mesh, first), key=lambda pair: pair[1])
    assert node < _partners(mesh, second)[:, 1].min()
    with pytest.raises(
        RuntimeError,
        match=rf"periodic master {master} of node {node} is constrained",
    ):
        build_dofmap(mesh, ctx1)


# ---------------------------------------------------------------------------
# global assembly against a dense reference
# ---------------------------------------------------------------------------


def _dense_reference_system(mesh, ctx, profile, dofmap, literal_mixed):
    """Unconstrained dense assembly followed by explicit constraint algebra.

    The element matrices come from the entry-wise quadrature reference, in
    the mixed-term grouping that ``literal_mixed`` selects.
    """
    n = mesh.n_nodes
    kfull = np.zeros((2 * n, 2 * n), dtype=complex)
    ffull = np.zeros(2 * n, dtype=complex)
    bary, w = ELEMENT_RULE
    for t in range(mesh.n_tris):
        tri = mesh.tris[t]
        coords = mesh.nodes[tri]
        ke = _element_by_quadrature(
            coords, int(mesh.region[t]), ctx, profile, (bary, w), literal_mixed
        )
        gdof = [2 * int(tri[v]) + c for v in range(3) for c in (0, 1)]
        kfull[np.ix_(gdof, gdof)] += ke
        if mesh.region[t] != 0:
            d1, d2 = coords[1] - coords[0], coords[2] - coords[0]
            area = 0.5 * (d1[0] * d2[1] - d1[1] * d2[0])
            pts = bary @ coords
            g = pml_source(ctx, profile, pts[:, 0], pts[:, 1])
            for b_loc in range(3):
                for d in range(2):
                    ffull[2 * int(tri[b_loc]) + d] += -area * np.sum(
                        w * g[:, d] * bary[:, b_loc]
                    )

    cmat = np.zeros((2 * n, dofmap.n_free), dtype=complex)
    shift = np.zeros(2 * n, dtype=complex)
    for node in range(n):
        for c in range(2):
            gd = 2 * node + c
            if dofmap.eq[node] < 0:
                shift[gd] = dofmap.value[node, c]
            else:
                cmat[gd, 2 * dofmap.eq[node] + c] = dofmap.weight[node]
    a_red = cmat.conj().T @ kfull @ cmat
    b_red = cmat.conj().T @ (ffull - kfull @ shift)
    return a_red, b_red


@pytest.mark.parametrize(
    "literal,which",
    [
        pytest.param(False, "small_mesh", id="False"),
        pytest.param(True, "small_mesh", id="True"),
        pytest.param(False, "refined_mesh", id="False-refined_mesh"),
        pytest.param(True, "refined_mesh", id="True-refined_mesh"),
    ],
)
def test_assembled_system_matches_dense_reference(
    ctx1, profile1, literal, which, request
):
    # literal=True: the reference assembles the other mixed-term grouping,
    # which differs element-wise by a null Lagrangian and so must reduce to
    # the same system.  On small_mesh (two columns) a middle node couples to
    # a left wall node and to its right wall slave, so two node pairs of the
    # mesh fold into one pair of equations; refined_mesh adds midpoint nodes
    # out of spatial order, Dirichlet corners and layer elements.
    mesh = request.getfixturevalue(which)
    dm = build_dofmap(mesh, ctx1)
    matrix, rhs = assemble(mesh, ctx1, profile1, dm)
    a_ref, b_ref = _dense_reference_system(mesh, ctx1, profile1, dm, literal)
    a_got = matrix.toarray()
    scale = np.abs(a_ref).max()
    assert np.abs(a_got - a_ref).max() <= 1e-12 * scale
    assert np.abs(rhs - b_ref).max() <= 1e-12 * np.abs(b_ref).max()


@pytest.mark.parametrize("which", ["small_mesh", "refined_mesh"])
def test_at_most_two_node_pair_blocks_meet_in_one_equation_block(
    ctx1, profile1, which, request
):
    # assemble sums the weighted node-pair blocks in one sparse conversion;
    # its summation order cannot change a sum of two.  A master and its
    # slave share an equation block, and no left-wall node neighbours a
    # right-wall node (small_mesh has the fewest columns allowed, two)
    mesh = request.getfixturevalue(which)
    dm = build_dofmap(mesh, ctx1)
    lo, hi = mesh.edge_structure[0].T
    nodes = np.arange(mesh.n_nodes)
    test = np.concatenate([nodes, lo, hi])
    trial = np.concatenate([nodes, hi, lo])
    kept = (dm.eq[test] >= 0) & (dm.eq[trial] >= 0)
    pairs = np.stack([dm.eq[test[kept]], dm.eq[trial[kept]]], axis=1)
    _, counts = np.unique(pairs, axis=0, return_counts=True)
    assert counts.max() == 2  # reached: a master's and its slave's diagonal
    assert assemble(mesh, ctx1, profile1, dm)[0].has_canonical_format


@pytest.mark.parametrize("name", ["flat", "sharp"])
def test_assembled_matrix_is_canonical_csc_without_stored_zeros(name):
    # solve_system copies a matrix that is not canonical CSC, and the
    # factorization takes a stored zero for an entry; on bisected meshes
    # the fold leaves exact zeros, which eliminate_zeros drops
    cfg = load_config(CONFIG_DIR / f"{name}.cfg")
    ctx, _, geom, profile, _ = setup(cfg)
    mesh = generate_initial(geom, ctx, profile, cfg.h0)
    rng = np.random.default_rng(0)
    for _ in range(3):  # the initial mesh and two bisected ones
        matrix, _ = assemble(mesh, ctx, profile, build_dofmap(mesh, ctx))
        assert matrix.format == "csc" and matrix.has_canonical_format
        assert matrix.indices.dtype == matrix.indptr.dtype == np.int32
        assert np.all(matrix.data != 0.0)
        mesh, _ = bisect(mesh, mark(rng.random(mesh.n_tris)))


def test_mixed_term_groupings_assemble_identically(ctx1, profile1, small_mesh):
    # element-wise the two groupings differ, but the difference is a null
    # Lagrangian: the reduced systems must coincide
    coords = small_mesh.nodes[small_mesh.tris[0]]
    k_t = _element_by_quadrature(coords, 0, ctx1, profile1, ELEMENT_RULE, False)
    k_l = _element_by_quadrature(coords, 0, ctx1, profile1, ELEMENT_RULE, True)
    assert np.abs(k_t - k_l).max() > 1e-3 * np.abs(k_t).max()
    dm = build_dofmap(small_mesh, ctx1)
    a_t, b_t = _dense_reference_system(small_mesh, ctx1, profile1, dm, False)
    a_l, b_l = _dense_reference_system(small_mesh, ctx1, profile1, dm, True)
    assert np.abs(a_t - a_l).max() <= 1e-12 * np.abs(a_t).max()
    assert np.allclose(b_t, b_l, rtol=0.0, atol=1e-12)


def test_assembled_matrix_is_complex_symmetric_at_normal_incidence(ctx1):
    # the unreduced weak form is complex symmetric; the quasi-periodic fold
    # keeps that only when the Bloch phase is real, i.e. at normal incidence
    ctx = WaveContext(
        omega=ctx1.omega,
        lam=ctx1.lam,
        mu=ctx1.mu,
        theta=0.0,
        period=ctx1.period,
        gamma_height=ctx1.gamma_height,
    )
    modes = build_mode_table(ctx, 20)
    profile = calibrate(ctx, modes)
    mesh = generate_initial(flat_profile(1.0), ctx, profile, h0=0.25)
    dm = build_dofmap(mesh, ctx)
    matrix, _ = assemble(mesh, ctx, profile, dm)
    asym = (matrix - matrix.T).toarray()
    assert np.abs(asym).max() <= 1e-13 * np.abs(matrix.toarray()).max()


def _reduced_matrix(geom, theta):
    ctx = WaveContext(**{**REFERENCE, "theta": theta})
    profile = calibrate(ctx, build_mode_table(ctx, 20))
    mesh = generate_initial(geom, ctx, profile, h0=0.25)
    return assemble(mesh, ctx, profile, build_dofmap(mesh, ctx))[0].tocsr()


@pytest.mark.parametrize("geom", [flat_profile(1.0), sharp_profile(1.0)])
def test_assembled_matrix_is_structurally_symmetric_at_oblique_incidence(geom):
    # at oblique incidence the Bloch phase makes A non-symmetric, but its
    # pattern is symmetric and reversing the incidence transposes it
    theta = np.radians(30.0)
    a = _reduced_matrix(geom, theta)
    pattern = sp.csr_matrix((np.ones(a.nnz), a.indices, a.indptr), shape=a.shape)
    assert (pattern != pattern.T).nnz == 0
    mirrored = _reduced_matrix(geom, -theta)
    assert mirrored.shape == a.shape
    gap = np.abs((a.T - mirrored).toarray()).max()
    assert gap <= 1e-13 * np.abs(a.data).max()
    assert np.abs((a - a.T).toarray()).max() > 1e-3 * np.abs(a.data).max()


def test_results_do_not_depend_on_the_block_size(
    monkeypatch, ctx1, profile1, refined_mesh
):
    # the shipped meshes of tier-1 fit in one block; five elements per block
    # make every kernel run over many blocks and a ragged last one
    dm = build_dofmap(refined_mesh, ctx1)
    rng = np.random.default_rng(5)
    field = rng.normal(size=(refined_mesh.n_nodes, 2, 2)) @ np.array([1.0, 1j])

    def results():
        matrix, rhs = assemble(refined_mesh, ctx1, profile1, dm)
        res = indicators(refined_mesh, field, ctx1, profile1, 1e-9).residual_terms
        source = layer_source(refined_mesh, ctx1, profile1)
        return matrix, rhs, res, source

    matrix, rhs, res, source = results()
    monkeypatch.setattr(gratpml.assembly, "BLOCK_SIZE", 5)
    assert refined_mesh.n_tris % 5 != 0
    blk_matrix, blk_rhs, blk_res, blk_source = results()
    assert np.array_equal(blk_source, source)  # pointwise, so bit for bit
    assert abs(blk_matrix - matrix).max() <= 1e-14 * abs(matrix).max()
    assert np.abs(blk_rhs - rhs).max() <= 1e-14 * np.abs(rhs).max()
    assert np.abs(blk_res - res).max() <= 1e-14 * np.abs(res).max()


@pytest.mark.parametrize("start", [0, 7])
def test_element_sweep_covers_every_element_in_ragged_blocks(
    refined_mesh, monkeypatch, start
):
    monkeypatch.setattr(gratpml.assembly, "BLOCK_SIZE", 5)
    n = refined_mesh.n_tris
    assert (n - start) % 5 != 0  # a ragged last block
    blk, tris = zip(*element_blocks(refined_mesh, start))
    assert [b.start for b in blk] == list(range(start, n, 5))
    assert [len(t) for t in tris] == [5] * (len(tris) - 1) + [(n - start) % 5]
    assert np.array_equal(np.concatenate(tris), refined_mesh.tris[start:])
    # the rule points of the blocks are those of the whole mesh, bit for bit
    bary, _ = ELEMENT_RULE
    coords = refined_mesh.nodes[refined_mesh.tris[start:]]
    for d in range(2):
        got = [at_rule_points(refined_mesh.nodes[t, d]) for t in tris]
        assert np.array_equal(np.concatenate(got), coords[..., d] @ bary.T)


# ---------------------------------------------------------------------------
# layer volume data carried through bisection
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_carried_layer_source_equals_a_fresh_evaluation(seed, data):
    rng = np.random.default_rng(seed)
    ctx = draw_context(rng, n_max=5)
    geom = data.draw(gratings(ctx.period))
    # a thin layer keeps the meshes small
    layer = make_pml(12 + 12j, 2, 1.0, b=ctx.gamma_height)
    mesh = generate_initial(geom, ctx, layer, h0=0.25)
    source = layer_source(mesh, ctx, layer)
    for _ in range(data.draw(st.integers(3, 4))):
        marked = data.draw(
            st.lists(
                st.integers(0, mesh.n_tris - 1), min_size=1,
                max_size=max(1, mesh.n_tris // 5),
            )
        )
        new, kept = bisect(mesh, marked)
        assert np.array_equal(new.tris[: len(kept)], mesh.tris[kept])
        assert len(kept) < new.n_tris
        source = layer_source(new, ctx, layer, carried=source[kept])
        assert np.array_equal(source, layer_source(new, ctx, layer))
        mesh = new
    assert np.any(source != 0.0)  # the layer has data to carry

    dm = build_dofmap(mesh, ctx)
    fresh, fresh_rhs = assemble(mesh, ctx, layer, dm)
    shared, shared_rhs = assemble(mesh, ctx, layer, dm, source=source)
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(shared, name), getattr(fresh, name))
    assert np.array_equal(shared_rhs, fresh_rhs)

    field = rng.normal(size=(mesh.n_nodes, 2)) + 1j * rng.normal(
        size=(mesh.n_nodes, 2)
    )
    want = indicators(mesh, field, ctx, layer, 1e-8)
    got = indicators(mesh, field, ctx, layer, 1e-8, source=source)
    for name, value in vars(want).items():
        assert np.array_equal(getattr(got, name), value), name
