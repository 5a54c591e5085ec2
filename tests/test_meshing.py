"""Grating profiles, mesh generation, conforming bisection, and marking."""

import os
import pathlib
import subprocess
import sys
import warnings
from fractions import Fraction
from math import ceil, hypot, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gratpml
import gratpml.meshing
from gratpml import (
    GeometryError,
    bisect,
    flat_profile,
    build_dofmap,
    generate_initial,
    initial_dofs,
    load_profile,
    locate_corner_fraction,
    make_pml,
    mark,
    sharp_profile,
    write_vtk,
)
from gratpml.cli import main
from gratpml.meshing import PML, PHYSICAL, GratingProfile, Mesh

from conftest import draw_context, gratings, rebuilt


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------


def test_builtin_profiles():
    flat = flat_profile(1.0)
    assert flat.period == 1.0
    assert flat.is_flat_at_zero
    assert flat.max_height == flat.min_height == 0.0

    saw = sharp_profile(1.0)
    assert saw.period == 1.0
    assert not saw.is_flat_at_zero
    assert saw.max_height == 0.5
    assert saw.height(np.array([0.25, 0.5, 0.75])) == pytest.approx(
        [0.25, 0.5, 0.25]
    )


@pytest.mark.parametrize(
    "vertices",
    [
        [[0.0, 0.0]],  # too few
        [[0.1, 0.0], [1.0, 0.0]],  # must start at x = 0
        [[0.0, 0.0], [0.5, 0.2], [0.5, 0.3], [1.0, 0.0]],  # x not increasing
        [[0.0, 0.0], [1.0, 0.5]],  # endpoint heights differ
        [[0.0, 0.0], [float("nan"), 0.0]],  # non-finite
    ],
)
def test_profile_rejects_bad_vertex_lists(vertices):
    with pytest.raises(GeometryError):
        GratingProfile(np.array(vertices, dtype=float))


def test_profile_file_roundtrip(tmp_path):
    path = tmp_path / "teeth.txt"
    path.write_text("# sawtooth\n0.0 0.0\n0.5 0.3\n1.0 0.0\n")
    prof = load_profile(path)
    assert prof.period == 1.0
    assert prof.max_height == 0.3


def test_profile_file_errors(tmp_path):
    with pytest.raises(GeometryError):
        load_profile(tmp_path / "missing.txt")
    bad = tmp_path / "bad.txt"
    bad.write_text("0.0 0.0 0.0\n1.0 0.0 0.0\n")
    with pytest.raises(GeometryError):
        load_profile(bad)


@pytest.mark.parametrize(
    "text", ["", "# a comment, no points\n\n"], ids=["empty", "comments-only"]
)
def test_profile_file_without_points(tmp_path, capsys, text):
    # one error that says so, and no loadtxt warning on stderr
    empty = tmp_path / "empty.txt"
    empty.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GeometryError, match="holds no points"):
            load_profile(empty)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[wave]\nomega = 6.283185307179586\nlambda = 1.0\nmu = 2.0\n"
        "theta_deg = 30.0\nperiod = 1.0\ngamma_height = 1.0\n"
        f"[grating]\nfile = {empty}\n"
    )
    assert main(["mesh-info", "--config", str(cfg)]) == 2
    assert "holds no points" in capsys.readouterr().err


# a peak on the periodic seam: the profile falls from x = 0 and rises to x = 1
SEAM_PEAK = np.array([[0.0, 0.5], [0.5, 0.0], [1.0, 0.5]])


def test_reentrant_corners_of_the_shipped_and_seam_profiles():
    assert sharp_profile(1.0).reentrant_corners.tolist() == [[0.5, 0.5]]
    assert flat_profile(1.0).reentrant_corners.shape == (0, 2)
    # a seam valley is no corner, and a seam peak is listed on both walls
    valley = GratingProfile(SEAM_PEAK * [1.0, -1.0])
    assert valley.reentrant_corners.tolist() == [[0.5, 0.0]]
    assert GratingProfile(SEAM_PEAK).reentrant_corners.tolist() == [
        [0.0, 0.5], [1.0, 0.5]
    ]


@settings(max_examples=200, deadline=None)
@given(gratings())
def test_reentrant_corners_are_the_clockwise_turns(geom):
    # the drawn vertices lie on a grid of 1/20, so exact slopes decide
    grid = [(round(20 * x), round(20 * y)) for x, y in geom.vertices]
    slopes = [Fraction(y1 - y0, x1 - x0)
              for (x0, y0), (x1, y1) in zip(grid, grid[1:])]
    # slope into vertex i, with the seam vertex entered by the last segment
    peaks = [i for i in range(len(slopes)) if slopes[i] < slopes[i - 1]]
    if 0 in peaks:
        peaks.append(len(grid) - 1)
    assert geom.reentrant_corners.tolist() == geom.vertices[peaks].tolist()


@settings(max_examples=100, deadline=None)
@given(gratings(), st.floats(min_value=0.05, max_value=0.95))
def test_collinear_points_add_no_corner(geom, t):
    v = geom.vertices
    inner = v[:-1] + t * (v[1:] - v[:-1])
    finer = np.empty((2 * len(v) - 1, 2))
    finer[0::2], finer[1::2] = v, inner
    assert np.array_equal(
        GratingProfile(finer).reentrant_corners, geom.reentrant_corners
    )


# ---------------------------------------------------------------------------
# initial mesh
# ---------------------------------------------------------------------------


def test_initial_mesh_reference_counts(flat_mesh1):
    assert flat_mesh1.n_nodes == 185
    assert flat_mesh1.n_tris == 288
    assert int(np.count_nonzero(flat_mesh1.region == 0)) == 32
    assert flat_mesh1.b == 1.0
    assert flat_mesh1.top == 9.0


def test_initial_mesh_exact_boundary_lines(ctx1, profile1, flat_mesh1):
    m = flat_mesh1
    m.validate(flat_profile(ctx1.period))
    # boundary rows/columns must be bit-exact so constraints can key on them
    assert np.all(m.nodes[m.on_gamma, 1] == ctx1.gamma_height)
    assert np.all(m.nodes[m.on_top, 1] == profile1.top)
    assert np.all(m.nodes[m.on_left, 0] == 0.0)
    assert np.all(m.nodes[m.on_right, 0] == ctx1.period)
    assert np.all(m.nodes[m.on_surface, 1] == 0.0)
    # left/right traces are mirror images
    left, right = m.periodic_pairs.T
    assert np.all(m.nodes[left, 1] == m.nodes[right, 1])


def _breakpoints_reference(geom: GratingProfile, period: float, h0: float):
    """Column breakpoints (x, s(x)) by a plain loop over the segments."""
    v = geom.vertices
    xs, ys = [float(v[0, 0])], [float(v[0, 1])]
    for k in range(len(v) - 1):
        (x0, y0), (x1, y1) = v[k], v[k + 1]
        nseg = max(1, ceil(hypot(x1 - x0, y1 - y0) / h0))
        for j in range(1, nseg + 1):
            xs.append(float(x0 + (x1 - x0) * j / nseg))
            ys.append(float(y0 + (y1 - y0) * j / nseg))
    xs[-1], ys[-1] = period, ys[0]
    return np.column_stack([xs, ys])


@settings(max_examples=100, deadline=None)
@given(geom=gratings(), h0=st.floats(min_value=0.05, max_value=0.5))
def test_initial_columns_stand_on_the_chord_breakpoints(ctx1, geom, h0):
    layer = make_pml(12 + 12j, 2, 1.0, b=ctx1.gamma_height)
    mesh = generate_initial(geom, ctx1, layer, h0)
    rows = int(np.count_nonzero(mesh.on_left))  # nodes per column
    want = _breakpoints_reference(geom, ctx1.period, h0)
    assert np.array_equal(mesh.nodes[::rows], want)


@settings(max_examples=50, deadline=None)
@given(geom=gratings(), h0=st.floats(min_value=0.03, max_value=0.5),
       delta=st.floats(min_value=0.1, max_value=2.0))
def test_initial_dofs_are_the_free_dofs_of_the_initial_mesh(ctx1, geom, h0, delta):
    layer = make_pml(12 + 12j, 2, delta, b=ctx1.gamma_height)
    mesh = generate_initial(geom, ctx1, layer, h0)
    assert initial_dofs(geom, ctx1, layer, h0) == build_dofmap(mesh, ctx1).n_free


@pytest.mark.parametrize("h0, flat, sharp", [
    (0.25, 280, 420), (0.1, 1780, 2848), (0.07, 3870, 5676), (0.033, 16926, 24024),
])
def test_initial_dofs_of_the_shipped_gratings(ctx1, profile1, h0, flat, sharp):
    for geom, want in ((flat_profile(ctx1.period), flat),
                       (sharp_profile(ctx1.period), sharp)):
        assert initial_dofs(geom, ctx1, profile1, h0) == want
        mesh = generate_initial(geom, ctx1, profile1, h0)
        assert build_dofmap(mesh, ctx1).n_free == want


@pytest.mark.parametrize("h0", [0.0, -0.1, 1.5])
def test_initial_dofs_reject_what_generate_initial_rejects(ctx1, profile1, h0):
    geom = flat_profile(ctx1.period)
    for build in (initial_dofs, generate_initial):
        with pytest.raises(GeometryError, match="h0"):
            build(geom, ctx1, profile1, h0)


def test_initial_mesh_regions_split_at_interface(flat_mesh1):
    cy = flat_mesh1.nodes[flat_mesh1.tris].mean(axis=1)[:, 1]
    assert np.all(cy[flat_mesh1.region == 0] < flat_mesh1.b)
    assert np.all(cy[flat_mesh1.region == 1] > flat_mesh1.b)


def test_initial_mesh_sharp_profile(ctx1, profile1):
    geom = sharp_profile(ctx1.period)
    mesh = generate_initial(geom, ctx1, profile1, h0=0.25)
    mesh.validate(geom)
    surf = mesh.nodes[mesh.on_surface]
    assert np.max(np.abs(geom.height(surf[:, 0]) - surf[:, 1])) <= 1e-12


def test_validate_rejects_a_reversed_triangle(ctx1, flat_mesh1):
    tris = flat_mesh1.tris.copy()
    tris[7, [1, 2]] = tris[7, [2, 1]]
    mesh = Mesh(
        flat_mesh1.nodes, tris, flat_mesh1.ref_edge,
        flat_mesh1.period, flat_mesh1.b, flat_mesh1.top,
    )
    with pytest.raises(AssertionError, match="non-CCW or degenerate element"):
        mesh.validate(flat_profile(ctx1.period))


def test_validate_rejects_a_deleted_triangle(ctx1, flat_mesh1):
    # the first element with no vertex on the surface, walls or top
    m = flat_mesh1
    outer = m.on_surface | m.on_top | m.on_left | m.on_right
    keep = np.arange(m.n_tris) != np.nonzero(~outer[m.tris].any(axis=1))[0][0]
    with pytest.raises(AssertionError, match="hanging node"):
        rebuilt(m, keep=keep).validate(flat_profile(ctx1.period))


_VALIDATE_UNDER_O = """
import numpy as np
from gratpml import WaveContext, flat_profile, generate_initial, make_pml
from gratpml.meshing import Mesh

ctx = WaveContext(omega=2 * np.pi, lam=1.0, mu=2.0, theta=np.pi / 6,
                  period=1.0, gamma_height=1.0)
mesh = generate_initial(flat_profile(1.0), ctx, make_pml(12 + 12j, 2, 8.0, b=1.0),
                        h0=0.25)
outer = mesh.on_surface | mesh.on_top | mesh.on_left | mesh.on_right
keep = np.arange(mesh.n_tris) != np.nonzero(~outer[mesh.tris].any(axis=1))[0][0]
cut = Mesh(mesh.nodes, mesh.tris[keep], mesh.ref_edge[keep], mesh.period,
           mesh.b, mesh.top)
print("debug", __debug__)
try:
    cut.validate(flat_profile(1.0))
except AssertionError as exc:
    print("raised", exc)
"""


def test_validate_checks_under_python_optimize():
    # python -O strips assert statements; the mesh checks must still run
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(gratpml.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", _VALIDATE_UNDER_O],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    assert "debug False" in out
    assert "raised hanging node: interior edge with one neighbor" in out


def test_generate_initial_parameter_errors(ctx1, profile1):
    from gratpml import WaveContext, make_pml

    flat = flat_profile(1.0)
    with pytest.raises(GeometryError):
        generate_initial(flat, ctx1, profile1, h0=0.0)
    with pytest.raises(GeometryError):
        generate_initial(flat_profile(2.0), ctx1, profile1, h0=0.25)
    with pytest.raises(GeometryError):
        generate_initial(flat, ctx1, make_pml(12 + 12j, 2, 8.0, b=0.5), h0=0.25)
    # surface reaching the interface line
    low_ctx = WaveContext(
        omega=2 * np.pi, lam=1.0, mu=2.0, theta=0.0, period=1.0, gamma_height=0.4
    )
    with pytest.raises(GeometryError):
        generate_initial(
            sharp_profile(1.0), low_ctx, make_pml(12 + 12j, 2, 8.0, b=0.4), h0=0.25
        )
    # too coarse for even two columns across the period
    with pytest.raises(GeometryError):
        generate_initial(flat, ctx1, profile1, h0=10.0)


def test_edge_structure_invariants(flat_mesh1):
    edges, tri_edges, edge_tri = flat_mesh1.edge_structure()
    # every edge is adjacent to one or two triangles, and edge k of a
    # triangle is opposite local vertex k
    assert np.all(edges[:, 0] < edges[:, 1])
    for t in (0, 57, 133):
        tri = flat_mesh1.tris[t]
        for k in range(3):
            e = edges[tri_edges[t, k]]
            assert tri[k] not in e
            assert set(e) <= set(tri)
    boundary = edge_tri[:, 1] < 0
    nodes = flat_mesh1.nodes
    for e in edges[boundary]:
        x, y = nodes[e].T
        on_walls = np.all(x == 0.0) or np.all(x == flat_mesh1.period)
        on_caps = np.all(y == 0.0) or np.all(y == flat_mesh1.top)
        assert on_walls or on_caps


def _random_bisected(ctx, geom, seed):
    """The initial mesh of ``geom`` bisected three times at random."""
    layer = make_pml(12 + 12j, 2, 1.0, b=ctx.gamma_height)  # a thin layer
    mesh = generate_initial(geom, ctx, layer, h0=0.25)
    rng = np.random.default_rng(seed)
    for _ in range(3):
        marked = rng.choice(mesh.n_tris, size=mesh.n_tris // 5, replace=False)
        mesh, _ = bisect(mesh, marked)
    return mesh


@settings(max_examples=20, deadline=None)
@given(geom=gratings(), seed=st.integers(0, 2**32 - 1))
def test_edge_lengths_are_the_per_edge_norms(ctx1, geom, seed):
    mesh = _random_bisected(ctx1, geom, seed)
    edges, tri_edges, _ = mesh.edge_structure()
    brute = []
    for (xa, ya), (xb, yb) in mesh.nodes[edges].tolist():
        dx, dy = xb - xa, yb - ya
        brute.append(sqrt(dx * dx + dy * dy))
    assert np.array_equal(mesh.edge_lengths, brute)
    assert mesh.edge_lengths is mesh.edge_lengths  # cached with the mesh
    # h_T is the longest edge of T, bit for bit, and so the longest distance
    # between two of its vertices
    assert np.array_equal(mesh.diameters, mesh.edge_lengths[tri_edges].max(axis=1))
    corners = mesh.nodes[mesh.tris]
    sides = np.linalg.norm(corners - np.roll(corners, 1, axis=1), axis=2)
    assert np.array_equal(mesh.diameters, sides.max(axis=1))


@settings(max_examples=20, deadline=None)
@given(geom=gratings(), seed=st.integers(0, 2**32 - 1))
def test_edges_on_a_line_match_a_scan_of_the_end_points(ctx1, geom, seed):
    mesh = _random_bisected(ctx1, geom, seed)
    ends = mesh.nodes[mesh.edge_structure()[0]].tolist()
    for flag, axis, value in (
        (mesh.on_left, 0, 0.0),
        (mesh.on_right, 0, mesh.period),
        (mesh.on_top, 1, mesh.top),
        (mesh.on_gamma, 1, mesh.b),
    ):
        want = [p[axis] == value and q[axis] == value for p, q in ends]
        assert any(want)
        assert np.array_equal(mesh.edges_on(flag), want)


def test_edge_structure_detects_nonmanifold_input():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.5]])
    tris = np.array([[0, 1, 2], [0, 3, 1], [0, 1, 3]])
    mesh = Mesh(nodes, tris, np.zeros(3, np.uint8), 1.0, 1.0, 2.0)
    with pytest.raises(RuntimeError, match="non-manifold"):
        mesh.edge_structure()


# Reference forms of the mesh bookkeeping: np.unique with a stable argsort of
# its inverse, rotated index copies, norms and axis reductions.  Mesh writes
# each quantity per vertex and numbers the edges with one sort; every
# quantity must agree with these bit for bit.


def _edges_reference(mesh: Mesh):
    t = mesh.tris
    pairs = np.sort(
        np.stack([t[:, [1, 2]], t[:, [2, 0]], t[:, [0, 1]]], axis=1).reshape(-1, 2),
        axis=1,
    )
    key = pairs[:, 0] * np.int64(mesh.n_nodes) + pairs[:, 1]
    ukey, inv = np.unique(key, return_inverse=True)
    edges = np.stack([ukey // mesh.n_nodes, ukey % mesh.n_nodes], axis=1)
    counts = np.bincount(inv, minlength=len(ukey))
    if counts.max(initial=0) > 2:
        raise RuntimeError("non-manifold edge detected")
    tri_of = np.argsort(inv, kind="stable") // 3
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    edge_tri = np.full((len(ukey), 2), -1, dtype=np.int64)
    edge_tri[:, 0] = tri_of[starts]
    two = counts == 2
    edge_tri[two, 1] = tri_of[starts[two] + 1]
    return edges, inv.reshape(-1, 3), edge_tri


def _p1_geometry_reference(coords):
    d1 = coords[:, 1] - coords[:, 0]
    d2 = coords[:, 2] - coords[:, 0]
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    nxt, prv = coords[:, [1, 2, 0]], coords[:, [2, 0, 1]]
    grads = np.stack(
        [nxt[..., 1] - prv[..., 1], prv[..., 0] - nxt[..., 0]], axis=2
    ) / det[:, None, None]
    return 0.5 * det, grads


def _derived_reference(mesh: Mesh) -> dict:
    edges, tri_edges, _ = _edges_reference(mesh)
    nodes, n = mesh.nodes, np.int64(mesh.n_nodes)
    lengths = np.linalg.norm(nodes[edges[:, 1]] - nodes[edges[:, 0]], axis=1)
    right_of = np.full(mesh.n_nodes, -1, dtype=np.int64)
    right_of[mesh.periodic_pairs[:, 0]] = mesh.periodic_pairs[:, 1]
    left = np.nonzero(mesh.edges_on(mesh.on_left))[0]
    mirror = np.sort(right_of[edges[left]], axis=1)
    key = edges[:, 0] * n + edges[:, 1]
    right = np.searchsorted(key, mirror[:, 0] * n + mirror[:, 1])
    areas, grads = _p1_geometry_reference(nodes[mesh.tris])
    layer = (nodes[mesh.tris, 1] > mesh.b).any(axis=1)
    return {
        "areas": areas,
        "grads": grads,
        "edge_lengths": lengths,
        "diameters": lengths[tri_edges].max(axis=1),
        "region": np.where(layer, PML, PHYSICAL).astype(np.uint8),
        "edge_partners": np.stack([left, right], axis=1),
    }


def _longest_edge_reference(coords):
    lengths = np.linalg.norm(coords[:, [2, 0, 1]] - coords[:, [1, 2, 0]], axis=2)
    return np.argmax(lengths, axis=1).astype(np.uint8)


def _corner_fraction_reference(mesh: Mesh, points, radius: float) -> float:
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    if len(points) == 0:
        return float("nan")
    centroids = mesh.nodes[mesh.tris].mean(axis=1)
    d = np.linalg.norm(centroids[:, None] - points, axis=2).min(axis=1)
    return float(np.count_nonzero(d <= radius)) / mesh.n_tris


def _assert_same_array(got, want, name):
    assert got.dtype == want.dtype, name
    assert np.array_equal(got, want), name


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_bookkeeping_equals_the_array_form_bit_for_bit(seed, data):
    rng = np.random.default_rng(seed)
    ctx = draw_context(rng, n_max=5)
    geom = data.draw(gratings(ctx.period))
    layer = make_pml(12 + 12j, 2, 1.0, b=ctx.gamma_height)  # a thin layer
    mesh = generate_initial(geom, ctx, layer, h0=0.25)
    coords = mesh.nodes[mesh.tris]
    _assert_same_array(mesh.ref_edge, _longest_edge_reference(coords), "ref_edge")
    for _ in range(data.draw(st.integers(2, 4))):
        mesh, _ = bisect(mesh, mark(rng.random(mesh.n_tris), 0.5))
        for got, want, name in zip(
            mesh.edge_structure(), _edges_reference(mesh),
            ("edges", "tri_edges", "edge_tri"),
        ):
            _assert_same_array(got, want, name)
        for name, want in _derived_reference(mesh).items():
            _assert_same_array(getattr(mesh, name), want, name)
        coords = mesh.nodes[mesh.tris]
        _assert_same_array(
            gratpml.meshing._longest_edge(coords), _longest_edge_reference(coords),
            "longest edge",
        )
        radius = data.draw(st.floats(0.0, 0.5))
        for points in (geom.vertices, geom.reentrant_corners, geom.vertices[1]):
            got = locate_corner_fraction(mesh, points, radius)
            want = _corner_fraction_reference(mesh, points, radius)
            assert got == want or (np.isnan(got) and np.isnan(want)), points
    # a triangle listed twice puts three triangles on each of its interior edges
    doubled = rebuilt(mesh, keep=np.append(np.arange(mesh.n_tris), mesh.n_tris // 2))
    for edge_structure in (doubled.edge_structure, lambda: _edges_reference(doubled)):
        with pytest.raises(RuntimeError, match="non-manifold"):
            edge_structure()


# ---------------------------------------------------------------------------
# bisection
# ---------------------------------------------------------------------------


def _min_angle_deg(mesh: Mesh) -> float:
    p = mesh.nodes[mesh.tris]
    angles = []
    for k in range(3):
        a = p[:, (k + 1) % 3] - p[:, k]
        b = p[:, (k + 2) % 3] - p[:, k]
        cosang = np.sum(a * b, axis=1) / (
            np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
        )
        angles.append(np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0))))
    return float(np.min(angles))


def test_bisect_empty_marking_returns_identical_copy(flat_mesh1):
    out, kept = bisect(flat_mesh1, np.empty(0, dtype=int))
    assert out is not flat_mesh1
    assert np.array_equal(kept, np.arange(flat_mesh1.n_tris))
    for name in (
        "nodes", "tris", "region", "ref_edge", "on_surface", "on_gamma",
        "on_top", "on_left", "on_right", "periodic_pairs",
    ):
        got, want = getattr(out, name), getattr(flat_mesh1, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
        assert not np.shares_memory(got, want), name
    for name in ("period", "b", "top"):
        assert getattr(out, name) == getattr(flat_mesh1, name)


STORED = {"nodes", "tris", "ref_edge", "period", "b", "top"}
DERIVED = (
    "on_left", "on_right", "on_gamma", "on_top", "on_surface", "region",
    "periodic_pairs", "areas", "grads", "edge_lengths", "diameters",
    "edge_partners",
)


def test_derived_attributes_are_computed_once_per_mesh(monkeypatch, flat_mesh1):
    calls = []
    geometry = gratpml.meshing.p1_geometry

    def counting(coords):
        calls.append(len(coords))
        return geometry(coords)

    monkeypatch.setattr(gratpml.meshing, "p1_geometry", counting)
    child, _ = bisect(flat_mesh1, [0])
    assert vars(child).keys() == STORED  # a child derives nothing up front
    for name in DERIVED:
        assert getattr(child, name) is getattr(child, name), name
    # areas and grads come from one shared p1_geometry call
    assert len(calls) == 1
    first, again = child.edge_structure(), child.edge_structure()
    assert all(a is b for a, b in zip(first, again))
    assert STORED < vars(child).keys()


def test_bisect_single_element_stays_conforming(ctx1, flat_mesh1):
    out, _ = bisect(flat_mesh1, [0])
    assert out.n_tris > flat_mesh1.n_tris
    out.validate(flat_profile(ctx1.period))


def test_bisect_rejects_out_of_range_marking(flat_mesh1):
    with pytest.raises(IndexError):
        bisect(flat_mesh1, [flat_mesh1.n_tris])


def test_bisect_rejects_a_boolean_mask(ctx1, profile1):
    # read as indices, a mask of the last three elements would refine
    # elements 0 and 1 and leave element 71 alone
    mesh = generate_initial(flat_profile(1.0), ctx1, profile1, h0=0.5)
    assert mesh.n_tris == 72
    mask = np.arange(mesh.n_tris) >= 69
    with pytest.raises(ValueError, match=r"np\.nonzero\(mask\)\[0\]"):
        bisect(mesh, mask)
    with pytest.raises(ValueError, match="boolean mask"):
        bisect(mesh, mask.tolist())
    _, kept = bisect(mesh, np.nonzero(mask)[0])
    assert 71 not in kept and 0 in kept
    # an empty list is no mask: still an identical copy
    same, kept = bisect(mesh, [])
    assert same is not mesh and np.array_equal(same.tris, mesh.tris)
    assert np.array_equal(kept, np.arange(mesh.n_tris))


@pytest.mark.parametrize("builder", [flat_profile, sharp_profile])
def test_random_refinement_stays_conforming_and_shape_regular(
    ctx1, profile1, builder
):
    geom = builder(ctx1.period)
    mesh = generate_initial(geom, ctx1, profile1, h0=0.25)
    floor = 0.4 * _min_angle_deg(mesh)
    rng = np.random.default_rng(42)
    for _ in range(6):
        marked = rng.choice(
            mesh.n_tris, size=max(1, mesh.n_tris // 10), replace=False
        )
        mesh, _ = bisect(mesh, marked)
        mesh.validate(geom)
        assert _min_angle_deg(mesh) >= floor
    # surface nodes stay on the surface polyline
    surf = mesh.nodes[mesh.on_surface]
    assert np.max(np.abs(geom.height(surf[:, 0]) - surf[:, 1])) <= 1e-12
    # mirrored boundary traces survive repeated refinement
    left, right = mesh.periodic_pairs.T
    assert np.all(mesh.nodes[left, 0] == 0.0)
    assert np.all(mesh.nodes[right, 0] == ctx1.period)
    assert np.all(mesh.nodes[left, 1] == mesh.nodes[right, 1])


def test_refining_across_period_boundary_keeps_pairing(ctx1, flat_mesh1):
    # repeatedly mark only elements touching the left wall; once wall edges
    # start splitting, the closure must mirror the splits onto the right wall
    mesh = flat_mesh1
    for _ in range(3):
        touches_left = mesh.on_left[mesh.tris].any(axis=1)
        mesh, _ = bisect(mesh, np.nonzero(touches_left)[0])
        mesh.validate(flat_profile(ctx1.period))
    assert mesh.periodic_pairs.shape[0] > flat_mesh1.periodic_pairs.shape[0]
    # right wall refined in lockstep although only left elements were marked
    assert np.count_nonzero(mesh.on_right) == np.count_nonzero(mesh.on_left)


# ---------------------------------------------------------------------------
# bisection against the sequential reference
# ---------------------------------------------------------------------------


# Labels a mesh derives from its coordinates, carried here the way bisection
# used to carry them: set from the grid indices of the initial mesh, then
# passed to midpoints by conjunction, to children from their parent, and to
# the midpoints of paired wall edges as new pairs.
NODE_FLAGS = ("on_surface", "on_gamma", "on_top", "on_left", "on_right")


def _grid_labels(mesh: Mesh, geom: GratingProfile, delta: float, h0: float) -> dict:
    """Labels of a ``generate_initial`` mesh, from its grid indices alone.

    Nodes are numbered column by column, bottom to top; row k1 is the
    interface y = b and the last row the truncation line.
    """
    k1 = max(1, ceil((mesh.b - geom.min_height) / h0))
    rows = k1 + max(1, ceil(delta / h0)) + 1
    col, row = np.divmod(np.arange(mesh.n_nodes), rows)
    nx = mesh.n_nodes // rows - 1
    quad_row = row[mesh.tris].min(axis=1)
    return {
        "on_surface": row == 0,
        "on_gamma": row == k1,
        "on_top": row == rows - 1,
        "on_left": col == 0,
        "on_right": col == nx,
        "region": np.where(quad_row < k1, PHYSICAL, PML).astype(np.uint8),
        "periodic_pairs": np.stack(
            [np.arange(rows), nx * rows + np.arange(rows)], axis=1
        ),
    }


def _assert_labels(mesh: Mesh, labels: dict) -> None:
    """The derived flags, regions and pairs equal the carried ones."""
    for name in NODE_FLAGS + ("region",):
        got = getattr(mesh, name)
        assert got.dtype == labels[name].dtype, name
        assert np.array_equal(got, labels[name]), name
    got, want = mesh.periodic_pairs, labels["periodic_pairs"]
    assert np.array_equal(
        got[np.argsort(got[:, 0])], want[np.argsort(want[:, 0])]
    ), "periodic_pairs"
    assert np.all(mesh.nodes[got[:, 0], 1] == mesh.nodes[got[:, 1], 1])


def _edge_partners_reference(mesh: Mesh, pairs, on_left) -> np.ndarray:
    """Mirror edge id of each left/right boundary edge (-1 elsewhere), by dict."""
    edges = mesh.edge_structure()[0]
    n = mesh.n_nodes
    right_of = np.full(n, -1, dtype=np.int64)
    right_of[pairs[:, 0]] = pairs[:, 1]
    lookup = {int(a) * n + int(b): i for i, (a, b) in enumerate(edges)}
    partner = np.full(len(edges), -1, dtype=np.int64)
    left_mask = on_left[edges[:, 0]] & on_left[edges[:, 1]]
    for e in np.nonzero(left_mask)[0]:
        a, bb = right_of[edges[e, 0]], right_of[edges[e, 1]]
        if a < 0 or bb < 0:
            raise RuntimeError("unpaired node on the left boundary")
        pe = lookup.get(int(min(a, bb)) * n + int(max(a, bb)))
        if pe is None:
            raise RuntimeError("left boundary edge without mirrored right edge")
        partner[e] = pe
        partner[pe] = e
    return partner


def _bisect_reference(mesh: Mesh, labels: dict, marked) -> tuple[Mesh, dict]:
    """Newest-vertex bisection emitting the children triangle by triangle.

    Returns the refined mesh and its labels, carried from ``labels``.
    """
    marked = np.unique(np.asarray(marked, dtype=np.int64))
    edges, tri_edges, _ = mesh.edge_structure()
    partner = _edge_partners_reference(
        mesh, labels["periodic_pairs"], labels["on_left"]
    )
    split = np.zeros(len(edges), dtype=bool)
    split[tri_edges[marked, mesh.ref_edge[marked]]] = True
    while True:
        before = int(split.sum())
        split[partner[split & (partner >= 0)]] = True
        touched = np.nonzero(split[tri_edges].any(axis=1))[0]
        split[tri_edges[touched, mesh.ref_edge[touched]]] = True
        if int(split.sum()) == before:
            break

    eids = np.nonzero(split)[0]
    mid = np.full(len(edges), -1, dtype=np.int64)
    mid[eids] = mesh.n_nodes + np.arange(eids.size)
    ends = edges[eids]
    nodes = np.vstack([mesh.nodes, 0.5 * (mesh.nodes[ends[:, 0]] + mesh.nodes[ends[:, 1]])])

    carried = {
        name: np.concatenate(
            [labels[name], labels[name][ends[:, 0]] & labels[name][ends[:, 1]]]
        )
        for name in NODE_FLAGS
    }
    left_split = eids[(partner[eids] >= 0) & labels["on_left"][ends[:, 0]]]
    carried["periodic_pairs"] = np.vstack([
        labels["periodic_pairs"],
        np.stack([mid[left_split], mid[partner[left_split]]], axis=1),
    ])

    affected = split[tri_edges].any(axis=1)
    tris = [tuple(t) for t in mesh.tris[~affected]]
    ref = list(mesh.ref_edge[~affected])
    region = list(labels["region"][~affected])
    for t in np.nonzero(affected)[0]:
        re = int(mesh.ref_edge[t])
        order = (re, (re + 1) % 3, (re + 2) % 3)
        v0, v1, v2 = (int(mesh.tris[t, o]) for o in order)
        m0, m1, m2 = (int(mid[tri_edges[t, o]]) for o in order)
        assert m0 >= 0, "closure failed: refinement edge not split"
        if m2 >= 0:
            kids = [((m0, v0, m2), 2), ((m0, m2, v1), 1)]
        else:
            kids = [((v0, v1, m0), 2)]
        if m1 >= 0:
            kids += [((m0, v2, m1), 2), ((m0, m1, v0), 1)]
        else:
            kids += [((v0, m0, v2), 1)]
        for tri, r in kids:
            tris.append(tri)
            ref.append(r)
            region.append(labels["region"][t])
    carried["region"] = np.array(region, dtype=np.uint8)
    refined = Mesh(
        nodes, np.array(tris, dtype=np.int64), np.array(ref, dtype=np.uint8),
        mesh.period, mesh.b, mesh.top,
    )
    return refined, carried


def _refine_against_reference(mesh, labels, geom, data, rounds):
    """Bisect ``rounds`` random markings, checking each round on the way."""
    _assert_labels(mesh, labels)
    for _ in range(rounds):
        marked = data.draw(
            st.lists(
                st.integers(0, mesh.n_tris - 1), min_size=1,
                max_size=max(1, mesh.n_tris // 5),
            )
        )
        want, labels = _bisect_reference(mesh, labels, marked)
        got, _ = bisect(mesh, marked)
        for name in ("nodes", "tris", "ref_edge"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        got.validate(geom)
        _assert_labels(got, labels)
        mesh = got
    return mesh


@pytest.mark.parametrize("builder", [flat_profile, sharp_profile])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_bisect_matches_sequential_reference(ctx1, profile1, builder, data):
    geom = builder(ctx1.period)
    mesh = generate_initial(geom, ctx1, profile1, h0=0.25)
    labels = _grid_labels(mesh, geom, profile1.delta, 0.25)
    _refine_against_reference(mesh, labels, geom, data, rounds=4)


@settings(max_examples=40, deadline=None)
@given(geom=gratings(), data=st.data())
def test_random_gratings_derive_what_bisection_used_to_carry(ctx1, geom, data):
    # a thin layer keeps the meshes small; the layer plays no part here
    layer = make_pml(12 + 12j, 2, 1.0, b=ctx1.gamma_height)
    mesh = generate_initial(geom, ctx1, layer, h0=0.25)
    mesh.validate(geom)
    labels = _grid_labels(mesh, geom, layer.delta, 0.25)
    _refine_against_reference(
        mesh, labels, geom, data, rounds=data.draw(st.integers(3, 4))
    )


@pytest.mark.parametrize("builder", [flat_profile, sharp_profile])
def test_edge_partners_match_dict_reference(ctx1, profile1, builder):
    mesh = generate_initial(builder(ctx1.period), ctx1, profile1, h0=0.25)
    rng = np.random.default_rng(3)
    for _ in range(4):
        touches_wall = (mesh.on_left | mesh.on_right)[mesh.tris].any(axis=1)
        wall = np.nonzero(touches_wall)[0]
        mesh, _ = bisect(
            mesh, rng.choice(wall, size=wall.size // 2, replace=False)
        )
        partner = _edge_partners_reference(mesh, mesh.periodic_pairs, mesh.on_left)
        edges = mesh.edge_structure()[0]
        left = np.nonzero((partner >= 0) & mesh.on_left[edges[:, 0]])[0]
        pairs = mesh.edge_partners
        assert np.array_equal(pairs, np.stack([left, partner[left]], axis=1))
        assert mesh.edge_partners is pairs  # cached with the mesh


def test_edge_partners_report_broken_pairing(flat_mesh1):
    # a right wall node off the height of every left wall node: the walls
    # cannot be paired
    right = np.nonzero(flat_mesh1.on_right)[0]
    nodes = flat_mesh1.nodes.copy()
    nodes[right[len(right) // 2], 1] += 0.01
    with pytest.raises(RuntimeError, match="periodic walls do not match"):
        rebuilt(flat_mesh1, nodes=nodes).edge_partners

    # the walls pair up, but a triangle on the right wall is gone, and with
    # it the mirror image of a left wall edge
    edges, tri_edges, _ = flat_mesh1.edge_structure()
    on_right = flat_mesh1.on_right
    wall_edge = on_right[edges[:, 0]] & on_right[edges[:, 1]]
    gone = np.nonzero(wall_edge[tri_edges].any(axis=1))[0][5]
    cut = rebuilt(flat_mesh1, keep=np.arange(flat_mesh1.n_tris) != gone)
    assert cut.periodic_pairs.shape == flat_mesh1.periodic_pairs.shape
    with pytest.raises(
        RuntimeError, match="left boundary edge without mirrored right edge"
    ):
        cut.edge_partners


# ---------------------------------------------------------------------------
# marking
# ---------------------------------------------------------------------------


def test_mark_hand_traces():
    assert mark(np.array([3.0, 2.0, 1.0, 1.0]), tau=np.sqrt(0.5)).tolist() == [0]
    assert mark(np.array([1.0, 1.0, 1.0, 1.0]), tau=0.5).tolist() == [0, 1]
    assert mark(np.array([0.0, 0.0]), tau=0.5).size == 0
    assert mark(np.array([0.0, 2.0, 0.0]), tau=0.1).tolist() == [1]


def test_mark_rejects_invalid_indicators():
    with pytest.raises(ValueError):
        mark(np.array([1.0, -0.5]))
    with pytest.raises(ValueError):
        mark(np.array([1.0, float("nan")]))
    with pytest.raises(ValueError):
        mark(np.array([1.0, float("inf")]))


@pytest.mark.parametrize("tau", [float("nan"), -0.5, 1.5])
def test_mark_rejects_a_bulk_parameter_outside_the_unit_interval(tau):
    with pytest.raises(ValueError, match=r"tau must lie in \[0, 1\]"):
        mark(np.array([3.0, 2.0, 1.0, 0.5]), tau)


def test_mark_accepts_the_ends_of_the_unit_interval():
    eta = np.array([3.0, 2.0, 1.0, 0.5])
    assert mark(eta, 0.0).tolist() == [0]
    assert mark(eta, 1.0).tolist() == [0, 1, 2, 3]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=40),
    st.floats(min_value=0.05, max_value=0.95),
)
def test_mark_selects_minimal_bulk_prefix(values, tau):
    eta = np.array(values, dtype=float)
    total = float(np.sum(eta**2))
    marked = mark(eta, tau)
    if total == 0.0:
        assert marked.size == 0
        return
    got = float(np.sum(eta[marked] ** 2))
    assert got > tau * tau * total or marked.size == eta.size
    # dropping the weakest marked element must break the bulk property
    weakest = float(np.min(eta[marked] ** 2))
    assert got - weakest <= tau * tau * total


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=60),
    st.floats(min_value=0.05, max_value=0.95),
)
def test_mark_is_the_doerfler_prefix_with_ties_by_index(values, tau):
    # integer indicators tie often and sum exactly in any order
    eta2 = [float(v) ** 2 for v in values]
    total = sum(eta2)
    want = []
    if total > 0.0:
        order = sorted(range(len(eta2)), key=lambda i: (-eta2[i], i))
        acc = 0.0
        for k, i in enumerate(order):
            acc += eta2[i]
            if acc > tau * tau * total:
                break
        want = sorted(order[: k + 1])
    assert mark(np.array(values, dtype=float), tau).tolist() == want


# ---------------------------------------------------------------------------
# diagnostics and output
# ---------------------------------------------------------------------------


def test_corner_fraction_limits(flat_mesh1):
    assert locate_corner_fraction(flat_mesh1, (0.5, 1.0), radius=100.0) == 1.0
    assert locate_corner_fraction(flat_mesh1, (-50.0, -50.0), radius=0.1) == 0.0
    assert np.isnan(locate_corner_fraction(flat_mesh1, np.empty((0, 2)), 0.1))
    with pytest.raises(ValueError):
        locate_corner_fraction(flat_mesh1, (0.0, 0.0), radius=-1.0)


@pytest.mark.parametrize("radius", [float("nan"), -float("inf"), -1e-300])
def test_corner_fraction_rejects_a_radius_not_at_least_zero(flat_mesh1, radius):
    with pytest.raises(ValueError, match="radius must be >= 0"):
        locate_corner_fraction(flat_mesh1, (0.5, 0.5), radius)


def test_corner_fraction_counts_both_images_of_a_seam_peak(ctx1, profile1):
    geom = GratingProfile(SEAM_PEAK)
    mesh = generate_initial(geom, ctx1, profile1, h0=0.25)
    near = 0
    for tri in mesh.tris:
        c = mesh.nodes[tri].mean(axis=0)
        near += any(np.hypot(*(c - p)) <= 0.1 for p in ((0.0, 0.5), (1.0, 0.5)))
    reference = near / mesh.n_tris
    assert reference > 0.0
    assert locate_corner_fraction(mesh, geom.reentrant_corners, 0.1) == reference
    # one image alone sees half of the disk
    assert locate_corner_fraction(mesh, (0.0, 0.5), 0.1) == reference / 2


def test_vtk_output_is_parseable(tmp_path, flat_mesh1):
    path = tmp_path / "mesh.vtk"
    field = np.exp(1j * flat_mesh1.nodes[:, 0])
    write_vtk(
        flat_mesh1,
        path,
        point_data={"u1": field},
        cell_data={"region": flat_mesh1.region},
    )
    text = path.read_text(encoding="ascii").splitlines()
    assert text[0].startswith("# vtk DataFile")
    assert f"POINTS {flat_mesh1.n_nodes} double" in text
    assert f"CELLS {flat_mesh1.n_tris} {4 * flat_mesh1.n_tris}" in text
    assert f"POINT_DATA {flat_mesh1.n_nodes}" in text
    assert f"CELL_DATA {flat_mesh1.n_tris}" in text
    # complex data split into real and imaginary scalars
    assert "SCALARS u1_re double 1" in text
    assert "SCALARS u1_im double 1" in text
    assert "SCALARS region double 1" in text
    # coordinates round-trip at full precision
    first = text[text.index(f"POINTS {flat_mesh1.n_nodes} double") + 1]
    x, y, z = (float(v) for v in first.split())
    assert (x, y, z) == (flat_mesh1.nodes[0, 0], flat_mesh1.nodes[0, 1], 0.0)


@pytest.mark.parametrize(
    "point_data, cell_data",
    [
        ({"u": np.zeros(3)}, None),
        ({"u": np.zeros((57, 2))}, None),
        (None, {"region": np.zeros(57)}),
        ({"u": np.zeros(57)}, {"eta": np.zeros(73, dtype=complex)}),
    ],
    ids=["short-point", "point-columns", "cell-per-node", "long-cell"],
)
def test_vtk_rejects_data_of_the_wrong_length(ctx1, profile1, tmp_path,
                                             point_data, cell_data):
    mesh = generate_initial(flat_profile(1.0), ctx1, profile1, h0=0.5)
    assert (mesh.n_nodes, mesh.n_tris) == (57, 72)
    path = tmp_path / "mesh.vtk"
    with pytest.raises(ValueError, match="has shape"):
        write_vtk(mesh, path, point_data=point_data, cell_data=cell_data)
    assert not path.exists()
    # the same call with one value per node and per element writes the file
    write_vtk(mesh, path, point_data={"u": np.zeros(57)},
              cell_data={"eta": np.zeros(72, dtype=complex)})
    lines = path.read_text(encoding="ascii").splitlines()
    assert lines.count("LOOKUP_TABLE default") == 3
