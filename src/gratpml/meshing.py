"""Periodic grating meshes: generation, conforming bisection, marking.

The computational domain is one period of the strip between the grating
surface y = s(x) (a piecewise-linear function graph) and the truncation line
y = b + delta on top of the PML.  The initial mesh is structured:

* x-breakpoints are the profile vertices, each segment subdivided so no
  surface edge exceeds the target size h0;
* below the interface y = b every column carries the same graded parameter
  t_k = k/K1 (so y = s_i + t_k*(b - s_i)), which makes y = b an exact mesh
  line and keeps the left/right boundary discretizations mirror images;
* the layer b < y < b + delta is meshed uniformly with the same rows in
  every column.

Each quad is split along the south-west/north-east diagonal into two
counter-clockwise triangles.  Every triangle stores a *refinement edge*
(local index; edge k is the edge opposite local vertex k).  Refinement is
newest-vertex bisection: a triangle is cut along its refinement edge, the
two children adopt the remaining original edges as their refinement edges,
and marked sets are closed recursively so the result is conforming (no
hanging nodes).  Edges on the left boundary are paired with their mirror
images on the right; the closure propagates splits across pairs, so the two
traces stay mirror images forever and quasi-periodic constraints remain
exact.

A ``Mesh`` stores only what bisection must carry: nodes, triangles and
refinement edges.  Boundary flags, element regions, periodic pairs and the
geometry are derived from those once per mesh, each in one place (see
``Mesh``): one sort of the half-edge keys numbers the edges, edge lengths
are ``Mesh.edge_lengths`` and the edges on a line ``Mesh.edges_on``.

Marking uses the bulk (Dörfler) criterion on squared indicators: sort
descending, take the smallest prefix whose squared sum exceeds tau^2 times
the total, break ties by lower element index.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from math import ceil, hypot

import numpy as np

from .pml import PmlProfile
from .waves import WaveContext

__all__ = [
    "GeometryError",
    "GratingProfile",
    "Mesh",
    "flat_profile",
    "sharp_profile",
    "load_profile",
    "generate_initial",
    "initial_dofs",
    "bisect",
    "mark",
    "locate_corner_fraction",
    "write_vtk",
]

#: region labels
PHYSICAL = 0
PML = 1


class GeometryError(ValueError):
    """Invalid grating geometry or incompatible mesh parameters."""


@dataclass(frozen=True)
class GratingProfile:
    """Piecewise-linear grating surface over one period.

    ``vertices`` is an (K, 2) array with strictly increasing x, x[0] = 0,
    and matching heights at both ends (the profile continues periodically).
    Its peaks, ``reentrant_corners``, are the points an adaptive run tracks.
    """

    vertices: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 2:
            raise GeometryError("profile needs an (K>=2, 2) vertex array")
        if not np.all(np.isfinite(v)):
            raise GeometryError("profile vertices must be finite")
        if v[0, 0] != 0.0:
            raise GeometryError(f"profile must start at x = 0, got {v[0, 0]}")
        if not np.all(np.diff(v[:, 0]) > 0.0):
            raise GeometryError(
                "profile x-coordinates must increase strictly "
                "(the surface must be a function graph)"
            )
        scale = max(1.0, float(np.abs(v).max()))
        if abs(v[-1, 1] - v[0, 1]) > 1e-12 * scale:
            raise GeometryError(
                f"profile heights at x = 0 and x = period differ: "
                f"{v[0, 1]} vs {v[-1, 1]}"
            )
        v = v.copy()
        v[-1, 1] = v[0, 1]  # snap: exact periodic closure
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)

    @property
    def period(self) -> float:
        return float(self.vertices[-1, 0] - self.vertices[0, 0])

    @property
    def max_height(self) -> float:
        return float(self.vertices[:, 1].max())

    @property
    def min_height(self) -> float:
        return float(self.vertices[:, 1].min())

    def height(self, x: np.ndarray) -> np.ndarray:
        """Surface height s(x) (no periodic wrapping; x in [0, period])."""
        return np.interp(np.asarray(x, dtype=float), self.vertices[:, 0], self.vertices[:, 1])

    @property
    def is_flat_at_zero(self) -> bool:
        """True when the surface is exactly the line y = 0."""
        return bool(np.all(self.vertices[:, 1] == 0.0))

    @property
    def reentrant_corners(self) -> np.ndarray:
        """(K, 2) vertices where the surface turns clockwise: the peaks, where
        the medium above sees an angle > pi.  Collinear points are no corners;
        a peak on the seam is listed at x = 0 and at x = period."""
        v = self.vertices
        seg = np.diff(v, axis=0)
        before = np.roll(seg, 1, axis=0)  # the segment into vertex i
        turn = before[:, 0] * seg[:, 1] - before[:, 1] * seg[:, 0]
        size = np.linalg.norm(before, axis=1) * np.linalg.norm(seg, axis=1)
        peak = turn < -1e-12 * size
        # vertex 0 is the seam: a peak there comes again at x = period
        return np.concatenate([v[:-1][peak], v[-1:][peak[:1]]])


def flat_profile(period: float) -> GratingProfile:
    """Flat grating at height 0."""
    return GratingProfile(np.array([[0.0, 0.0], [float(period), 0.0]]))


def sharp_profile(period: float) -> GratingProfile:
    """Sawtooth with 45-degree flanks and a reentrant 270-degree tip."""
    p = float(period)
    return GratingProfile(np.array([[0.0, 0.0], [p / 2.0, p / 2.0], [p, 0.0]]))


def load_profile(path) -> GratingProfile:
    """Read a two-column (x, y) text file ('#' comments) into a profile."""
    try:
        with warnings.catch_warnings():
            # a file without points is reported below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(path, comments="#", ndmin=2)
    except (OSError, ValueError) as exc:
        raise GeometryError(f"cannot read profile file {path!r}: {exc}") from exc
    if data.size == 0:
        raise GeometryError(f"profile file {path!r} holds no points")
    if data.shape[1] != 2:
        raise GeometryError(
            f"profile file {path!r} must have two columns, got {data.shape[1]}"
        )
    return GratingProfile(data)


def p1_geometry(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signed areas (M,) and P1 basis gradients (M, 3, 2) of triangles.

    ``coords`` (M, 3, 2) holds the vertices, counter-clockwise for a
    positive area; grads[t, i] = grad(phi_i) on triangle t.
    """
    (x0, y0), (x1, y1), (x2, y2) = coords.transpose(1, 2, 0)
    det = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)
    # grad(phi_i) = (y_j - y_k, x_k - x_j) / det with j = i + 1, k = i + 2
    grads = np.stack(
        [y1 - y2, x2 - x1, y2 - y0, x0 - x2, y0 - y1, x1 - x0], axis=1
    ).reshape(-1, 3, 2) / det[:, None, None]
    return 0.5 * det, grads


def p1_jacobian(vals: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """Constant per-element Jacobian J[t, c, d] = d_d u_c of a P1 field.

    ``vals`` (M, 3, C) holds the vertex values, ``grads`` (M, 3, 2) the
    basis gradients of the same elements.
    """
    return (
        vals[:, 0, :, None] * grads[:, 0, None, :]
        + vals[:, 1, :, None] * grads[:, 1, None, :]
        + vals[:, 2, :, None] * grads[:, 2, None, :]
    )


class Mesh:
    """Triangulation of one period with refinement-edge bookkeeping.

    Stored attributes
    -----------------
    nodes : ndarray (N, 2) float
    tris : ndarray (M, 3) int
        Counter-clockwise vertex triples.
    ref_edge : ndarray (M,) uint8
        Local index of the refinement edge (edge k is opposite vertex k).
    period, b, top : float
        The right wall x = period, the interface y = b and the truncation
        line y = top.

    Derived attributes (computed from the stored ones on first read)
    ----------------------------------------------------------------
    on_left, on_right, on_gamma, on_top : ndarray (N,) bool
        x == 0, x == period, y == b, y == top.  Exact: ``generate_initial``
        writes these lines exactly, and the midpoint 0.5 * (p + q) of two
        nodes on one of them lies exactly on it.
    on_surface : ndarray (N,) bool
        Nodes of the boundary edges on neither wall nor the top line.
    region : ndarray (M,) uint8
        ``PML`` where a vertex has y > b, else ``PHYSICAL`` (y = b is a mesh line).
    periodic_pairs : ndarray (P, 2) int
        Rows (left node, right node) of the wall nodes matched by height,
        ascending; RuntimeError when the heights on the two walls differ.
    areas : ndarray (M,) float
        Element areas (positive for the stored CCW orientation).
    grads : ndarray (M, 3, 2) float
        P1 basis gradients: grads[t, i] = grad(phi_i).
    edge_lengths : ndarray (E,) float
        Length of each edge of ``edge_structure()``.
    diameters : ndarray (M,) float
        Longest edge length per element (the mesh-size h_T).
    edge_partners : ndarray (Q, 2) int
        Rows (left boundary edge id, id of its mirror edge on the right),
        ascending in the left edge id; RuntimeError when the walls do not
        match or a left edge has no mirror edge.

    Each is a ``functools.cached_property``: computed on first read and then
    kept in the instance ``__dict__``.  ``edge_structure()`` returns the edge
    triple kept the same way, and ``edges_on(flag)`` selects the edges of a
    line.  Only geometry and topology are derived here, nothing of the
    physics.
    """

    def __init__(
        self,
        nodes: np.ndarray,
        tris: np.ndarray,
        ref_edge: np.ndarray,
        period: float,
        b: float,
        top: float,
    ) -> None:
        self.nodes = np.asarray(nodes, dtype=float)
        self.tris = np.asarray(tris, dtype=np.int64)
        self.ref_edge = np.asarray(ref_edge, dtype=np.uint8)
        self.period = float(period)
        self.b = float(b)
        self.top = float(top)

    # -- sizes ---------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_tris(self) -> int:
        return self.tris.shape[0]

    # -- boundary lines, regions, periodic pairs -------------------------

    @cached_property
    def on_left(self) -> np.ndarray:
        return self.nodes[:, 0] == 0.0

    @cached_property
    def on_right(self) -> np.ndarray:
        return self.nodes[:, 0] == self.period

    @cached_property
    def on_gamma(self) -> np.ndarray:
        return self.nodes[:, 1] == self.b

    @cached_property
    def on_top(self) -> np.ndarray:
        return self.nodes[:, 1] == self.top

    def edges_on(self, on_line: np.ndarray) -> np.ndarray:
        """Per edge: True when both its nodes are flagged in ``on_line`` (N,)."""
        a, c = self.edge_structure()[0].T
        return on_line[a] & on_line[c]

    def _on_walls_or_top(self) -> np.ndarray:
        """Per edge: True on a wall or on the top line.  Not kept: ``on_surface``
        reads it once per mesh, ``validate`` only in checks."""
        on = self.edges_on
        return on(self.on_left) | on(self.on_right) | on(self.on_top)

    @cached_property
    def on_surface(self) -> np.ndarray:
        edges, _, edge_tri = self.edge_structure()
        flag = np.zeros(self.n_nodes, dtype=bool)
        flag[edges[(edge_tri[:, 1] < 0) & ~self._on_walls_or_top()]] = True
        return flag

    @cached_property
    def region(self) -> np.ndarray:
        a0, a1, a2 = (self.nodes[:, 1] > self.b)[self.tris.T]
        return np.where(a0 | a1 | a2, PML, PHYSICAL).astype(np.uint8)

    @cached_property
    def periodic_pairs(self) -> np.ndarray:
        y = self.nodes[:, 1]
        left, right = (
            np.nonzero(wall)[0][np.argsort(y[wall], kind="stable")]
            for wall in (self.on_left, self.on_right)
        )
        if left.size != right.size or np.any(y[left] != y[right]):
            raise RuntimeError(
                "periodic walls do not match: the heights of the "
                f"{left.size} left and {right.size} right wall nodes differ"
            )
        return np.stack([left, right], axis=1)

    # -- geometry ------------------------------------------------------

    @cached_property
    def _p1(self) -> tuple[np.ndarray, np.ndarray]:
        return p1_geometry(self.nodes[self.tris])

    @cached_property
    def areas(self) -> np.ndarray:
        return self._p1[0]

    @cached_property
    def grads(self) -> np.ndarray:
        return self._p1[1]

    @cached_property
    def edge_lengths(self) -> np.ndarray:
        (xa, ya), (xc, yc) = self.nodes[self.edge_structure()[0]].transpose(1, 2, 0)
        return np.sqrt((xc - xa) ** 2 + (yc - ya) ** 2)

    @cached_property
    def diameters(self) -> np.ndarray:
        l0, l1, l2 = self.edge_lengths[self.edge_structure()[1].T]
        return np.maximum(np.maximum(l0, l1), l2)

    @cached_property
    def _edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # half-edge 3t + k is the edge of triangle t opposite vertex k
        a, c = self.tris[:, [1, 2, 0]].ravel(), self.tris[:, [2, 0, 1]].ravel()
        n = np.int64(self.n_nodes)
        key = np.minimum(a, c) * n + np.maximum(a, c)
        order = np.argsort(key)  # the one sort: edges numbered by ascending key
        new = np.diff(key[order], prepend=-1) != 0  # first half-edge of an edge
        first = np.flatnonzero(new)
        last = np.append(first, key.size)[1:] - 1
        if np.any(last - first > 1):
            raise RuntimeError("non-manifold edge detected")
        tri_edges = np.empty_like(order)
        tri_edges[order] = np.cumsum(new) - 1
        # an edge's triangles ascending, whatever order its equal keys sorted in
        t_a, t_b = order[first] // 3, order[last] // 3
        lo, hi = np.minimum(t_a, t_b), np.maximum(t_a, t_b)
        edges = np.stack(np.divmod(key[order[first]], n), axis=1)
        edge_tri = np.stack([lo, np.where(last > first, hi, -1)], axis=1)
        return edges, tri_edges.reshape(-1, 3), edge_tri

    def edge_structure(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Unique edges, per-triangle edge ids, edge-to-triangle adjacency.

        Returns
        -------
        edges : ndarray (E, 2) int
            Node pairs, sorted within each row.
        tri_edges : ndarray (M, 3) int
            tri_edges[t, k] is the edge id opposite local vertex k.
        edge_tri : ndarray (E, 2) int
            Adjacent triangle ids, ascending; -1 for a boundary edge's missing side.
        """
        return self._edges

    @cached_property
    def edge_partners(self) -> np.ndarray:
        edges = self.edge_structure()[0]
        n = np.int64(self.n_nodes)
        right_of = np.full(self.n_nodes, -1, dtype=np.int64)
        right_of[self.periodic_pairs[:, 0]] = self.periodic_pairs[:, 1]
        left = np.nonzero(self.edges_on(self.on_left))[0]
        a, c = right_of[edges[left]].T
        # edge_structure returns the edges sorted by this key
        key = edges[:, 0] * n + edges[:, 1]
        want = np.minimum(a, c) * n + np.maximum(a, c)
        right = np.searchsorted(key, want).clip(max=len(key) - 1)
        if np.any(key[right] != want):
            raise RuntimeError("left boundary edge without mirrored right edge")
        return np.stack([left, right], axis=1)

    # -- integrity (used by the tests and `mesh-info`) ------------------

    def validate(self, geom: GratingProfile) -> None:
        """Raise AssertionError on a degenerate element or a hanging node.

        Raised explicitly, so the checks also run under ``python -O``.
        """
        if not np.all(self.areas > 0.0):
            raise AssertionError("non-CCW or degenerate element")
        edges, _, edge_tri = self.edge_structure()
        boundary = edge_tri[:, 1] < 0
        mid = 0.5 * (self.nodes[edges[:, 0]] + self.nodes[edges[:, 1]])
        ok = self._on_walls_or_top()
        ok |= np.abs(geom.height(mid[:, 0]) - mid[:, 1]) <= 1e-9 * max(1.0, self.top)
        if not np.all(ok[boundary]):
            raise AssertionError("hanging node: interior edge with one neighbor")


def _grid_shape(
    geom: GratingProfile, ctx: WaveContext, pml_profile: PmlProfile, h0: float
) -> tuple[list[int], int, int]:
    """Check the arguments of :func:`generate_initial` and size its grid
    without building it: the columns on each profile segment (nx in all),
    and the rows of quads k1 below y = b and k2 in the layer."""
    if h0 <= 0.0:
        raise GeometryError(f"h0 must be positive, got {h0}")
    if abs(geom.period - ctx.period) > 1e-12 * max(1.0, ctx.period):
        raise GeometryError(
            f"profile period {geom.period} != context period {ctx.period}"
        )
    b = ctx.gamma_height
    if abs(pml_profile.b - b) > 1e-12 * max(1.0, abs(b)):
        raise GeometryError(
            f"pml profile starts at {pml_profile.b}, context has b = {b}"
        )
    if geom.max_height >= b:
        raise GeometryError(
            f"surface reaches height {geom.max_height} >= gamma_height {b}"
        )
    verts = geom.vertices
    nseg = [max(1, ceil(hypot(*(q - p)) / h0))
            for p, q in zip(verts[:-1], verts[1:])]
    if sum(nseg) < 2:
        raise GeometryError(
            f"h0 = {h0} yields fewer than two columns across the period"
        )
    k1 = max(1, ceil((b - geom.min_height) / h0))
    k2 = max(1, ceil(pml_profile.delta / h0))
    return nseg, k1, k2


def initial_dofs(
    geom: GratingProfile, ctx: WaveContext, pml_profile: PmlProfile, h0: float
) -> int:
    """The free dofs 2 * nx * (k1 + k2 - 1) of the mesh that
    :func:`generate_initial` builds from the same arguments, counted without
    building it: of its nx + 1 columns of k1 + k2 + 1 nodes, the right one
    is slaved to the left, and every column ends on the surface and on the
    truncation line, where the nodes are Dirichlet.  Raises as
    :func:`generate_initial` does."""
    nseg, k1, k2 = _grid_shape(geom, ctx, pml_profile, h0)
    return 2 * sum(nseg) * (k1 + k2 - 1)


def generate_initial(
    geom: GratingProfile,
    ctx: WaveContext,
    pml_profile: PmlProfile,
    h0: float,
) -> Mesh:
    """Build the structured initial mesh for one period.

    Parameters
    ----------
    geom : GratingProfile
        Surface; its period must match ctx.period and its maximum height
        must stay strictly below ctx.gamma_height.
    ctx : WaveContext
    pml_profile : PmlProfile
        Supplies the layer thickness; pml_profile.b must equal
        ctx.gamma_height.
    h0 : float
        Target edge size of the initial mesh.

    Returns
    -------
    Mesh

    Raises
    ------
    GeometryError
        For a non-positive h0, mismatched periods/heights, a surface
        reaching y = b or fewer than two columns.
    """
    nseg, k1, k2 = _grid_shape(geom, ctx, pml_profile, h0)
    nx, rows = sum(nseg), k1 + k2 + 1
    b = ctx.gamma_height
    top = b + pml_profile.delta

    # column breakpoints: profile vertices plus chord-length subdivision
    verts = geom.vertices
    cols = [verts[:1]]
    for p, q, n in zip(verts[:-1], verts[1:], nseg):
        cols.append(p + (q - p) * np.arange(1, n + 1)[:, None] / n)
    col_x, col_y = np.concatenate(cols).T
    col_x[-1] = ctx.period  # exact right boundary
    col_y[-1] = col_y[0]    # exact mirror of the left column

    # node grid, column-major: node id = column * rows + row
    y_grid = np.empty((nx + 1, rows))
    t_phys = np.arange(k1 + 1) / k1
    y_grid[:, : k1 + 1] = col_y[:, None] + (b - col_y)[:, None] * t_phys[None, :]
    y_grid[:, k1] = b  # exact interface line
    t_pml = np.arange(1, k2 + 1) / k2
    y_grid[:, k1 + 1 :] = b + pml_profile.delta * t_pml[None, :]
    y_grid[:, -1] = top  # exact truncation line
    nodes = np.stack(
        [np.repeat(col_x, rows), y_grid.reshape(-1)], axis=1
    )

    # triangles: quads split along the (i, r) -> (i+1, r+1) diagonal
    i = np.repeat(np.arange(nx), rows - 1)
    r = np.tile(np.arange(rows - 1), nx)
    a = i * rows + r
    bq = (i + 1) * rows + r
    c = (i + 1) * rows + r + 1
    d = i * rows + r + 1
    tris = np.empty((2 * len(a), 3), dtype=np.int64)
    tris[0::2] = np.stack([a, bq, c], axis=1)
    tris[1::2] = np.stack([a, c, d], axis=1)

    return Mesh(nodes, tris, _longest_edge(nodes[tris]), ctx.period, b, top)


def _longest_edge(coords: np.ndarray) -> np.ndarray:
    """Local index of the longest edge of triangles (M, 3, 2) (ties: lowest),
    edge k opposite vertex k; for the initial mesh, before a ``Mesh`` exists."""
    (x0, y0), (x1, y1), (x2, y2) = coords.transpose(1, 2, 0)
    l0 = np.sqrt((x2 - x1) ** 2 + (y2 - y1) ** 2)
    l1 = np.sqrt((x0 - x2) ** 2 + (y0 - y2) ** 2)
    l2 = np.sqrt((x1 - x0) ** 2 + (y1 - y0) ** 2)
    return np.where(l2 > np.maximum(l0, l1), 2, l1 > l0).astype(np.uint8)


def bisect(mesh: Mesh, marked: np.ndarray) -> tuple[Mesh, np.ndarray]:
    """Newest-vertex bisection of the marked elements with conforming closure.

    Wall splits are mirrored across the period through
    ``Mesh.edge_partners``.  Only nodes, triangles and refinement edges are
    passed on: the new mesh derives its flags, regions and periodic pairs.

    Parameters
    ----------
    mesh : Mesh
    marked : array_like of int
        Element indices to refine (empty input returns an identical copy).
        A boolean mask is rejected: pass ``np.nonzero(mask)[0]``.

    Returns
    -------
    (Mesh, kept)
        A new conforming mesh (the input is left untouched) and the old
        indices of its unrefined elements, int64.  Those come first in their
        old order, ``new.tris[:len(kept)] == mesh.tris[kept]``, then the
        children of each refined element in turn.  So per-element data of
        the old mesh carries over as ``data[kept]``, and only the children
        need new values.
    """
    if np.asarray(marked).dtype == bool:
        raise ValueError("marked holds element indices, not a boolean mask: "
                         "pass np.nonzero(mask)[0]")
    marked = np.unique(np.asarray(marked, dtype=np.int64))
    if marked.size and (marked[0] < 0 or marked[-1] >= mesh.n_tris):
        raise IndexError("marked element index out of range")

    edges, tri_edges, _ = mesh.edge_structure()
    left_e, right_e = mesh.edge_partners.T
    n_edges = len(edges)

    split = np.zeros(n_edges, dtype=bool)
    if marked.size:
        split[tri_edges[marked, mesh.ref_edge[marked]]] = True

    # closure: a triangle with any split edge must split its refinement edge;
    # splits mirror across the periodic pairing
    while True:
        before = int(split.sum())
        split[right_e[split[left_e]]] = True
        split[left_e[split[right_e]]] = True
        touched = np.nonzero(split[tri_edges].any(axis=1))[0]
        split[tri_edges[touched, mesh.ref_edge[touched]]] = True
        if int(split.sum()) == before:
            break

    eids = np.nonzero(split)[0]

    # new nodes at split-edge midpoints
    mid = np.full(n_edges, -1, dtype=np.int64)
    mid[eids] = mesh.n_nodes + np.arange(eids.size)
    new_coords = 0.5 * (mesh.nodes[edges[eids, 0]] + mesh.nodes[edges[eids, 1]])

    # children of every affected triangle, in the local order (v0, v1, v2)
    # that starts at the vertex opposite the refinement edge
    affected = split[tri_edges].any(axis=1)
    idx = np.nonzero(affected)[0]
    rot = (mesh.ref_edge[idx, None].astype(np.int64) + np.arange(3)) % 3
    v0, v1, v2 = np.take_along_axis(mesh.tris[idx], rot, axis=1).T
    m0, m1, m2 = mid[np.take_along_axis(tri_edges[idx], rot, axis=1)].T
    if np.any(m0 < 0):
        raise RuntimeError("closure failed: refinement edge not split")
    cut1, cut2 = (m1 >= 0)[:, None], (m2 >= 0)[:, None]
    # four child slots per triangle: the v0-v1 half (split again when edge 2
    # is split), then the v0-v2 half (split again when edge 1 is split)
    slots = np.stack(
        [
            np.where(cut2, np.stack([m0, v0, m2], 1), np.stack([v0, v1, m0], 1)),
            np.stack([m0, m2, v1], 1),
            np.where(cut1, np.stack([m0, v2, m1], 1), np.stack([v0, m0, v2], 1)),
            np.stack([m0, m1, v0], 1),
        ],
        axis=1,
    )
    slot_ref = np.where(
        np.hstack([cut2, cut2, cut1, cut1]), [2, 1, 2, 1], [2, 1, 1, 1]
    ).astype(np.uint8)
    used = np.hstack([np.ones_like(cut2), cut2, np.ones_like(cut1), cut1])

    kept = np.nonzero(~affected)[0]
    new = Mesh(
        np.vstack([mesh.nodes, new_coords]),
        np.vstack([mesh.tris[kept], slots[used]]),
        np.concatenate([mesh.ref_edge[kept], slot_ref[used]]),
        mesh.period, mesh.b, mesh.top,
    )
    return new, kept


def mark(eta_hat: np.ndarray, tau: float = 0.5) -> np.ndarray:
    """Bulk marking: smallest prefix with sum eta^2 > tau^2 * total.

    Parameters
    ----------
    eta_hat : array_like of float
        Non-negative element indicators.
    tau : float
        Bulk parameter in [0, 1]; larger values mark more elements.

    Returns
    -------
    ndarray of int
        Sorted indices of the marked elements (empty when all indicators
        vanish).
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    eta = np.asarray(eta_hat, dtype=float)
    if np.any(eta < 0) or not np.all(np.isfinite(eta)):
        raise ValueError("indicators must be finite and non-negative")
    eta2 = eta**2
    total = float(eta2.sum())
    if total <= 0.0:
        return np.empty(0, dtype=np.int64)
    order = np.argsort(-eta2, kind="stable")
    csum = np.cumsum(eta2[order])
    k = int(np.searchsorted(csum, tau * tau * total, side="right"))
    k = min(k, eta2.size - 1)
    return np.sort(order[: k + 1])


def locate_corner_fraction(mesh: Mesh, point, radius: float) -> float:
    """Fraction of elements whose centroid lies within ``radius`` of point,
    one (x, y) or the nearest of (K, 2) points; NaN for K = 0."""
    if not radius >= 0.0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    px, py = np.asarray(point, dtype=float).reshape(-1, 2).T
    if px.size == 0:
        return float("nan")
    (x0, y0), (x1, y1), (x2, y2) = mesh.nodes[mesh.tris].transpose(1, 2, 0)
    cx, cy = (x0 + x1 + x2) / 3, (y0 + y1 + y2) / 3
    d = np.sqrt((cx[:, None] - px) ** 2 + (cy[:, None] - py) ** 2).min(axis=1)
    return float(np.count_nonzero(d <= radius)) / mesh.n_tris


def write_vtk(
    mesh: Mesh,
    path,
    point_data: dict | None = None,
    cell_data: dict | None = None,
) -> None:
    """Write the mesh (legacy ASCII VTK) with optional scalar fields.

    Complex arrays are split automatically into ``name_re`` / ``name_im``.
    An array without one value per node (point) or element (cell) raises
    ValueError, and no file is written.
    """
    lines = [
        "# vtk DataFile Version 3.0",
        "periodic grating mesh",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {mesh.n_nodes} double",
    ]
    lines.extend(f"{x:.17g} {y:.17g} 0" for x, y in mesh.nodes)
    lines.append(f"CELLS {mesh.n_tris} {4 * mesh.n_tris}")
    lines.extend(f"3 {a} {b} {c}" for a, b, c in mesh.tris)
    lines.append(f"CELL_TYPES {mesh.n_tris}")
    lines.extend("5" for _ in range(mesh.n_tris))

    for section, size, data in (
        ("POINT_DATA", mesh.n_nodes, point_data),
        ("CELL_DATA", mesh.n_tris, cell_data),
    ):
        if data:
            lines.append(f"{section} {size}")
        for name, arr in (data or {}).items():
            arr = np.asarray(arr)
            if arr.shape != (size,):
                raise ValueError(f"{section} {name!r} has shape {arr.shape}, not ({size},)")
            if np.iscomplexobj(arr):
                parts = [(f"{name}_re", arr.real), (f"{name}_im", arr.imag)]
            else:
                parts = [(name, arr.astype(float))]
            for label, values in parts:
                lines += [f"SCALARS {label} double 1", "LOOKUP_TABLE default"]
                lines.extend(f"{v:.17g}" for v in values)

    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
