"""P1 finite-element assembly of the stretched (PML) Navier problem.

The sesquilinear form on one period D (physical region plus layer) is

    b(u, v) = integral_D  (lam+2mu) * (rho*dx(u1)*dx(conj v1)
                                       + 1/rho*dy(u2)*dy(conj v2))
                        + mu * (1/rho*dy(u1)*dy(conj v1)
                                + rho*dx(u2)*dx(conj v2))
                        + (lam+mu) * (mixed term)
                        - omega^2 * rho * u . conj(v),

with the medium function rho = rho(y) of the layer (1 below y = b).  The
mixed term is assembled in the transpose-equivalent grouping

    (lam+mu) * (dy(u2)*dx(conj v1) + dx(u1)*dy(conj v2)),

which differs from the grouping (lam+mu)*(dx(u2)*dy(conj v1) +
dx(u1)*dy(conj v2)) by a constant-coefficient null Lagrangian: the two
assembled systems coincide (the difference integrates by parts onto boundary
terms that cancel under the quasi-periodic and Dirichlet constraints), while
the grouping used here makes every element matrix complex symmetric.  The
literal grouping is kept as a dense reference in ``tests/test_assembly.py``,
which checks that both assemble to the same reduced system.

The element matrix exists only as its entries on the six node pairs of each
element, its three vertices and its three edges (``_pair_integrals``, the
one element kernel, with ``quadrature.element_rule``): the (u1, v1) and
(u2, v2) entries of a pair are symmetric in its two nodes, and the mixed
entries are the real area*dx(phi_a)*dy(phi_b) taken in both orders, so
every element matrix is complex symmetric by construction.  ``assemble``
sums these per-pair values onto the nodes and edges of the mesh, in blocks
of ``BLOCK_SIZE`` elements, so that it holds one 2x2 block for each of the
N + 2E ordered node pairs (an edge in both orders).  Each summed value fills
both transposed positions of the matrix.

Boundary conditions: u = 0 on the grating surface, u = u_inc (nodal values)
on the truncation line, and quasi-periodicity u(period, y) =
exp(i*alpha*period) * u(0, y) imposed by slaving each right node to its
mirrored left node.  Both constraints act on the two components of a node
alike, so ``DofMap`` holds one equation block eq_p and one weight w_p per
node p, and the constraints fold as one index map: constrained test
functions carry the conjugate phase, so entry e of the node-pair block
(p, q) takes the weight conj(w_p) * w_q and goes to row 2*eq_p + e % 2 and
column 2*eq_q + e // 2 (a slave shares its master's block).  One COO to
CSC conversion sums the entries: an equation block holds at most a master
and its slave, and no left-wall node neighbours a right-wall node (at
least two element columns, which bisection only narrows), so at most two
blocks meet in one entry and their sum does not depend on the order of
summation.  The reduced matrix is therefore structurally symmetric (its
pattern equals that of its transpose) and A(alpha)^T = A(-alpha) for the
Bloch parameter alpha; it is complex symmetric only at normal incidence.
The blocks of eliminated Dirichlet columns are folded into the right-hand
side together with the volume data g = L u_inc of the layer, which
``layer_source`` evaluates at the points of the element rule; the residual
estimator integrates the same values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .meshing import Mesh
from .pml import PmlProfile, pml_source, rho
from .quadrature import element_rule
from .waves import WaveContext, incident_field

__all__ = [
    "DofMap",
    "SparseSystem",
    "build_dofmap",
    "layer_source",
    "assemble",
]


@dataclass
class DofMap:
    """Node to equation mapping with the constraint data, one entry per node.

    The Dirichlet and quasi-periodic conditions constrain both displacement
    components of a node alike, so a node that is not Dirichlet holds the
    equations (2*eq, 2*eq + 1) of its block eq; ``assemble`` works on these
    2x2 node blocks.

    Attributes
    ----------
    eq : ndarray (N,) int32
        Equation block: k for the k-th free node in order of height, then
        x (see ``build_dofmap``), the master's block for a slave (a node of
        the quasi-periodic right boundary), -1 for a Dirichlet node.
    weight : ndarray (N,) complex
        Constraint weight: 1 for free nodes, exp(i*alpha*period) for
        slaves, 0 for Dirichlet nodes.
    value : ndarray (N, 2) complex
        Dirichlet values (0 elsewhere).
    n_free : int
        Number of free equations, two per free node.
    """

    eq: np.ndarray
    weight: np.ndarray
    value: np.ndarray
    n_free: int

    def expand(self, x: np.ndarray) -> np.ndarray:
        """Scatter a solution vector to nodal values, shape (N, 2) complex."""
        x = np.asarray(x)
        if x.shape != (self.n_free,):
            raise ValueError(f"expected solution of length {self.n_free}")
        # Weights repeated to (N, 2), not broadcast: numpy's complex product
        # rounds the last bit by operand layout and order, and this layout
        # gives the field values of a per-component weight array.
        weight = np.repeat(self.weight, 2).reshape(-1, 2)
        out = weight * x.reshape(-1, 2)[self.eq]
        return np.where((self.eq >= 0)[:, None], out, self.value)


@dataclass
class SparseSystem:
    """Reduced linear system A x = rhs.

    ``matrix`` is CSC (ready for sparse LU); ``rhs`` includes the folded
    Dirichlet data and the layer volume data.  The ``DofMap`` that numbers
    its equations stays with the caller, which expands the solution.
    """

    matrix: sp.csc_matrix
    rhs: np.ndarray

    @property
    def n(self) -> int:
        return self.rhs.shape[0]

    def write_matrix_market(self, path) -> None:
        """Dump the reduced matrix in Matrix Market coordinate format."""
        import scipy.io  # deferred: only writing a system needs it

        scipy.io.mmwrite(str(path), self.matrix.tocoo())


def build_dofmap(mesh: Mesh, ctx: WaveContext) -> DofMap:
    """Classify the nodes and number the equation blocks of the free ones.

    Dirichlet takes precedence over the periodic constraint (corner nodes of
    the truncation line and the surface are fixed on both sides with
    consistent data, since u_inc itself is quasi-periodic).  RuntimeError
    when the walls do not pair up or a periodic master is constrained.

    The free nodes are numbered by height, then by x, and the k-th holds
    block k, the equations (2k, 2k+1); slaves share their master's block.
    ``bisect`` appends every new midpoint node at the end, so node order is
    spatially scattered on refined meshes.  The minimum degree ordering of
    the solver breaks its ties by equation index, and on node order it
    builds factors with far more padding in their supernodes; the spatial
    order keeps the factorization close to its true fill whatever the
    refinement history.
    """
    n = mesh.n_nodes
    dirichlet = mesh.on_surface | mesh.on_top
    value = np.zeros((n, 2), dtype=complex)
    top = np.nonzero(mesh.on_top)[0]
    value[top, :] = incident_field(ctx, mesh.nodes[top, 0], mesh.nodes[top, 1])

    slave = mesh.on_right & ~dirichlet
    free = np.nonzero(~(dirichlet | slave))[0]
    free = free[np.lexsort((mesh.nodes[free, 0], mesh.nodes[free, 1]))]
    eq = np.full(n, -1, dtype=np.int32)
    eq[free] = np.arange(free.size)
    weight = np.zeros(n, dtype=complex)
    weight[free] = 1.0

    left_of = np.full(n, -1, dtype=np.int64)
    left_of[mesh.periodic_pairs[:, 1]] = mesh.periodic_pairs[:, 0]
    nodes = np.nonzero(slave)[0]
    masters = left_of[nodes]
    bad = eq[masters] < 0  # only free nodes hold a block so far
    if bad.any():
        i = int(np.argmax(bad))  # report the first offending node
        raise RuntimeError(
            f"periodic master {masters[i]} of node {nodes[i]} is constrained"
        )
    eq[nodes] = eq[masters]
    weight[nodes] = ctx.phase

    return DofMap(eq=eq, weight=weight, value=value, n_free=2 * free.size)


#: Elements per block of ``assemble`` and of the estimator's residuals:
#: their per-element temporaries have this many rows whatever the size of
#: the mesh (a few MB, which also keeps them in cache).  Read at call time.
BLOCK_SIZE = 8192

# The six node pairs (a, b) of an element: its vertices (a, a), then its
# edges; slot 3 + k is edge k of ``Mesh.edge_structure`` (opposite vertex k).
_PAIR_A = np.array([0, 1, 2, 1, 2, 0])
_PAIR_B = np.array([0, 1, 2, 2, 0, 1])


def _pair_integrals(
    area: np.ndarray,
    grads: np.ndarray,
    y: np.ndarray,
    ctx: WaveContext,
    profile: PmlProfile,
) -> tuple[np.ndarray, np.ndarray]:
    """Element matrix entries on the six node pairs of every element.

    ``area`` and ``grads`` are the element areas and P1 gradients and ``y``
    (M, 3) the vertex heights.  The integrals of rho, 1/rho and
    rho*phi_a*phi_b use ``element_rule`` on every element.  rho = 1 below
    the mesh line y = b, where the P1 integrands are at most quadratic, so
    the rule is exact on physical elements.

    Returns
    -------
    diag : ndarray (2, M, 6) complex
        The (u1, v1) and (u2, v2) entries of pair s = (a, b):
        c1 * int rho dx(phi_a) dx(phi_b) + c2 * int 1/rho dy(phi_a) dy(phi_b)
        - omega^2 * int rho phi_a phi_b, with (c1, c2) = (lam+2mu, mu) and
        (mu, lam+2mu); the same in both orders of the pair.
    mixed : ndarray (2, M, 6) float
        area * dx(phi_a) dy(phi_b) and area * dx(phi_b) dy(phi_a).  Times
        lam+mu they are the (u2, v1) and (u1, v2) entries of the pair with
        test function a and trial function b; the other order swaps them.
    """
    bary, w = element_rule()
    rq = rho(profile, y @ bary.T)
    int_rho = area * (rq @ w)
    int_inv = area * ((1.0 / rq) @ w)
    lam, mu, om2 = ctx.lam, ctx.mu, ctx.omega**2
    outer = bary[:, _PAIR_A] * bary[:, _PAIR_B]
    mass = area[:, None] * ((rq * w) @ (-om2 * outer))
    ga, gb = grads[:, _PAIR_A], grads[:, _PAIR_B]
    gxx = ga[..., 0] * gb[..., 0]
    gyy = ga[..., 1] * gb[..., 1]
    diag = np.stack([
        (cx * int_rho)[:, None] * gxx + (cy * int_inv)[:, None] * gyy + mass
        for cx, cy in ((lam + 2 * mu, mu), (mu, lam + 2 * mu))
    ])
    mixed = area[:, None] * np.stack(
        [ga[..., 0] * gb[..., 1], gb[..., 0] * ga[..., 1]]
    )
    return diag, mixed


def _pair_sums(
    mesh: Mesh, ctx: WaveContext, profile: PmlProfile, g: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Element matrix and load summed on the node pairs of the mesh.

    Runs over blocks of ``BLOCK_SIZE`` elements.  ``g`` is the layer volume
    data (``layer_source``).

    Returns
    -------
    pairs : ndarray (4, N + E) complex
        The 2x2 block (test function a, trial function b) of the node
        a = b = p at column p and of the edge e with nodes a < b at column
        N + e; rows are the entries 00, 10, 01, 11, the first index the
        test component.
    load : ndarray (N, 2) complex
        -integral g_d phi_p per node p and component d.
    """
    n = mesh.n_nodes
    edges, tri_edges, _ = mesh.edge_structure()
    area, grads = mesh.areas(), mesh.grads()
    bary, w = element_rule()
    wb = -(w[:, None] * bary)
    # rows: Re diag, Im diag, then mixed with a the lower node of the pair
    sums = np.zeros((6, n + len(edges)))
    load = np.zeros((4, n))
    for first in range(0, mesh.n_tris, BLOCK_SIZE):
        blk = slice(first, first + BLOCK_SIZE)
        tris = mesh.tris[blk]
        diag, mixed = _pair_integrals(
            area[blk], grads[blk], mesh.nodes[tris, 1], ctx, profile
        )
        mixed = np.where(tris[:, _PAIR_A] > tris[:, _PAIR_B], mixed[::-1], mixed)
        ids = np.concatenate([tris, n + tri_edges[blk]], axis=1).ravel()
        for total, part in zip(sums, (*diag.real, *diag.imag, *mixed)):
            total += np.bincount(ids, part.ravel(), minlength=len(total))
        nodes = tris.ravel()
        for d in range(2):
            f = (area[blk, None] * (g[blk, :, d] @ wb)).ravel()
            load[d] += np.bincount(nodes, f.real, minlength=n)
            load[2 + d] += np.bincount(nodes, f.imag, minlength=n)
    c = ctx.lam + ctx.mu
    pairs = np.stack(
        [sums[0] + 1j * sums[2], c * sums[5], c * sums[4], sums[1] + 1j * sums[3]]
    )
    return pairs, (load[:2] + 1j * load[2:]).T


def layer_source(
    mesh: Mesh,
    ctx: WaveContext,
    profile: PmlProfile,
    carried: np.ndarray | None = None,
) -> np.ndarray:
    """Volume data g = L u_inc of the layer at the points of the element rule.

    Parameters
    ----------
    mesh, ctx, profile
        Geometry, wave context and layer profile.
    carried : ndarray (K, Q, 2) complex, optional
        Values of the first K elements, already known.  ``bisect`` puts the
        unrefined elements first, so ``source[kept]`` of the previous mesh
        carries them over and only the K..M-1 children are evaluated.

    Returns
    -------
    ndarray (M, Q, 2) complex
        g at the Q points of ``element_rule``; exactly 0 below y = b.
        Evaluated pointwise, so carried and fresh values are bit-identical.
    """
    done = 0 if carried is None else len(carried)
    coords = mesh.nodes[mesh.tris[done:]]
    bary, _ = element_rule()
    g = pml_source(ctx, profile, coords[..., 0] @ bary.T, coords[..., 1] @ bary.T)
    return g if carried is None else np.concatenate([carried, g])


def assemble(
    mesh: Mesh,
    ctx: WaveContext,
    profile: PmlProfile,
    dofmap: DofMap,
    *,
    source: np.ndarray | None = None,
) -> SparseSystem:
    """Assemble the reduced system (constraints folded, data lifted).

    Parameters
    ----------
    mesh, ctx, profile, dofmap
        Geometry, wave context, layer profile and the dof classification.
    source : ndarray (M, Q, 2) complex, optional
        ``layer_source(mesh, ctx, profile)``, evaluated here when not given
        (``run`` passes the values it shares with the estimator).

    Returns
    -------
    SparseSystem
    """
    n = mesh.n_nodes
    g = layer_source(mesh, ctx, profile) if source is None else source
    pairs, load = _pair_sums(mesh, ctx, profile, g)
    edges = mesh.edge_structure()[0]
    lo, hi = edges.T
    test = np.concatenate([np.arange(n), lo, hi])
    trial = np.concatenate([np.arange(n), hi, lo])

    def ordered(entry):
        """Entry 0 (00), 1 (10), 2 (01) or 3 (11) of the blocks (test,
        trial): an edge taken as (hi, lo) has its block transposed."""
        return np.concatenate([pairs[entry], pairs[(0, 2, 1, 3)[entry], n:]])

    # Node p holds the equations (2*eq[p], 2*eq[p] + 1), none if Dirichlet.
    # Blocks with a Dirichlet trial node fold into the load; the others
    # take the weights conj(w) (test) and w (trial) and go through the
    # index map of the module docstring, with at most two blocks per entry.
    eq, weight = dofmap.eq, dofmap.weight
    live = eq >= 0
    lifted = np.nonzero(live[test] & ~live[trial])[0]
    kept = np.nonzero(live[test] & live[trial])[0]
    wt = np.conj(weight[test[kept]]) * weight[trial[kept]]
    lift = np.empty((4, len(lifted)), dtype=complex)
    vals = np.empty((4, len(kept)), dtype=complex)
    for entry in range(4):
        v = ordered(entry)
        lift[entry] = v[lifted]
        vals[entry] = v[kept] * wt
    e = np.arange(4, dtype=eq.dtype)[:, None]
    rows = (2 * eq[test[kept]] + e % 2).ravel()
    cols = (2 * eq[trial[kept]] + e // 2).ravel()
    matrix = sp.csc_matrix(
        (vals.ravel(), (rows, cols)), shape=(dofmap.n_free, dofmap.n_free)
    )
    matrix.eliminate_zeros()

    b00, b10, b01, b11 = lift
    v0, v1 = dofmap.value[trial[lifted]].T
    f_at = np.concatenate([np.nonzero(live)[0], test[lifted]])
    f = np.concatenate(
        [load[live], -np.stack([b00 * v0 + b01 * v1, b10 * v0 + b11 * v1], axis=1)]
    )
    f *= np.conj(weight[f_at])[:, None]
    rows = (2 * eq[f_at, None] + np.arange(2)).ravel()
    rhs = np.bincount(rows, f.real.ravel(), minlength=dofmap.n_free) + 1j * np.bincount(
        rows, f.imag.ravel(), minlength=dofmap.n_free
    )

    return SparseSystem(matrix=matrix, rhs=rhs)
