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

Boundary conditions: u = 0 on the grating surface, u = u_inc (nodal values)
on the truncation line, and quasi-periodicity u(period, y) =
exp(i*alpha*period) * u(0, y) imposed by slaving each right node to its
mirrored left node.  Constrained test functions carry the conjugate phase,
so the reduced matrix is structurally symmetric (its pattern equals that of
its transpose) and A(alpha)^T = A(-alpha) for the Bloch parameter alpha; it
is complex symmetric only at normal incidence.  Eliminated Dirichlet columns
are folded into the right-hand side together with the volume data
g = L u_inc of the layer, which ``layer_source`` evaluates at the points of
the element rule; the residual estimator integrates the same values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .meshing import Mesh, p1_geometry
from .pml import PmlProfile, pml_source, rho
from .quadrature import ELEMENT_DEGREE, triangle_rule
from .waves import WaveContext, incident_field

__all__ = [
    "DofMap",
    "SparseSystem",
    "build_dofmap",
    "element_matrix",
    "layer_source",
    "assemble",
]

FREE = 0
DIRICHLET = 1
SLAVE = 2


@dataclass
class DofMap:
    """Node/component to equation mapping with constraint metadata.

    Attributes
    ----------
    kind : ndarray (N, 2) uint8
        0 free, 1 Dirichlet, 2 slave (quasi-periodic right boundary).
    index : ndarray (N, 2) int32
        Free-equation index for free dofs, the master's free index for
        slaves, -1 for Dirichlet dofs.  The k-th free node in order of
        height, then x, holds equations (2k, 2k+1); see ``build_dofmap``.
        int32 is the index type of scipy's sparse matrices, so ``assemble``
        hands its row and column arrays over without a converting copy.
    value : ndarray (N, 2) complex
        Dirichlet values (0 elsewhere).
    weight : ndarray (N, 2) complex
        Constraint weight: 1 for free dofs, exp(i*alpha*period) for slaves,
        0 for Dirichlet dofs.
    n_free : int
        Number of free equations.
    """

    kind: np.ndarray
    index: np.ndarray
    value: np.ndarray
    weight: np.ndarray
    n_free: int

    def expand(self, x: np.ndarray) -> np.ndarray:
        """Scatter a solution vector to nodal values, shape (N, 2) complex."""
        x = np.asarray(x)
        if x.shape != (self.n_free,):
            raise ValueError(f"expected solution of length {self.n_free}")
        safe = np.where(self.index >= 0, self.index, 0)
        out = np.where(self.kind == DIRICHLET, self.value, self.weight * x[safe])
        return out


@dataclass
class SparseSystem:
    """Reduced linear system A x = rhs with its dof map.

    ``matrix`` is CSC (ready for sparse LU); ``rhs`` includes the folded
    Dirichlet data and the layer volume data.
    """

    matrix: sp.csc_matrix
    rhs: np.ndarray
    dofmap: DofMap

    @property
    def n(self) -> int:
        return self.rhs.shape[0]

    def write_matrix_market(self, path) -> None:
        """Dump the reduced matrix in Matrix Market coordinate format."""
        import scipy.io  # deferred: only writing a system needs it

        scipy.io.mmwrite(str(path), self.matrix.tocoo())


def build_dofmap(mesh: Mesh, ctx: WaveContext) -> DofMap:
    """Classify node/component pairs and enumerate the free equations.

    Dirichlet takes precedence over the periodic constraint (corner nodes of
    the truncation line and the surface are fixed on both sides with
    consistent data, since u_inc itself is quasi-periodic).  RuntimeError
    when the walls do not pair up or a periodic master is constrained.

    The free nodes are numbered by height, then by x, and the k-th holds
    equations (2k, 2k+1); slaves share their master's indices.  ``bisect``
    appends every new midpoint node at the end, so node order is spatially
    scattered on refined meshes.  The minimum degree ordering of the solver
    breaks its ties by equation index, and on node order it builds factors
    with far more padding in their supernodes; the spatial order keeps the
    factorization close to its true fill whatever the refinement history.
    """
    n = mesh.n_nodes
    kind = np.zeros((n, 2), dtype=np.uint8)
    value = np.zeros((n, 2), dtype=complex)

    dirichlet = mesh.on_surface | mesh.on_top
    kind[dirichlet, :] = DIRICHLET
    top = np.nonzero(mesh.on_top)[0]
    value[top, :] = incident_field(ctx, mesh.nodes[top, 0], mesh.nodes[top, 1])

    slave = mesh.on_right & ~dirichlet
    kind[slave, :] = SLAVE

    free_mask = kind == FREE
    free = np.nonzero(free_mask[:, 0])[0]
    free = free[np.lexsort((mesh.nodes[free, 0], mesh.nodes[free, 1]))]
    index = np.full((n, 2), -1, dtype=np.int32)
    index[free] = np.arange(2 * free.size).reshape(-1, 2)

    left_of = np.full(n, -1, dtype=np.int64)
    left_of[mesh.periodic_pairs[:, 1]] = mesh.periodic_pairs[:, 0]
    nodes = np.nonzero(slave)[0]
    masters = left_of[nodes]
    bad = (kind[masters] != FREE).any(axis=1)
    if bad.any():
        i = int(np.argmax(bad))  # report the first offending node
        raise RuntimeError(
            f"periodic master {masters[i]} of node {nodes[i]} is constrained"
        )
    index[nodes] = index[masters]
    weight = np.where(free_mask, 1.0 + 0.0j, 0.0j)
    weight[nodes] = ctx.phase

    return DofMap(
        kind=kind,
        index=index,
        value=value,
        weight=weight,
        n_free=2 * free.size,
    )


def _local_matrices(
    area: np.ndarray,
    grads: np.ndarray,
    y: np.ndarray,
    ctx: WaveContext,
    profile: PmlProfile,
) -> np.ndarray:
    """Batched 6x6 element matrices; local dof = 2*vertex + component.

    ``area`` and ``grads`` are the element areas and P1 gradients and ``y``
    (M, 3) the vertex heights.  The integrals of rho, 1/rho and
    rho*phi_a*phi_b use the rule of degree ``ELEMENT_DEGREE`` on every
    element.  rho = 1 below the mesh line y = b, where the P1 integrands are
    at most quadratic, so the rule is exact on physical elements.
    """
    bary, w = triangle_rule(ELEMENT_DEGREE)
    rq = rho(profile, y @ bary.T)
    int_rho = area * (rq @ w)
    int_inv = area * ((1.0 / rq) @ w)
    outer = (bary[:, :, None] * bary[:, None, :]).reshape(len(w), 9)
    mass = (area[:, None] * ((rq * w) @ outer)).reshape(-1, 3, 3)

    lam, mu, om2 = ctx.lam, ctx.mu, ctx.omega**2
    gx, gy = grads[:, :, 0], grads[:, :, 1]
    gxx = gx[:, :, None] * gx[:, None, :]
    gyy = gy[:, :, None] * gy[:, None, :]
    gxy = gx[:, :, None] * gy[:, None, :]  # gxy[m,a,b] = gx_a * gy_b

    k = np.empty((area.shape[0], 6, 6), dtype=complex)
    ir = int_rho[:, None, None]
    ii = int_inv[:, None, None]
    aa = area[:, None, None]
    # rows 2b+d (test), cols 2a+c (trial)
    k[:, 0::2, 0::2] = np.swapaxes(
        (lam + 2 * mu) * gxx * ir + mu * gyy * ii - om2 * mass, 1, 2
    )
    k[:, 1::2, 1::2] = np.swapaxes(
        mu * gxx * ir + (lam + 2 * mu) * gyy * ii - om2 * mass, 1, 2
    )
    # (lam+mu) * (dy(u2) dx(v1) + dx(u1) dy(v2)):
    # [2b, 2a+1] = gy_a*gx_b * area ; [2b+1, 2a] = gx_a*gy_b * area
    k[:, 0::2, 1::2] = (lam + mu) * gxy * aa
    k[:, 1::2, 0::2] = np.swapaxes((lam + mu) * gxy * aa, 1, 2)
    return k


def element_matrix(
    coords: np.ndarray,
    ctx: WaveContext,
    profile: PmlProfile,
) -> np.ndarray:
    """6x6 element matrix of one triangle (local dof = 2*vertex + component).

    Parameters
    ----------
    coords : ndarray (3, 2)
        CCW vertex coordinates.
    ctx, profile
        Wave context and layer profile.

    Returns
    -------
    ndarray (6, 6) complex
    """
    coords = np.asarray(coords, dtype=float)[None, :, :]
    area, grads = p1_geometry(coords)
    return _local_matrices(area, grads, coords[..., 1], ctx, profile)[0]


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
        g at the Q points of the rule of degree ``ELEMENT_DEGREE``; exactly
        0 below y = b.  Evaluated pointwise, so carried and fresh values are
        bit-identical.
    """
    done = 0 if carried is None else len(carried)
    coords = mesh.nodes[mesh.tris[done:]]
    bary, _ = triangle_rule(ELEMENT_DEGREE)
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
    area = mesh.areas()
    coords = mesh.nodes[mesh.tris]
    k_loc = _local_matrices(area, mesh.grads(), coords[..., 1], ctx, profile)

    g = layer_source(mesh, ctx, profile) if source is None else source
    bary, w = triangle_rule(ELEMENT_DEGREE)
    # f[2b+d] = -area * sum_q w_q g_d(q) phi_b(q)
    wb = -(w[:, None] * bary)
    f_loc = np.empty((mesh.n_tris, 6), dtype=complex)
    f_loc[:, 0::2] = area[:, None] * (g[..., 0] @ wb)
    f_loc[:, 1::2] = area[:, None] * (g[..., 1] @ wb)

    # local dof (slot) -> (node, component)
    nodes6 = mesh.tris[:, [0, 0, 1, 1, 2, 2]]
    comp6 = np.tile([0, 1], 3)
    kind6 = dofmap.kind[nodes6, comp6]
    idx6 = dofmap.index[nodes6, comp6]
    live6 = kind6 != DIRICHLET

    # Dirichlet columns fold into the load (value is 0 off Dirichlet dofs);
    # then the constraint weights conj(w) (test) and w (trial) apply where a
    # slave dof makes them differ from 1
    fixed = np.nonzero(~live6.all(axis=1))[0]
    val = dofmap.value[nodes6[fixed], comp6]
    f_loc[fixed] -= (k_loc[fixed] @ val[:, :, None])[:, :, 0]
    slave = np.nonzero((kind6 == SLAVE).any(axis=1))[0]
    w6 = dofmap.weight[nodes6[slave], comp6]
    k_loc[slave] *= np.conj(w6)[:, :, None] * w6[:, None, :]
    f_loc[slave] *= np.conj(w6)

    keep = live6[:, :, None] & live6[:, None, :]
    rows = np.broadcast_to(idx6[:, :, None], keep.shape)[keep]
    cols = np.broadcast_to(idx6[:, None, :], keep.shape)[keep]
    matrix = sp.coo_matrix(
        (k_loc[keep], (rows, cols)), shape=(dofmap.n_free, dofmap.n_free)
    ).tocsc()  # sums duplicates
    matrix.eliminate_zeros()

    rhs = np.zeros(dofmap.n_free, dtype=complex)
    np.add.at(rhs, idx6[live6], f_loc[live6])

    return SparseSystem(matrix=matrix, rhs=rhs, dofmap=dofmap)
