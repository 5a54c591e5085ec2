"""Residual a posteriori error estimation for the layered P1 problem.

Each element T receives the indicator

    eta_T = h_T * ||R_T||_{L2(T)} + (1/2 * sum_e h_e * ||J_e||^2_{L2(e)})^{1/2}

where R_T is the strong residual (for P1 nothing but the zero-order and the
variable-coefficient first-order terms survive) and J_e the jump of the
discrete flux of the assembled bilinear form across the edges of T.  The
flux consistent with the assembled form is

    W1 = (lam+2mu)*rho*dx(u1)*nx + mu/rho*dy(u1)*ny + (lam+mu)*dy(u2)*nx
    W2 = mu*rho*dx(u2)*nx + (lam+2mu)/rho*dy(u2)*ny + (lam+mu)*dx(u1)*ny

with the mixed term in the transpose grouping that ``assembly`` integrates
(see its docstring for why that grouping assembles the same system as the
literal one).

Quasi-periodic boundary edges are jumped against their mirrored partner
with the phase exp(-i*alpha*period) on the right trace; Dirichlet edges
(surface and truncation line) carry no jump.  Elements touching the
truncation line additionally pay the boundary-data interpolation error,

    eta_hat_T = eta_T + ||I_h u_inc - u_inc||_{L2(top edge)} ,

and the two global quantities reported are

    eps_fem = ||u_h - u_inc||_{L2(top)} + sqrt(sum_T eta_hat_T^2),
    eps_pml = f_hat * ||u_h - u_inc||_{L2(interface)},

the discretization part driving the adaptive loop and the (exponentially
small) layer-truncation part, with f_hat the layer modeling constant.

``indicators`` is the one entry point: it evaluates the element Jacobians
of the field once, and the residual norms ||R_T|| and the jump sums
sum_e h_e ||J_e||^2 are its ``residual_terms`` and ``jump_terms``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import assembly
from .assembly import layer_source
from .meshing import Mesh, p1_jacobian
from .pml import PmlProfile, rho, rho_prime
from .pml import pml_source  # noqa: F401  (rebound by benchmarks/tracing.py)
from .quadrature import edge_rule, element_rule
from .waves import WaveContext, incident_field

__all__ = ["ErrorIndicators", "indicators"]


@dataclass(frozen=True)
class ErrorIndicators:
    """Per-element indicators and the derived global error measures."""

    eta: np.ndarray
    eta_hat: np.ndarray
    residual_terms: np.ndarray
    jump_terms: np.ndarray
    top_terms: np.ndarray
    global_eta: float
    eps_fem: float
    eps_pml: float
    boundary_l2_top: float
    boundary_l2_interface: float


def _residuals(
    mesh: Mesh,
    field: np.ndarray,
    ctx: WaveContext,
    profile: PmlProfile,
    source: np.ndarray,
    amplitude: float,
    jac: np.ndarray,
) -> np.ndarray:
    """||R_T||_{L2(T)} per element.

    R_T,c = -coef_c * rho'/rho^2 * dy(u_c) + omega^2 * rho * u_c - g_c with
    coef = (mu, lam+2mu) and g = ``amplitude * source`` the layer volume
    data (scaled block by block, so no scaled copy of ``source`` is held),
    integrated on every element with ``element_rule``.  Below the mesh line
    y = b this is omega^2 * u_h (rho = 1, rho' = 0, g = 0), whose squared
    modulus is quadratic, so the rule is exact there.  dy(u_c) is read from
    the element Jacobians ``jac``.  The points of the rule are evaluated in
    blocks of ``assembly.BLOCK_SIZE`` elements, so no temporary grows with
    the mesh; each value is per element, so the result does not depend on
    the block size.
    """
    bary, w = element_rule()
    area = mesh.areas()
    om2 = ctx.omega**2
    out = np.empty(mesh.n_tris)
    block = assembly.BLOCK_SIZE
    for first in range(0, mesh.n_tris, block):
        blk = slice(first, first + block)
        tris = mesh.tris[blk]
        vals = field[tris]
        y = mesh.nodes[tris][..., 1] @ bary.T
        r = rho(profile, y)
        rp = rho_prime(profile, y)
        dy = jac[blk, :, 1, None]  # dy(u_c), (B, 2, 1)
        dens = np.zeros(r.shape)
        for k, coef in enumerate((ctx.mu, ctx.lam + 2.0 * ctx.mu)):
            res = (
                -coef * rp / r**2 * dy[:, k]
                + om2 * r * (vals[:, :, k] @ bary.T)
                - amplitude * source[blk, :, k]
            )
            dens += np.abs(res) ** 2
        out[blk] = np.sqrt(area[blk] * (dens @ w))
    return out


def _flux_parts(
    j: np.ndarray, nx: np.ndarray, ny: np.ndarray, ctx: WaveContext
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split the flux of the gradients ``j`` (E, 2, 2) by its rho weights.

    Returns (P, C, Q), each (E, 2) complex, so the flux along an edge is
    P*rho(y) + C + Q/rho(y).
    """
    lam, mu = ctx.lam, ctx.mu
    p = np.empty(j.shape[:1] + (2,), dtype=complex)
    c = np.empty_like(p)
    q = np.empty_like(p)
    p[:, 0] = (lam + 2 * mu) * j[:, 0, 0] * nx
    p[:, 1] = mu * j[:, 1, 0] * nx
    c[:, 0] = (lam + mu) * j[:, 1, 1] * nx
    c[:, 1] = (lam + mu) * j[:, 0, 0] * ny
    q[:, 0] = mu * j[:, 0, 1] * ny
    q[:, 1] = (lam + 2 * mu) * j[:, 1, 1] * ny
    return p, c, q


def _jumps(
    mesh: Mesh, ctx: WaveContext, profile: PmlProfile, jac: np.ndarray
) -> np.ndarray:
    """sum_e h_e ||J_e||^2_{L2(e)} per element (Dirichlet edges excluded).

    ``jac`` holds the element Jacobians of the field.  The jump along an
    edge is P*rho(y) + C + Q/rho(y) with constant parts P, C, Q
    (``_flux_parts``), and ||J_e||^2 is the 5-point ``edge_rule`` of its
    squared modulus summed over the two components:

        ||J_e||^2 ~= h_e * sum_q w_q sum_k |P_k rho(y_q) + Q_k/rho(y_q) + C_k|^2

    at the points y_q of the edge.
    """
    edges, _, edge_tri = mesh.edge_structure()
    dvec = mesh.nodes[edges[:, 1]] - mesh.nodes[edges[:, 0]]
    h = np.linalg.norm(dvec, axis=1)

    interior = np.nonzero(edge_tri[:, 1] >= 0)[0]
    t1, t2 = edge_tri[interior, 0], edge_tri[interior, 1]
    # a left wall edge is jumped against its mirror; the wall normal is e_x
    left, mate = mesh.edge_partners().T
    tl, tr = edge_tri[left, 0], edge_tri[mate, 0]
    # the flux is linear in the gradient, so its jump is the flux of the
    # gradient jump
    p, c, q = _flux_parts(
        np.concatenate([jac[t1] - jac[t2], jac[tl] - np.conj(ctx.phase) * jac[tr]]),
        np.concatenate([dvec[interior, 1] / h[interior], np.ones(left.size)]),
        np.concatenate([-dvec[interior, 0] / h[interior], np.zeros(left.size)]),
        ctx,
    )

    eids = np.concatenate([interior, left])
    tq, wq = edge_rule()
    r = rho(profile, mesh.nodes[edges[eids, 0], 1, None] + dvec[eids, 1, None] * tq)
    dens = np.zeros(r.shape)
    for k in range(2):
        dens += np.abs(p[:, k, None] * r + q[:, k, None] / r + c[:, k, None]) ** 2
    q_e = h[eids] ** 2 * (dens @ wq)
    n = mesh.n_tris
    return np.bincount(np.concatenate([t1, tl]), q_e, minlength=n) + np.bincount(
        np.concatenate([t2, tr]), q_e, minlength=n
    )


def _edge_l2_sq_against_data(
    mesh: Mesh, field: np.ndarray, data, eids: np.ndarray, edges: np.ndarray
) -> np.ndarray:
    """int_e |lerp(field) - data(x, y)|^2 for each given edge."""
    if eids.size == 0:
        return np.zeros(0)
    a, b = edges[eids, 0], edges[eids, 1]
    pa, pb = mesh.nodes[a], mesh.nodes[b]
    h = np.linalg.norm(pb - pa, axis=1)
    tq, wq = edge_rule()
    pts = pa[:, None, :] + (pb - pa)[:, None, :] * tq[None, :, None]
    target = data(pts[..., 0], pts[..., 1])
    lerp = (
        field[a][:, None, :] * (1.0 - tq)[None, :, None]
        + field[b][:, None, :] * tq[None, :, None]
    )
    dens = (np.abs(lerp - target) ** 2).sum(axis=2)
    return h * (dens @ wq).real


def indicators(
    mesh: Mesh,
    field: np.ndarray,
    ctx: WaveContext,
    profile: PmlProfile,
    f_hat: float,
    *,
    amplitude: float = 1.0,
    source: np.ndarray | None = None,
) -> ErrorIndicators:
    """Compute all element indicators and global error measures.

    Parameters
    ----------
    mesh, field
        Mesh and nodal solution values, shape (n_nodes, 2).
    ctx, profile
        Wave context and layer profile.
    f_hat : float
        Layer modeling constant scaling the truncation error term.
    amplitude : float
        Multiplies every data term: the layer volume data and the incident
        wave on the truncation and interface lines (0 turns them all off).
        For a field a*u the indicators at ``amplitude = a`` are a times
        those of u at 1 (``jump_terms``, squared, a**2 times).
    source : ndarray (M, Q, 2) complex, optional
        The layer volume data ``assembly.layer_source(mesh, ctx, profile)``,
        evaluated here when not given.
    """
    field = np.asarray(field)
    if field.shape != (mesh.n_nodes, 2):
        raise ValueError("field must be nodal values of shape (n_nodes, 2)")
    if source is None:
        source = layer_source(mesh, ctx, profile)
    # one Jacobian per field: the residuals read its dy column, the jumps
    # all of it
    jac = p1_jacobian(field[mesh.tris], mesh.grads())
    res = _residuals(mesh, field, ctx, profile, source, amplitude, jac)
    jumps = _jumps(mesh, ctx, profile, jac)
    eta = mesh.diameters() * res + np.sqrt(0.5 * jumps)

    def incident(x, y):
        return amplitude * incident_field(ctx, x, y)

    edges, _, edge_tri = mesh.edge_structure()
    top_edges = np.nonzero(
        mesh.on_top[edges[:, 0]] & mesh.on_top[edges[:, 1]]
    )[0]
    top_sq = _edge_l2_sq_against_data(mesh, field, incident, top_edges, edges)
    top_terms = np.sqrt(
        np.bincount(edge_tri[top_edges, 0], top_sq, minlength=mesh.n_tris)
    )
    eta_hat = eta + top_terms

    gamma_edges = np.nonzero(
        mesh.on_gamma[edges[:, 0]] & mesh.on_gamma[edges[:, 1]]
    )[0]
    gamma_sq = _edge_l2_sq_against_data(mesh, field, incident, gamma_edges, edges)
    l2_top = float(np.sqrt(top_sq.sum()))
    l2_gamma = float(np.sqrt(gamma_sq.sum()))
    global_eta = float(np.sqrt((eta_hat**2).sum()))
    return ErrorIndicators(
        eta=eta,
        eta_hat=eta_hat,
        residual_terms=res,
        jump_terms=jumps,
        top_terms=top_terms,
        global_eta=global_eta,
        eps_fem=l2_top + global_eta,
        eps_pml=f_hat * l2_gamma,
        boundary_l2_top=l2_top,
        boundary_l2_interface=l2_gamma,
    )
