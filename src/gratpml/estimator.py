"""Residual a posteriori error estimation for the layered P1 problem.

Each element T receives the indicator

    eta_T = h_T * ||R_T||_{L2(T)} + (1/2 * sum_e h_e * ||J_e||^2_{L2(e)})^{1/2}

where R_T is the strong residual (for P1 nothing but the zero-order and the
variable-coefficient first-order terms survive) and J_e the jump of the
discrete flux of the assembled bilinear form across the edges of T.  Both
come from the six terms of ``pml.flux_terms``, the one definition of the
operator, its form and its flux, that ``assembly`` integrates too.

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
sum_e h_e ||J_e||^2 are its ``residual_terms`` and ``jump_terms``.  The
geometry comes from where it is defined once: the residuals walk the
elements by the sweep ``assembly.element_blocks``, every edge length h_e is
``Mesh.edge_lengths`` (h_T, ``Mesh.diameters``, is their maximum over T),
and the edges of a line are ``Mesh.edges_on``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import element_blocks, layer_source
from .meshing import Mesh, p1_jacobian
from .pml import PmlProfile, flux_terms, layer_weights, rho, rho_prime
from .pml import pml_source  # noqa: F401  (rebound by benchmarks/tracing.py)
from .quadrature import EDGE_RULE, ELEMENT_RULE, at_rule_points
from .waves import WaveContext, incident_field

__all__ = ["ErrorIndicators", "indicators"]


@dataclass(frozen=True)
class ErrorIndicators:
    """Per-element indicators and the derived global error measures.

    ``eta_hat`` is not stored but read from its parts, ``eta + top_terms``.
    The boundary norms on the truncation and interface lines are reported
    only as parts of ``eps_fem`` and ``eps_pml``.
    """

    eta: np.ndarray
    residual_terms: np.ndarray
    jump_terms: np.ndarray
    top_terms: np.ndarray
    global_eta: float
    eps_fem: float
    eps_pml: float

    @property
    def eta_hat(self) -> np.ndarray:
        return self.eta + self.top_terms


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

    R_T = L u_h - g with L of ``pml.flux_terms``: for P1, omega^2*rho*u_c
    and the terms with d = 1, coef * dy(rho^p) * dx_f(u_e), remain, with
    dy(rho^p) from ``pml.layer_weights`` and dx_f(u_e) read from the
    element Jacobians ``jac``.  g = ``amplitude * source`` is the layer
    volume data, scaled block by block so that no scaled copy is held.
    Integrated on every element with ``ELEMENT_RULE``, which is exact below
    the mesh line y = b, where R_T = omega^2 * u_h (rho = 1, rho' = 0,
    g = 0) has a quadratic squared modulus.  One ``assembly.element_blocks``
    sweep, so no temporary grows with the mesh.
    """
    w = ELEMENT_RULE[1]
    area = mesh.areas
    om2 = ctx.omega**2
    out = np.empty(mesh.n_tris)
    for blk, tris in element_blocks(mesh):
        vals = field[tris]
        y = at_rule_points(mesh.nodes[tris, 1])
        r = rho(profile, y)
        weight = layer_weights(r, rho_prime(profile, y))
        first = [0.0, 0.0]
        for p, c, d, e, f, coef in flux_terms(ctx):
            if d == 1:
                first[c] = first[c] + coef * weight[p][1] * jac[blk, e, f, None]
        dens = np.zeros(r.shape)
        for c in range(2):
            res = (first[c] + om2 * r * at_rule_points(vals[:, :, c])
                   - amplitude * source[blk, :, c])
            dens += np.abs(res) ** 2
        out[blk] = np.sqrt(area[blk] * (dens @ w))
    return out


def _jumps(
    mesh: Mesh, ctx: WaveContext, profile: PmlProfile, jac: np.ndarray
) -> np.ndarray:
    """sum_e h_e ||J_e||^2_{L2(e)} per element (Dirichlet edges excluded).

    ``jac`` holds the element Jacobians of the field.  The flux of
    ``pml.flux_terms`` is linear in the gradient, so the jump J_e along an
    edge is the flux of the gradient jump, each term weighted by rho^p of
    ``pml.layer_weights`` at the points y_q of the 5-point ``EDGE_RULE``,
    and ||J_e||^2 is that rule of |J_e|^2 summed over the two components:

        ||J_e||^2 ~= h_e * sum_q w_q sum_c |J_e,c(y_q)|^2
    """
    edges, _, edge_tri = mesh.edge_structure
    dvec = mesh.nodes[edges[:, 1]] - mesh.nodes[edges[:, 0]]
    h = mesh.edge_lengths

    interior = np.nonzero(edge_tri[:, 1] >= 0)[0]
    t1, t2 = edge_tri[interior, 0], edge_tri[interior, 1]
    # a left wall edge is jumped against its mirror; the wall normal is e_x
    left, mate = mesh.edge_partners.T
    tl, tr = edge_tri[left, 0], edge_tri[mate, 0]
    j = np.concatenate([jac[t1] - jac[t2], jac[tl] - np.conj(ctx.phase) * jac[tr]])
    normal = (
        np.concatenate([dvec[interior, 1] / h[interior], np.ones(left.size)]),
        np.concatenate([-dvec[interior, 0] / h[interior], np.zeros(left.size)]),
    )
    eids = np.concatenate([interior, left])
    tq, wq = EDGE_RULE
    r = rho(profile, mesh.nodes[edges[eids, 0], 1, None] + dvec[eids, 1, None] * tq)
    weight = layer_weights(r, 0.0)  # no derivative is read
    flux = [0.0, 0.0]
    for p, c, d, e, f, coef in flux_terms(ctx):
        flux[c] = flux[c] + (coef * j[:, e, f] * normal[d])[:, None] * weight[p][0]
    dens = np.abs(flux[0]) ** 2 + np.abs(flux[1]) ** 2
    q_e = h[eids] ** 2 * (dens @ wq)
    n = mesh.n_tris
    return np.bincount(np.concatenate([t1, tl]), q_e, minlength=n) + np.bincount(
        np.concatenate([t2, tr]), q_e, minlength=n
    )


def _line_terms(
    mesh: Mesh, field: np.ndarray, ctx: WaveContext, amplitude: float,
    on_line: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The edges ``Mesh.edges_on(on_line)``: each one's element and its
    int_e |I_h u - amplitude * u_inc|^2, by the 5-point ``EDGE_RULE``."""
    edges, _, edge_tri = mesh.edge_structure
    eids = np.nonzero(mesh.edges_on(on_line))[0]
    a, b = edges[eids, 0], edges[eids, 1]
    pa, pb = mesh.nodes[a], mesh.nodes[b]
    h = mesh.edge_lengths[eids]
    tq, wq = EDGE_RULE
    pts = pa[:, None, :] + (pb - pa)[:, None, :] * tq[None, :, None]
    target = amplitude * incident_field(ctx, pts[..., 0], pts[..., 1])
    lerp = (
        field[a][:, None, :] * (1.0 - tq)[None, :, None]
        + field[b][:, None, :] * tq[None, :, None]
    )
    dens = (np.abs(lerp - target) ** 2).sum(axis=2)
    return edge_tri[eids, 0], h * (dens @ wq)


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
    jac = p1_jacobian(field[mesh.tris], mesh.grads)
    res = _residuals(mesh, field, ctx, profile, source, amplitude, jac)
    jumps = _jumps(mesh, ctx, profile, jac)
    eta = mesh.diameters * res + np.sqrt(0.5 * jumps)

    top_tris, top_sq = _line_terms(mesh, field, ctx, amplitude, mesh.on_top)
    top_terms = np.sqrt(np.bincount(top_tris, top_sq, minlength=mesh.n_tris))
    _, gamma_sq = _line_terms(mesh, field, ctx, amplitude, mesh.on_gamma)
    global_eta = float(np.sqrt(((eta + top_terms) ** 2).sum()))
    return ErrorIndicators(
        eta=eta,
        residual_terms=res,
        jump_terms=jumps,
        top_terms=top_terms,
        global_eta=global_eta,
        eps_fem=float(np.sqrt(top_sq.sum())) + global_eta,
        eps_pml=f_hat * float(np.sqrt(gamma_sq.sum())),
    )
