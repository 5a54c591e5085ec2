"""The adaptive solve-estimate-mark-refine driver.

``run`` executes the full pipeline for one configuration: derive the wave
context and mode table, calibrate the absorbing layer, generate the initial
mesh, then iterate

    assemble -> solve -> estimate -> analyze modes -> mark -> bisect

until the discretization error measure eps_fem falls below the configured
tolerance, the iteration budget is exhausted, or the next solve would exceed
the dof budget (an initial mesh over that budget is a configuration error,
found from ``initial_dofs`` before the mesh is built).  The layer volume
data g = L u_inc is evaluated once per element: assembly and estimator share
it within an iteration, and the rows of the elements that ``bisect`` leaves
unrefined carry over to the next mesh.  Every iteration is retained as an
IterationRecord (with its mesh and nodal field), so reports and convergence
studies can be produced after the fact without re-running.  A record's mesh
shares the stored arrays (nodes, triangles, refinement edges) of the loop's
working mesh but none of its derived data: edges, geometry and flags live
only on the working mesh, which is dropped when the loop moves to the next
mesh.  A record's mesh computes whatever is asked of it on first use.

Marking takes the bulk fraction 0.5.  Each record counts the elements near
the profile's peaks (NaN for a profile without one).  For a flat grating
the exact solution is known in closed form and the true H1-seminorm error
is recorded alongside the estimate; for other profiles that column is NaN.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field

import numpy as np

from .assembly import SparseSystem, assemble, build_dofmap, layer_source
from .config import ConfigError, RunConfig
from .estimator import ErrorIndicators, indicators
from .exact import FlatSolution, fit_slope, flat_solution, h1_seminorm_error
from .meshing import (
    GratingProfile,
    Mesh,
    bisect,
    flat_profile,
    generate_initial,
    initial_dofs,
    load_profile,
    locate_corner_fraction,
    mark,
    sharp_profile,
    write_vtk,
)
from .pml import ModelingConstants, PmlProfile, calibrate, modeling_constants
from .rayleigh import EfficiencyReport, efficiencies, fourier_trace, recover_potentials
from .solver import SolveReport, solve_system
from .waves import ModeTable, WaveContext, build_mode_table

#: radius of the disk counted around each tracked corner, in periods
_CORNER_RADIUS = 0.1

__all__ = [
    "IterationRecord",
    "AdaptiveRun",
    "setup",
    "run",
    "write_convergence_csv",
    "write_efficiency_csv",
    "write_summary",
    "write_vtk_series",
]


@dataclass
class IterationRecord:
    """Everything measured on one mesh of the adaptive loop.

    Stored: ``iteration``, ``true_error`` (NaN without an exact solution),
    ``corner_fraction``, ``wall_time`` and the stage results ``solve``,
    ``efficiency``, ``indicators``, ``mesh`` and ``field_values``.

    Derived, read from those stage results: ``n_nodes`` and ``n_tris``
    (``mesh``), ``n_dofs`` (``solve.n``, the size of the solved system),
    ``global_eta``, ``eps_fem`` and ``eps_pml`` (``indicators``),
    ``energy_total`` (``efficiency.total``) and ``energy_defect``
    (``|efficiency.total - 1|``).
    """

    iteration: int
    true_error: float
    corner_fraction: float
    wall_time: float
    solve: SolveReport
    efficiency: EfficiencyReport
    indicators: ErrorIndicators = field(repr=False)
    mesh: Mesh = field(repr=False)
    field_values: np.ndarray = field(repr=False)

    @property
    def n_nodes(self) -> int:
        return self.mesh.n_nodes

    @property
    def n_tris(self) -> int:
        return self.mesh.n_tris

    @property
    def n_dofs(self) -> int:
        return self.solve.n

    @property
    def global_eta(self) -> float:
        return self.indicators.global_eta

    @property
    def eps_fem(self) -> float:
        return self.indicators.eps_fem

    @property
    def eps_pml(self) -> float:
        return self.indicators.eps_pml

    @property
    def energy_total(self) -> float:
        return self.efficiency.total

    @property
    def energy_defect(self) -> float:
        return abs(self.efficiency.total - 1.0)


@dataclass
class AdaptiveRun:
    """Result of one adaptive run: per-iteration records plus the setup."""

    config: RunConfig
    ctx: WaveContext
    modes: ModeTable
    geometry: GratingProfile
    profile: PmlProfile
    constants: ModelingConstants
    records: list[IterationRecord]
    stop_reason: str
    #: the reduced system the last iteration solved
    system: SparseSystem

    @property
    def final(self) -> IterationRecord:
        return self.records[-1]


def setup(
    cfg: RunConfig,
) -> tuple[WaveContext, ModeTable, GratingProfile, PmlProfile, ModelingConstants]:
    """Derive context, modes, geometry and the calibrated layer of a config."""
    ctx = WaveContext(
        omega=cfg.omega,
        lam=cfg.lam,
        mu=cfg.mu,
        theta=cfg.theta,
        period=cfg.period,
        gamma_height=cfg.gamma_height,
    )
    modes = build_mode_table(ctx)
    if cfg.grating == "flat":
        geom = flat_profile(cfg.period)
    elif cfg.grating == "sharp":
        geom = sharp_profile(cfg.period)
    else:
        geom = load_profile(cfg.grating_file)
    profile = calibrate(ctx, modes)
    constants = modeling_constants(ctx, modes, profile)
    return ctx, modes, geom, profile, constants


def run(cfg: RunConfig, progress=None) -> AdaptiveRun:
    """Execute the adaptive loop for one configuration.

    Parameters
    ----------
    cfg : RunConfig
    progress : callable, optional
        Called with each IterationRecord as it completes.

    Returns
    -------
    AdaptiveRun
        Holds at least one record; ``stop_reason`` is one of "tolerance",
        "max_iterations", "max_dofs".  ConfigError is raised instead for an
        inconsistent ``cfg`` or an initial mesh with more dofs than allowed.
    """
    cfg.validate()
    ctx, modes, geom, profile, constants = setup(cfg)
    if initial_dofs(geom, ctx, profile, cfg.h0) > cfg.max_dofs:
        raise ConfigError("the initial mesh has more dofs than "
                          f"[adapt] max_dofs = {cfg.max_dofs}")
    exact: FlatSolution | None = (
        flat_solution(ctx) if geom.is_flat_at_zero else None
    )
    corners, radius = geom.reentrant_corners, _CORNER_RADIUS * ctx.period
    mesh = generate_initial(geom, ctx, profile, cfg.h0)

    records: list[IterationRecord] = []
    stop_reason = "max_iterations"
    source = None  # layer_source values known for the leading elements of mesh
    for it in range(cfg.max_iters):
        t0 = time.perf_counter()
        dofmap = build_dofmap(mesh, ctx)
        if dofmap.n_free > cfg.max_dofs:
            stop_reason = "max_dofs"
            break
        source = layer_source(mesh, ctx, profile, carried=source)
        system = assemble(mesh, ctx, profile, dofmap, source=source)
        x, report = solve_system(system)
        values = dofmap.expand(x)
        ind = indicators(mesh, values, ctx, profile, constants.f_hat, source=source)
        trace = fourier_trace(mesh, values, modes)
        eff = efficiencies(modes, recover_potentials(modes, trace))
        true_error = (
            h1_seminorm_error(mesh, values, exact)
            if exact is not None
            else float("nan")
        )
        fraction = locate_corner_fraction(mesh, corners, radius)
        record = IterationRecord(
            iteration=it,
            true_error=true_error,
            corner_fraction=fraction,
            wall_time=time.perf_counter() - t0,
            solve=report,
            efficiency=eff,
            indicators=ind,
            # the stored arrays only: derived data stays on the working mesh
            mesh=Mesh(mesh.nodes, mesh.tris, mesh.ref_edge,
                      mesh.period, mesh.b, mesh.top),
            field_values=values,
        )
        records.append(record)
        if progress is not None:
            progress(record)
        if ind.eps_fem <= cfg.tolerance:
            stop_reason = "tolerance"
            break
        if it == cfg.max_iters - 1:
            break
        mesh, kept = bisect(mesh, mark(ind.eta_hat))
        source = source[kept]

    return AdaptiveRun(
        config=cfg,
        ctx=ctx,
        modes=modes,
        geometry=geom,
        profile=profile,
        constants=constants,
        records=records,
        stop_reason=stop_reason,
        system=system,
    )


_CONVERGENCE_COLUMNS = [
    ("iteration", lambda r: r.iteration),
    ("nodes", lambda r: r.n_nodes),
    ("elements", lambda r: r.n_tris),
    ("dofs", lambda r: r.n_dofs),
    ("global_eta", lambda r: r.global_eta),
    ("eps_fem", lambda r: r.eps_fem),
    ("eps_pml", lambda r: r.eps_pml),
    ("energy_total", lambda r: r.energy_total),
    ("energy_defect", lambda r: r.energy_defect),
    ("true_error", lambda r: r.true_error),
    ("corner_fraction", lambda r: r.corner_fraction),
    ("solve_residual", lambda r: r.solve.residual),
    ("wall_time", lambda r: r.wall_time),
    ("fill_factor", lambda r: r.solve.fill_factor),
    ("pivot_ratio", lambda r: r.solve.pivot_ratio),
    ("precision", lambda r: r.solve.precision),
    ("refinements", lambda r: r.solve.refinements),
]


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def write_convergence_csv(run_result: AdaptiveRun, path) -> None:
    """One row per iteration with all scalar convergence measures."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([name for name, _ in _CONVERGENCE_COLUMNS])
        for rec in run_result.records:
            writer.writerow([_fmt(get(rec)) for _, get in _CONVERGENCE_COLUMNS])


def write_efficiency_csv(report: EfficiencyReport, path) -> None:
    """Propagating-mode efficiencies of one solve, one row per mode."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mode", "compressional", "shear"])
        for n, e1, e2 in report.propagating():
            writer.writerow([n, _fmt(e1), _fmt(e2)])
        writer.writerow(["total", _fmt(report.total), ""])


def write_summary(run_result: AdaptiveRun, path) -> None:
    """Human-readable closing report of one adaptive run.

    A run of two or more iterations also reports the slopes of ``eps_fem``
    and, where it exists, of the true H1 error against dofs, fitted by
    ``fit_slope`` over the last four iterations (optimal P1: -1/2), and the
    dofs at which that ``eps_fem`` slope reaches the tolerance.
    """
    cfg = run_result.config
    ctx = run_result.ctx
    prof = run_result.profile
    mc = run_result.constants
    rec = run_result.final
    corners = run_result.geometry.reentrant_corners.tolist()
    tracked = ", ".join(f"({x!r}, {y!r})" for x, y in corners)
    lines = [
        "adaptive grating solve",
        "=" * 60,
        f"omega = {ctx.omega!r}, lambda = {ctx.lam!r}, mu = {ctx.mu!r}",
        f"theta = {cfg.theta_deg!r} deg, period = {ctx.period!r}, "
        f"interface height = {ctx.gamma_height!r}",
        f"wavenumbers: kappa1 = {ctx.kappa1!r}, kappa2 = {ctx.kappa2!r}",
        f"grating: file {cfg.grating_file}" if cfg.grating_file
        else f"grating: {cfg.grating}",
        f"corners: [{tracked}], radius {_CORNER_RADIUS * ctx.period!r}"
        if corners else "corners: none",
        f"layer: sigma = {prof.sigma!r}, m = {prof.m}, delta = {prof.delta!r}",
        f"       zeta = {prof.zeta!r}",
        f"       F = {mc.f!r}, F_hat = {mc.f_hat!r}, coercive = {mc.coercive}",
        f"modes: |n| <= {run_result.modes.n_max}",
        "",
        f"iterations: {len(run_result.records)} (stop: {run_result.stop_reason})",
        f"final mesh: {rec.n_nodes} nodes, {rec.n_tris} elements, "
        f"{rec.n_dofs} dofs",
        f"final solve: {rec.solve}",
        f"final eps_fem = {rec.eps_fem!r}",
        f"final eps_pml = {rec.eps_pml!r}",
        f"final energy total = {rec.energy_total!r} "
        f"(defect {rec.energy_defect!r})",
    ]
    if np.isfinite(rec.true_error):
        lines.append(f"final true H1 error = {rec.true_error!r}")
    records = run_result.records
    if len(records) >= 2:
        dofs = [r.n_dofs for r in records]
        slope = fit_slope(dofs, [r.eps_fem for r in records], last=4)
        lines.append(f"eps_fem slope (last 4) = {slope!r}")
        need = np.inf  # eps_fem ~ dofs**slope meets the tolerance only if it falls
        if slope < 0.0:
            with np.errstate(over="ignore"):
                need = rec.n_dofs * np.power(cfg.tolerance / rec.eps_fem, 1 / slope)
        verdict = "above" if need > cfg.max_dofs else "within"
        lines.append(f"dofs projected for tolerance {cfg.tolerance!r} at that slope: "
                     f"{need:.3g} ({verdict} max_dofs = {cfg.max_dofs})")
        if np.isfinite(rec.true_error):
            slope = fit_slope(dofs, [r.true_error for r in records], last=4)
            lines.append(f"true H1 slope (last 4) = {slope!r}")
    lines += ["", "efficiencies (propagating modes):"]
    for n, e1, e2 in rec.efficiency.propagating():
        lines.append(f"  n = {n:+d}: compressional = {e1!r}, shear = {e2!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_vtk_series(run_result: AdaptiveRun, out_dir) -> list[str]:
    """Write mesh_NNN.vtk per iteration (solution and indicators attached)."""
    import os

    paths = []
    for rec in run_result.records:
        path = os.path.join(str(out_dir), f"mesh_{rec.iteration:03d}.vtk")
        write_vtk(
            rec.mesh,
            path,
            point_data={
                "u1": rec.field_values[:, 0],
                "u2": rec.field_values[:, 1],
            },
            cell_data={
                "eta_hat": rec.indicators.eta_hat,
                "region": rec.mesh.region.astype(float),
            },
        )
        paths.append(path)
    return paths
