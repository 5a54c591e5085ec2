"""Command-line interface.

    gratpml solve     --config run.cfg [--out DIR] [--quiet]
    gratpml mesh-info --config run.cfg [--out DIR]

``solve`` is the one adaptive run: a flat grating gives the true-error
study and ``max_iters = 1`` the single solve on the initial mesh.
``mesh-info`` is the one setup report: the target, the thickness bound and
the layer that ``pml.calibrate`` selects, then the initial mesh.  A config
cannot set the layer.  Exit codes: 0 success, 2 configuration problem (bad
file, bad geometry, inadmissible parameters, an output directory that
cannot be written), 3 numerical failure (resonance, singular system,
calibration impossible, trace coverage).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

import numpy as np

from .adapt import (
    run,
    setup,
    write_convergence_csv,
    write_efficiency_csv,
    write_summary,
    write_vtk_series,
)
from .config import ConfigError, RunConfig, load_config
from .meshing import (
    PHYSICAL,
    PML,
    GeometryError,
    generate_initial,
    initial_dofs,
    write_vtk,
)
from .pml import TARGET_FHAT, CalibrationError, thickness_bound
from .rayleigh import TraceError
from .solver import SolverError
from .waves import ResonanceError

__all__ = ["main"]

_CONFIG_ERRORS = (ConfigError, GeometryError, ValueError, OSError)
_NUMERICAL_ERRORS = (SolverError, CalibrationError, ResonanceError, TraceError)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gratpml",
        description=(
            "Adaptive finite elements for elastic wave scattering by "
            "periodic grating surfaces"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # each command registers only the options its handler reads
    solve = sub.add_parser("solve", help="run the adaptive loop and write reports")
    info = sub.add_parser("mesh-info", help="print the calibrated layer, and why, "
                          "and the initial mesh's statistics")
    solve.set_defaults(handler=_cmd_solve)
    info.set_defaults(handler=_cmd_mesh_info)
    for p, out_help in ((solve, "output directory (overrides [output] dir)"),
                        (info, "write mesh_initial.vtk into this directory")):
        p.add_argument("--config", required=True, help="configuration file")
        p.add_argument("--out", help=out_help)
    solve.add_argument("--quiet", action="store_true", help="suppress progress")
    return parser


def _progress_printer(quiet: bool):
    if quiet:
        return None

    def emit(rec):
        true_part = (
            f" trueH1={rec.true_error:.3e}" if np.isfinite(rec.true_error) else ""
        )
        print(
            f"iter {rec.iteration:2d}: dofs={rec.n_dofs:7d} "
            f"eta={rec.global_eta:.3e} eps_fem={rec.eps_fem:.3e} "
            f"eps_pml={rec.eps_pml:.3e} energy={rec.energy_total:.6f}"
            f"{true_part}"
        )

    return emit


@contextlib.contextmanager
def _output_dir(path):
    """Create the directory ``path`` (if given) before the command's work,
    so that an unwritable path fails first; when the command then fails,
    remove the directories created here that are still empty."""
    if not path:
        yield
        return
    created = []  # deepest first
    head = os.path.abspath(path)
    while not os.path.exists(head):
        created.append(head)
        head = os.path.dirname(head)
    try:
        os.makedirs(path, exist_ok=True)
        yield
    except BaseException:
        for new in created:
            try:
                os.rmdir(new)
            except OSError:  # not empty, or never made
                break
        raise


def _cmd_solve(cfg: RunConfig, args) -> int:
    out = args.out if args.out else cfg.out_dir
    with _output_dir(out):
        result = run(cfg, _progress_printer(args.quiet))
        write_convergence_csv(result, os.path.join(out, "convergence.csv"))
        write_efficiency_csv(result.final.efficiency, os.path.join(out, "efficiency.csv"))
        write_summary(result, os.path.join(out, "run_summary.txt"))
        if cfg.write_vtk:
            write_vtk_series(result, out)
        if cfg.write_system:
            result.system.write_matrix_market(os.path.join(out, "system.mtx"))
    if not args.quiet:
        print(f"stopped: {result.stop_reason}; reports in {out}/")
    return 0


def _cmd_mesh_info(cfg: RunConfig, args) -> int:
    # a failed calibration names the target, the best F_hat and the bound
    with _output_dir(args.out):  # fail before anything is printed
        ctx, modes, geom, profile, mc = setup(cfg)
        mesh = generate_initial(geom, ctx, profile, cfg.h0)
        mesh.validate(geom)
        areas = mesh.areas
        print(f"target:   F_hat * sqrt(period) <= {TARGET_FHAT:.3g}")
        print(f"bound:    delta >= {thickness_bound(ctx, modes):.5g}")
        print(f"layer:    delta = {profile.delta!r}, zeta = {profile.zeta!r}, "
              f"F = {mc.f:.4e}, F_hat = {mc.f_hat:.4e}, "
              f"F_hat*sqrtP = {mc.f_hat * np.sqrt(ctx.period):.4e}, "
              f"coercive = {mc.coercive}")
        print(f"nodes:    {mesh.n_nodes}")
        print(f"elements: {mesh.n_tris} "
              f"(physical {int((mesh.region == PHYSICAL).sum())}, "
              f"layer {int((mesh.region == PML).sum())})")
        print(f"dofs:     {initial_dofs(geom, ctx, profile, cfg.h0)}")
        print(f"area:     min {areas.min():.6g}, max {areas.max():.6g}, "
              f"total {areas.sum():.6g}")
        print(f"diameter: max {mesh.diameters.max():.6g}")
        if args.out:
            path = os.path.join(args.out, "mesh_initial.vtk")
            write_vtk(mesh, path, cell_data={"region": mesh.region.astype(float)})
            print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.handler(cfg, args)
    except _NUMERICAL_ERRORS as exc:
        # checked first: ResonanceError is a ValueError but not a user error
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except _CONFIG_ERRORS as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
