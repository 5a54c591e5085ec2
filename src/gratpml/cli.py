"""Command-line interface.

    gratpml solve         --config run.cfg [--out DIR] [--quiet]
    gratpml pml-calibrate --config run.cfg
    gratpml mesh-info     --config run.cfg [--out DIR]

``solve`` is the one adaptive run: a flat grating gives the true-error
study and ``max_iters = 1`` the single solve on the initial mesh.  Every
command that needs the absorbing layer calibrates it (``pml.calibrate``);
a config cannot set it.  Exit codes: 0 success, 2 configuration problem
(bad file, bad geometry, inadmissible parameters, an output directory that
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
    wave_setup,
    write_convergence_csv,
    write_efficiency_csv,
    write_summary,
    write_vtk_series,
)
from .config import ConfigError, RunConfig, load_config
from .meshing import PHYSICAL, PML, GeometryError, generate_initial, write_vtk
from .pml import TARGET_FHAT, CalibrationError, calibration_walk, select_thickness
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
    commands = {
        "solve": "run the adaptive loop and write reports",
        "pml-calibrate": "tabulate layer constants over the thickness grid",
        "mesh-info": "generate the initial mesh and print its statistics",
    }
    # each command registers only the options its handler reads
    for name, help_text in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="configuration file")
        if name != "pml-calibrate":
            p.add_argument("--out", help="output directory (overrides config)")
        if name == "solve":
            p.add_argument("--quiet", action="store_true", help="suppress progress")
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


def _cmd_pml_calibrate(cfg: RunConfig, args) -> int:
    ctx, modes = wave_setup(cfg)
    steps = list(calibration_walk(ctx, modes))
    chosen = None
    try:
        chosen = select_thickness(steps)  # the layer ``calibrate`` returns
    finally:
        # the table is printed also when no thickness meets the target
        print(f"target: F_hat * sqrt(period) <= {TARGET_FHAT:.3g}")
        print(f"{'delta':>10} {'Re zeta':>10} {'F':>12} {'F_hat':>12} "
              f"{'F_hat*sqrtP':>12} {'coercive':>9}")
        for profile, mc, achieved, _ in steps:
            tag = "  <- selected" if profile == chosen else ""
            print(f"{profile.delta:10.4g} {profile.zeta.real:10.4g} "
                  f"{mc.f:12.4e} {mc.f_hat:12.4e} {achieved:12.4e} "
                  f"{str(mc.coercive):>9}{tag}")
    print(f"zeta at delta = {chosen.delta}: {chosen.zeta}")
    return 0


def _cmd_mesh_info(cfg: RunConfig, args) -> int:
    with _output_dir(args.out):  # fail before anything is printed
        ctx, _, geom, profile, constants = setup(cfg)
        mesh = generate_initial(geom, ctx, profile, cfg.h0)
        mesh.validate(geom)
        areas = mesh.areas()
        print(f"nodes:    {mesh.n_nodes}")
        print(f"elements: {mesh.n_tris} "
              f"(physical {int((mesh.region == PHYSICAL).sum())}, "
              f"layer {int((mesh.region == PML).sum())})")
        print(f"area:     min {areas.min():.6g}, max {areas.max():.6g}, "
              f"total {areas.sum():.6g}")
        print(f"diameter: max {mesh.diameters().max():.6g}")
        print(f"layer:    delta = {profile.delta!r}, zeta = {profile.zeta!r}, "
              f"F_hat = {constants.f_hat:.4e}")
        if args.out:
            path = os.path.join(args.out, "mesh_initial.vtk")
            write_vtk(mesh, path, cell_data={"region": mesh.region.astype(float)})
            print(f"wrote {path}")
    return 0


_DISPATCH = {
    "solve": _cmd_solve,
    "pml-calibrate": _cmd_pml_calibrate,
    "mesh-info": _cmd_mesh_info,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        return _DISPATCH[args.command](cfg, args)
    except _NUMERICAL_ERRORS as exc:
        # checked first: ResonanceError is a ValueError but not a user error
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except _CONFIG_ERRORS as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
