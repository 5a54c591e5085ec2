"""Adaptive finite elements for elastic scattering by periodic gratings.

The package solves time-harmonic elastic wave scattering by one-dimensional
periodic grating surfaces: the half space above the grating is truncated by
a complex-stretched absorbing layer, the resulting problem is discretized
with quasi-periodic P1 elements, and the mesh is driven by a residual
a posteriori estimator until the discretization error measure meets the
requested tolerance.  Modal post-processing recovers the outgoing wave
potentials and grating efficiencies, whose sum tests energy conservation.

Typical use::

    from gratpml import load_config, run

    cfg = load_config("run.cfg")
    result = run(cfg)
    print(result.final.efficiency.total)
"""

from .adapt import (
    AdaptiveRun,
    IterationRecord,
    run,
    setup,
    write_convergence_csv,
    write_efficiency_csv,
    write_summary,
    write_vtk_series,
)
from .assembly import (
    DofMap,
    SparseSystem,
    assemble,
    build_dofmap,
    layer_source,
)
from .config import ConfigError, RunConfig, load_config, write_config
from .estimator import ErrorIndicators, indicators
from .exact import FlatSolution, fit_slope, flat_solution, h1_seminorm_error
from .meshing import (
    GeometryError,
    GratingProfile,
    Mesh,
    bisect,
    flat_profile,
    generate_initial,
    load_profile,
    locate_corner_fraction,
    mark,
    sharp_profile,
    write_vtk,
)
from .pml import (
    CalibrationError,
    ModelingConstants,
    PmlProfile,
    calibrate,
    make_pml,
    modeling_constants,
    pml_source,
    rho,
    rho_prime,
)
from .rayleigh import (
    EfficiencyReport,
    ParameterRegimeError,
    TraceError,
    ab_coefficients,
    dtn_matrix,
    efficiencies,
    fourier_trace,
    layer_dtn_matrix,
    layer_system,
    recover_potentials,
    spectral_norm_2x2,
)
from .solver import SolveReport, SolverError, solve_system
from .waves import (
    ModeTable,
    ResonanceError,
    WaveContext,
    build_mode_table,
    derive_context,
    incident_field,
    incident_gradient,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptiveRun",
    "CalibrationError",
    "ConfigError",
    "DofMap",
    "EfficiencyReport",
    "ErrorIndicators",
    "FlatSolution",
    "GeometryError",
    "GratingProfile",
    "IterationRecord",
    "Mesh",
    "ModeTable",
    "ModelingConstants",
    "ParameterRegimeError",
    "PmlProfile",
    "ResonanceError",
    "RunConfig",
    "SolveReport",
    "SolverError",
    "SparseSystem",
    "TraceError",
    "WaveContext",
    "ab_coefficients",
    "assemble",
    "bisect",
    "build_dofmap",
    "build_mode_table",
    "calibrate",
    "derive_context",
    "dtn_matrix",
    "efficiencies",
    "fit_slope",
    "flat_profile",
    "flat_solution",
    "fourier_trace",
    "generate_initial",
    "h1_seminorm_error",
    "incident_field",
    "incident_gradient",
    "indicators",
    "layer_dtn_matrix",
    "layer_source",
    "layer_system",
    "load_config",
    "load_profile",
    "locate_corner_fraction",
    "make_pml",
    "mark",
    "modeling_constants",
    "pml_source",
    "recover_potentials",
    "rho",
    "rho_prime",
    "run",
    "setup",
    "sharp_profile",
    "solve_system",
    "spectral_norm_2x2",
    "write_config",
    "write_convergence_csv",
    "write_efficiency_csv",
    "write_summary",
    "write_vtk",
    "write_vtk_series",
    "__version__",
]
