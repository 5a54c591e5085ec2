"""One measured ``gratpml.run`` in a fresh process (launched by run.py).

Argument: a JSON object with the keys

    root          checkout root (``src/`` is put first on the import path)
    config        config file, relative to root
    overrides     RunConfig fields replaced after loading
    error_field   record attribute compared against error_target
    error_target  time_to_err_cpu_s is when the error curve reaches it
    trace         path for the span file, or null for an untraced run

The thread-count environment variables are set by the parent before this
process starts, so they are in place before numpy loads.  The last line of
standard output is a JSON object with the measured values, the output checks
that failed (``problems``) and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import resource
import sys
import time

# Largest eps_pml / eps_fem accepted as "layer error negligible".
PML_TO_FEM_MAX = 1e-3
# Largest |sum of efficiencies - 1| accepted for the final solve.
ENERGY_DEFECT_MAX = 1e-2


def checks(result, time_to_err: float) -> list[str]:
    """Output checks of one run; each failed one is a problem string."""
    problems = []
    final = result.final
    bad = [r.iteration for r in result.records if not r.solve.ok]
    if bad:
        problems.append(f"solve not ok at iterations {bad}")
    if not final.eps_pml <= PML_TO_FEM_MAX * final.eps_fem:
        problems.append(
            f"eps_pml {final.eps_pml:.3g} not << eps_fem {final.eps_fem:.3g}"
        )
    if not (math.isfinite(final.energy_total)
            and abs(final.energy_total - 1.0) <= ENERGY_DEFECT_MAX):
        problems.append(f"energy_total {final.energy_total!r} not near 1")
    if not math.isfinite(time_to_err):
        problems.append("error target never reached")
    return problems


def stamp() -> tuple[float, float]:
    """(wall, CPU) clocks now.  The CPU clock of this single-threaded process
    leaves out the time the host gives its core to other machines (steal)."""
    return time.perf_counter(), time.process_time()


def time_to_error(times: list[float], errors: list[float], target: float) -> float:
    """When the error curve reaches ``target``, in seconds after the run call.

    ``times`` are the progress callbacks of the records with ``errors``.  The
    crossing is interpolated linearly in log(error) between the last record
    above the target and the first at or below it: taking the callback of
    that first record instead jumps by a whole iteration (10-20 % of the run)
    when an input shifts the error curve slightly.  NaN when never reached.
    """
    for k, err in enumerate(errors):
        if err <= target:
            if k == 0:
                return times[0]
            hi, lo = math.log(errors[k - 1]), math.log(err)
            share = (hi - math.log(target)) / (hi - lo)
            return times[k - 1] + share * (times[k] - times[k - 1])
    return math.nan


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    start = stamp()
    import gratpml
    import numpy
    import scipy

    cfg = gratpml.load_config(os.path.join(spec["root"], spec["config"]))
    cfg = dataclasses.replace(cfg, **spec["overrides"])
    cfg.validate()

    tracer = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    # The loop's first call, build_dofmap, marks the end of set-up; the
    # wrapper puts the original binding back, so later calls are not wrapped.
    loop_start: list[tuple[float, float]] = []
    build_dofmap = gratpml.adapt.build_dofmap

    def first_build_dofmap(*args, **kwargs):
        loop_start.append(stamp())
        gratpml.adapt.build_dofmap = build_dofmap
        return build_dofmap(*args, **kwargs)

    gratpml.adapt.build_dofmap = first_build_dofmap
    stamps: list[tuple[float, float]] = []
    t0 = stamp()
    root = tracer.open(tracing.ROOT) if tracer else None
    result = gratpml.run(cfg, progress=lambda rec: stamps.append(stamp()))
    if tracer:
        tracer.close(root)
    t1 = stamp()

    records = result.records
    wall_s = t1[0] - t0[0]
    field = spec["error_field"]
    errors = [getattr(r, field) for r in records]
    target = spec["error_target"]
    time_to_err = [time_to_error([t[k] - t0[k] for t in stamps], errors, target)
                   for k in (0, 1)]
    out = {
        "wall_s": wall_s,
        "run_cpu_s": t1[1] - t0[1],
        "setup_wall_s": loop_start[0][0] - start[0],
        "setup_s": loop_start[0][1] - start[1],
        "time_to_err_wall_s": time_to_err[0],
        "time_to_err_cpu_s": time_to_err[1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "h1_error": errors[-1],
        "energy_defect": records[-1].energy_defect,
        "stop_reason": result.stop_reason,
        "iterations": len(records),
        "final_dofs": records[-1].n_dofs,
        "theta_deg": cfg.theta_deg,
        "problems": checks(result, time_to_err[1]),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer:
        out["problems"] += tracing.check_spans(tracer, wall_s)
        out["layers"] = tracing.layer_metrics(tracer, result)
        tracer.write(spec["trace"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
