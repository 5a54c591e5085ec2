"""Layer spans around one ``gratpml.run`` call, recorded from outside the package.

``install`` rebinds the module-level names that ``gratpml.adapt``,
``gratpml.solver``, ``gratpml.assembly`` and ``gratpml.estimator`` look up
at call time to timing wrappers, so the shipped ``run()`` executes unchanged
while every call into a layer leaves a span.  The factorization returned by
``splu`` is wrapped in a proxy that times access to ``.L``/``.U`` (each
access builds a sparse matrix) and ``.solve``.

Spans are kept in memory as ``[name, start, end, parent, iteration]`` and
written out at the end.  A span's self time is its duration minus the
durations of its direct children; the self time of the root span (the
``run`` call itself) is the loop's own overhead, ``adapt.loop_self_s``.
"""

from __future__ import annotations

import contextlib
import json
import time

import numpy as np

ROOT = "adapt.run"

# Names looked up by gratpml.adapt -> span name; the part before the dot is
# the layer.
_ADAPT_NAMES = [
    ("setup", "adapt.setup"),
    ("build_mode_table", "waves.build_mode_table"),
    ("calibrate", "pml.calibrate"),
    ("modeling_constants", "pml.modeling_constants"),
    ("flat_solution", "exact.flat_solution"),
    ("generate_initial", "meshing.generate_initial"),
    ("build_dofmap", "assembly.build_dofmap"),
    ("assemble", "assembly.assemble"),
    ("solve_system", "solver.solve_system"),
    ("indicators", "estimator.indicators"),
    ("fourier_trace", "rayleigh.fourier_trace"),
    ("recover_potentials", "rayleigh.recover_potentials"),
    ("efficiencies", "rayleigh.efficiencies"),
    ("h1_seminorm_error", "exact.h1_seminorm_error"),
    ("locate_corner_fraction", "meshing.locate_corner_fraction"),
    ("mark", "meshing.mark"),
    ("bisect", "meshing.bisect"),
]


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.iteration = -1
        self.marked: list[np.ndarray] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.iteration])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def write(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, it in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start - t0, "end": end - t0,
                    "parent": parent, "iteration": it,
                }) + "\n")


class _TracedLU:
    """Proxy of a SuperLU object that times the factor extraction and solve."""

    def __init__(self, lu, tracer: Tracer) -> None:
        self._lu = lu
        self._tracer = tracer

    @property
    def L(self):
        with self._tracer.span("solver.lu_extract"):
            return self._lu.L

    @property
    def U(self):
        with self._tracer.span("solver.lu_extract"):
            return self._lu.U

    def solve(self, *args, **kwargs):
        with self._tracer.span("solver.trisolve"):
            return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def install(tracer: Tracer) -> None:
    """Route the calls of ``gratpml.run`` through span-recording wrappers."""
    import gratpml.adapt as adapt
    import gratpml.assembly as assembly
    import gratpml.estimator as estimator
    import gratpml.solver as solver

    for attr, name in _ADAPT_NAMES:
        setattr(adapt, attr, tracer.wrap(name, getattr(adapt, attr)))

    # Every loop iteration starts with the dof map: advance the index there.
    dofmap = adapt.build_dofmap

    def build_dofmap(*args, **kwargs):
        tracer.iteration += 1
        return dofmap(*args, **kwargs)

    adapt.build_dofmap = build_dofmap

    mark = adapt.mark

    def mark_and_keep(*args, **kwargs):
        marked = mark(*args, **kwargs)
        tracer.marked.append(marked)
        return marked

    adapt.mark = mark_and_keep

    splu = tracer.wrap("solver.splu", solver.splu)
    solver.splu = lambda *args, **kwargs: _TracedLU(splu(*args, **kwargs), tracer)

    for module in (assembly, estimator):
        module.pml_source = tracer.wrap("pml.pml_source", module.pml_source)
        module.rho = tracer.wrap("pml.rho", module.rho)


# Per-layer time metrics: metric name -> (span names, self time or total).
_TIME_METRICS = {
    "solver.factor_s": (("solver.splu",), False),
    "solver.lu_extract_s": (("solver.lu_extract",), False),
    "solver.trisolve_s": (("solver.trisolve",), False),
    "solver.self_s": (("solver.solve_system",), True),
    "assembly.assemble_s": (("assembly.assemble",), True),
    "assembly.dofmap_s": (("assembly.build_dofmap",), False),
    "pml.source_s": (("pml.pml_source",), False),
    "pml.rho_s": (("pml.rho",), False),
    "estimator.indicators_s": (("estimator.indicators",), True),
    "meshing.bisect_s": (("meshing.bisect",), False),
    "meshing.mark_s": (("meshing.mark",), False),
    "meshing.generate_initial_s": (("meshing.generate_initial",), False),
    "meshing.corner_s": (("meshing.locate_corner_fraction",), False),
    "rayleigh.post_s": (
        ("rayleigh.fourier_trace", "rayleigh.recover_potentials",
         "rayleigh.efficiencies"), False),
    "exact.h1_error_s": (("exact.flat_solution", "exact.h1_seminorm_error"), False),
    "waves.mode_table_s": (("waves.build_mode_table",), False),
    "pml.calibrate_s": (("pml.calibrate", "pml.modeling_constants"), False),
    "adapt.setup_self_s": (("adapt.setup",), True),
    "adapt.loop_self_s": ((ROOT,), True),
}


def check_spans(tracer: Tracer, wall_s: float) -> list[str]:
    """Problems with the recorded spans; empty when they account for wall_s."""
    problems = []
    own = tracer.self_times()
    if min(own) < -1e-6:
        problems.append(f"negative self time {min(own):.3g} s")
    if abs(sum(own) - wall_s) > 1e-3 + 1e-3 * wall_s:
        problems.append(
            f"self times sum to {sum(own):.6f} s, traced wall_s is {wall_s:.6f} s"
        )
    return problems


def layer_metrics(tracer: Tracer, result) -> dict[str, float]:
    """Per-layer times from the spans and counts from the run's records."""
    from gratpml.meshing import PHYSICAL

    own = tracer.self_times()
    total: dict[str, float] = {}
    selfs: dict[str, float] = {}
    for (name, start, end, _, _), s in zip(tracer.spans, own):
        total[name] = total.get(name, 0.0) + (end - start)
        selfs[name] = selfs.get(name, 0.0) + s
    out = {
        metric: sum((selfs if use_self else total).get(n, 0.0) for n in names)
        for metric, (names, use_self) in _TIME_METRICS.items()
    }

    records = result.records
    final = records[-1]
    layer = final.mesh.region != PHYSICAL
    eta2 = final.indicators.eta_hat ** 2
    marked = sum(m.size for m in tracer.marked)
    marked_layer = sum(
        int(np.count_nonzero(rec.mesh.region[m] != PHYSICAL))
        for rec, m in zip(records, tracer.marked)
    )
    out.update({
        "solver.fill_factor": final.solve.fill_factor,
        "solver.pivot_ratio_min": min(r.solve.pivot_ratio for r in records),
        "solver.residual_max": max(r.solve.residual for r in records),
        "assembly.nnz": float(sum(r.solve.nnz for r in records)),
        "assembly.dofs_total": float(sum(r.n_dofs for r in records)),
        "estimator.layer_eta2_share": float(eta2[layer].sum() / eta2.sum()),
        "meshing.elements": float(final.n_tris),
        "meshing.layer_elem_frac": float(np.count_nonzero(layer) / layer.size),
        "meshing.marked": float(marked),
        "meshing.marked_layer_frac": marked_layer / marked if marked else 0.0,
        "meshing.corner_fraction": (
            final.corner_fraction if np.isfinite(final.corner_fraction) else 0.0
        ),
        "rayleigh.energy_defect": final.energy_defect,
        "adapt.iterations": float(len(records)),
    })
    return out
