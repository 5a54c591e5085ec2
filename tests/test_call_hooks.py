"""Module-level names that timing wrappers rebind from outside the package.

``benchmarks/tracing.py`` replaces these module attributes with wrappers, so
the package must look them up at call time instead of binding them early
(for example as default arguments or in closures made at import).
"""

import dataclasses
import importlib.util
import pathlib
import time

import gratpml
import gratpml.adapt
import gratpml.assembly
import gratpml.estimator
import gratpml.solver
from gratpml import (
    assemble,
    build_dofmap,
    flat_profile,
    generate_initial,
    indicators,
    load_config,
    solve_system,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent

# The calls a solve and an estimate make through rebindable names.  The
# estimator takes its layer volume data from ``assembly.layer_source``, so
# ``pml_source`` is called through ``gratpml.assembly`` only.
HOOKS = [
    (gratpml.assembly, "pml_source"),
    (gratpml.assembly, "rho"),
    (gratpml.estimator, "rho"),
    (gratpml.solver, "splu"),
]


def _counting(fn, calls, key):
    def wrapper(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def test_rebound_module_names_are_looked_up_at_call_time(
    monkeypatch, ctx1, profile1
):
    calls = {}
    for module, name in HOOKS:
        key = f"{module.__name__}.{name}"
        calls[key] = 0
        monkeypatch.setattr(
            module, name, _counting(getattr(module, name), calls, key)
        )
    mesh = generate_initial(flat_profile(ctx1.period), ctx1, profile1, h0=0.5)
    dofmap = build_dofmap(mesh, ctx1)
    x, _ = solve_system(*assemble(mesh, ctx1, profile1, dofmap))
    indicators(mesh, dofmap.expand(x), ctx1, profile1, 1e-8)
    assert all(calls.values()), calls


def _tracing_module():
    path = ROOT / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_one_source_evaluation_per_iteration(monkeypatch):
    tracing = _tracing_module()
    # install() rebinds module names for good; monkeypatch restores them all
    for module in (gratpml.adapt, gratpml.assembly, gratpml.estimator,
                   gratpml.solver):
        for name, value in list(vars(module).items()):
            if not name.startswith("__"):
                monkeypatch.setattr(module, name, value)
    tracer = tracing.Tracer()
    tracing.install(tracer)

    cfg = dataclasses.replace(
        load_config(ROOT / "configs" / "flat.cfg"), h0=0.5, max_iters=2
    )
    start = time.perf_counter()
    root = tracer.open(tracing.ROOT)
    result = gratpml.run(cfg)
    tracer.close(root)
    wall_s = time.perf_counter() - start

    assert len(result.records) == 2
    assert tracing.check_spans(tracer, wall_s) == []
    # assembly and estimator share one evaluation per mesh
    source = [span[4] for span in tracer.spans if span[0] == "pml.pml_source"]
    assert source == [0, 1]
