"""Module-level names that timing wrappers rebind from outside the package.

``benchmarks/tracing.py`` replaces these module attributes with wrappers, so
the package must look them up at call time instead of binding them early
(for example as default arguments or in closures made at import).
"""

import gratpml.assembly
import gratpml.estimator
import gratpml.solver
from gratpml import (
    assemble,
    build_dofmap,
    flat_profile,
    generate_initial,
    indicators,
    solve_system,
)

HOOKS = [
    (gratpml.assembly, "pml_source"),
    (gratpml.assembly, "rho"),
    (gratpml.estimator, "pml_source"),
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
    x, _ = solve_system(assemble(mesh, ctx1, profile1, dofmap))
    indicators(mesh, dofmap.expand(x), ctx1, profile1, 1e-8)
    assert all(calls.values()), calls
