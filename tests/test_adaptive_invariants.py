"""Invariants of the adaptive loop on random gratings and wave contexts."""

import numpy as np
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from conftest import draw_context, gratings
from gratpml import (
    CalibrationError,
    ResonanceError,
    assemble,
    bisect,
    build_dofmap,
    build_mode_table,
    calibrate,
    efficiencies,
    fourier_trace,
    generate_initial,
    indicators,
    layer_source,
    mark,
    modeling_constants,
    recover_potentials,
    solve_system,
)


@settings(max_examples=15, deadline=None)
@given(geom=gratings(), seed=st.integers(0, 2**32 - 1))
def test_adaptive_loop_keeps_its_invariants_on_random_gratings(geom, seed):
    # three iterations of the loop that ``run`` drives, with the calibrated
    # layer, on a unit-period context
    ctx = draw_context(np.random.default_rng(seed), period=1.0)
    try:
        modes = build_mode_table(ctx)
        profile = calibrate(ctx, modes)
    except (ResonanceError, CalibrationError):
        reject()
    f_hat = modeling_constants(ctx, modes, profile).f_hat
    mesh = generate_initial(geom, ctx, profile, h0=0.5)
    mesh.validate(geom)
    source = None
    for _ in range(3):
        dofmap = build_dofmap(mesh, ctx)
        source = layer_source(mesh, ctx, profile, carried=source)
        system = assemble(mesh, ctx, profile, dofmap, source=source)
        x, report = solve_system(system)
        assert report.ok
        values = dofmap.expand(x)
        ind = indicators(mesh, values, ctx, profile, f_hat, source=source)
        trace = fourier_trace(mesh, values, modes)
        eff = efficiencies(modes, recover_potentials(modes, trace))
        assert np.isfinite(eff.total)
        assert ind.eps_pml <= 1e-3 * ind.eps_fem
        mesh, kept = bisect(mesh, mark(ind.eta_hat, 0.5))
        mesh.validate(geom)
        source = source[kept]
