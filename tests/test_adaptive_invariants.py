"""Invariants of the adaptive loop on random gratings and wave contexts."""

import math
import os
import tempfile

import numpy as np
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from conftest import draw_context, gratings
from gratpml import (
    CalibrationError,
    ResonanceError,
    RunConfig,
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
    run,
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
        matrix, rhs = assemble(mesh, ctx, profile, dofmap, source=source)
        x, report = solve_system(matrix, rhs)
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


@settings(max_examples=15, deadline=None)
@given(geom=gratings())
def test_records_read_their_measures_from_their_stage_results(geom):
    # a short run of the loop on a random grating, at the base wave
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "profile.txt")
        np.savetxt(path, geom.vertices)
        cfg = RunConfig(omega=2.0 * math.pi, lam=1.0, mu=2.0, theta_deg=30.0,
                        period=1.0, gamma_height=1.0, grating="file",
                        grating_file=path, h0=0.5, max_iters=3)
        result = run(cfg)
    assert [r.iteration for r in result.records] == [0, 1, 2]
    for rec in result.records:
        mesh, ind, eff = rec.mesh, rec.indicators, rec.efficiency
        assert rec.n_nodes == len(mesh.nodes) == len(rec.field_values)
        assert rec.n_tris == len(mesh.tris) == len(ind.eta_hat)
        free = ~(mesh.on_surface | mesh.on_top | mesh.on_right)
        assert rec.n_dofs == rec.solve.n == 2 * np.count_nonzero(free)
        assert rec.global_eta == ind.global_eta
        assert rec.eps_fem == ind.eps_fem
        assert rec.eps_pml == ind.eps_pml
        assert rec.energy_total == eff.total
        assert rec.energy_defect == abs(eff.total - 1.0)
    assert result.matrix.shape == (result.final.n_dofs,) * 2
