"""Sparse direct solver wrapper: solutions, diagnostics, failure modes."""

import dataclasses
import pathlib
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import gratpml.solver as solver_module
from gratpml import (
    SolverError,
    assemble,
    build_dofmap,
    generate_initial,
    load_config,
    setup,
    sharp_profile,
    solve_system,
)
from gratpml.assembly import SparseSystem

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"


def _system(matrix, rhs):
    return SparseSystem(matrix=sp.csc_matrix(matrix), rhs=np.asarray(rhs))


def test_solves_small_complex_system_exactly():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    a = a + a.T + 12j * np.eye(12)  # complex symmetric, well conditioned
    x_true = rng.normal(size=12) + 1j * rng.normal(size=12)
    x, report = solve_system(_system(a, a @ x_true))
    assert np.allclose(x, x_true, rtol=1e-12)
    assert report.ok
    assert report.residual <= 1e-12
    assert report.n == 12
    assert report.pivot_ratio > 1e-14
    assert report.fill_factor >= 1.0


def test_reports_numerically_singular_matrix():
    a = np.eye(5, dtype=complex)
    a[3, 3] = 1e-16
    with pytest.raises(SolverError, match="resonant"):
        solve_system(_system(a, np.ones(5, dtype=complex)))


def test_rejects_zero_matrix():
    with pytest.raises(SolverError, match="zero"):
        solve_system(_system(np.zeros((4, 4), dtype=complex), np.ones(4)))


def test_exactly_singular_matrix_raises():
    a = np.zeros((4, 4), dtype=complex)
    a[0, 0] = 1.0
    a[1, 1] = 1.0  # rows 2 and 3 empty -> structural singularity
    with pytest.raises(SolverError):
        solve_system(_system(a, np.ones(4, dtype=complex)))


def test_zero_rhs_gives_zero_solution():
    a = np.diag(np.array([2.0 + 1j, 3.0, 4.0 - 2j]))
    x, report = solve_system(_system(a, np.zeros(3, dtype=complex)))
    assert np.all(x == 0.0)
    assert report.ok
    assert report.residual == 0.0


def test_empty_system_short_circuits():
    x, report = solve_system(
        _system(np.zeros((0, 0), dtype=complex), np.zeros(0, dtype=complex))
    )
    assert x.size == 0
    assert report.ok


def test_report_string_mentions_health():
    a = np.diag(np.array([2.0 + 1j, 3.0]))
    _, report = solve_system(_system(a, np.ones(2, dtype=complex)))
    assert "residual" in str(report)


# ---------------------------------------------------------------------------
# single-precision symmetric-mode factorization, refinement, COLAMD fallback
# ---------------------------------------------------------------------------


def _well_posed_system(n=12, seed=2):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    a = a + a.T + n * 1j * np.eye(n)
    return _system(a, rng.normal(size=n) + 1j * rng.normal(size=n))


def _patch_symmetric_attempt(monkeypatch, replace):
    """Route the symmetric-mode splu call through ``replace``; count calls."""
    real = solver_module.splu
    calls = []

    def fake(a, permc_spec=None, **kwargs):
        calls.append(permc_spec)
        if permc_spec == "MMD_AT_PLUS_A":
            return replace(real, a, permc_spec, kwargs)
        return real(a, permc_spec=permc_spec, **kwargs)

    monkeypatch.setattr(solver_module, "splu", fake)
    return calls


def _unchanged(real, a, permc_spec, kwargs):
    return real(a, permc_spec=permc_spec, **kwargs)


def _raise(real, a, permc_spec, kwargs):
    raise RuntimeError("Factor is exactly singular")


def _tiny_pivots(real, a, permc_spec, kwargs):
    return real(a * 1e-20, permc_spec=permc_spec, **kwargs)


def _wrong_matrix(real, a, permc_spec, kwargs):
    # the first step from x = 0 gives -x: it doubles the residual
    return real(-a, permc_spec=permc_spec, **kwargs)


def _perturbed_matrix(real, a, permc_spec, kwargs):
    shifted = (a + 1e-3 * sp.identity(a.shape[0], format="csc")).astype(a.dtype)
    return real(shifted, permc_spec=permc_spec, **kwargs)


@pytest.mark.parametrize("replace", [_raise, _tiny_pivots, _wrong_matrix])
def test_failed_symmetric_attempt_falls_back_to_colamd(monkeypatch, replace):
    system = _well_posed_system()
    calls = _patch_symmetric_attempt(monkeypatch, replace)
    x, report = solve_system(system)
    assert calls == ["MMD_AT_PLUS_A", "COLAMD"]
    assert report.ordering == "COLAMD"
    assert report.ok
    assert report.residual <= 1e-12
    assert np.allclose(system.matrix @ x, system.rhs, rtol=1e-12, atol=1e-12)
    assert "COLAMD" in str(report)


def test_refinement_repairs_a_perturbed_factor(monkeypatch):
    system = _well_posed_system()
    calls = _patch_symmetric_attempt(monkeypatch, _perturbed_matrix)
    x, report = solve_system(system)
    assert calls == ["MMD_AT_PLUS_A"]
    assert report.ordering == "MMD_AT_PLUS_A"
    assert report.refinements >= 1
    assert report.ok
    assert report.residual <= 1e-12
    assert np.allclose(system.matrix @ x, system.rhs, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("matrix_scale", [1.0, 1e40, 1e-40])
@pytest.mark.parametrize("rhs_scale", [1.0, 1e40, 1e-40])
def test_magnitudes_outside_single_precision_stay_on_the_first_attempt(
    monkeypatch, matrix_scale, rhs_scale
):
    base = _well_posed_system()
    a = base.matrix * matrix_scale
    x_true = np.linalg.solve(base.matrix.toarray(), base.rhs) * (
        rhs_scale / matrix_scale
    )
    calls = _patch_symmetric_attempt(monkeypatch, _unchanged)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, report = solve_system(_system(a, base.rhs * rhs_scale))
    assert calls == ["MMD_AT_PLUS_A"]
    assert report.ok
    assert report.residual <= 1e-12
    assert np.linalg.norm(x - x_true) <= 1e-12 * np.linalg.norm(x_true)


def test_failed_fallback_raises_the_usual_error(monkeypatch):
    calls = _patch_symmetric_attempt(monkeypatch, _unchanged)
    a = np.eye(5, dtype=complex)
    a[3, 3] = 1e-16
    with pytest.raises(SolverError, match="resonant"):
        solve_system(_system(a, np.ones(5, dtype=complex)))
    assert calls == ["MMD_AT_PLUS_A", "COLAMD"]


def test_assembled_system_takes_the_symmetric_path(
    monkeypatch, ctx1, profile1, flat_mesh1
):
    calls = _patch_symmetric_attempt(monkeypatch, _unchanged)
    system = assemble(flat_mesh1, ctx1, profile1, build_dofmap(flat_mesh1, ctx1))
    _, report = solve_system(system)
    assert calls == ["MMD_AT_PLUS_A"]
    assert report.ordering == "MMD_AT_PLUS_A"
    assert report.ok
    assert report.residual <= 1e-12


@pytest.mark.parametrize("theta_deg", [30.0, -30.0])
@pytest.mark.parametrize("name", ["flat", "sharp"])
def test_refined_solution_matches_a_double_precision_factor(name, theta_deg):
    cfg = load_config(CONFIG_DIR / f"{name}.cfg")
    cfg = dataclasses.replace(cfg, theta_deg=theta_deg)
    ctx, _, geom, profile, _ = setup(cfg)
    mesh = generate_initial(geom, ctx, profile, cfg.h0)
    system = assemble(mesh, ctx, profile, build_dofmap(mesh, ctx))
    x, report = solve_system(system)
    reference = splu(system.matrix.tocsc()).solve(system.rhs)
    assert report.ordering == "MMD_AT_PLUS_A"
    assert report.ok
    assert np.linalg.norm(x - reference) <= 1e-12 * np.linalg.norm(reference)


def test_lu_nnz_counts_the_nonzeros_of_both_factors(ctx1, profile1):
    # on this system SuperLU's own count, SuperLU.nnz, is larger
    mesh = generate_initial(sharp_profile(ctx1.period), ctx1, profile1, h0=0.125)
    system = assemble(mesh, ctx1, profile1, build_dofmap(mesh, ctx1))
    _, report = solve_system(system)
    # an independent factorization of the same normalized matrix with the
    # same settings
    ordering, kwargs, dtype = solver_module._SYMMETRIC
    a = system.matrix.tocsc()
    lu = splu((a / np.abs(a.data).max()).astype(dtype), permc_spec=ordering, **kwargs)
    assert report.ordering == ordering
    assert report.lu_nnz == lu.L.nnz + lu.U.nnz
    assert report.fill_factor == report.lu_nnz / system.matrix.nnz
