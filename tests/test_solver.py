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

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"


def _system(matrix, rhs):
    return sp.csc_matrix(matrix), np.asarray(rhs)


def test_solves_small_complex_system_exactly():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    a = a + a.T + 12j * np.eye(12)  # complex symmetric, well conditioned
    x_true = rng.normal(size=12) + 1j * rng.normal(size=12)
    x, report = solve_system(*_system(a, a @ x_true))
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
        solve_system(*_system(a, np.ones(5, dtype=complex)))


def test_rejects_zero_matrix():
    with pytest.raises(SolverError, match="zero"):
        solve_system(*_system(np.zeros((4, 4), dtype=complex), np.ones(4)))


def test_exactly_singular_matrix_raises():
    a = np.zeros((4, 4), dtype=complex)
    a[0, 0] = 1.0
    a[1, 1] = 1.0  # rows 2 and 3 empty -> structural singularity
    with pytest.raises(SolverError):
        solve_system(*_system(a, np.ones(4, dtype=complex)))


def test_zero_rhs_gives_zero_solution():
    a = np.diag(np.array([2.0 + 1j, 3.0, 4.0 - 2j]))
    x, report = solve_system(*_system(a, np.zeros(3, dtype=complex)))
    assert np.all(x == 0.0)
    assert report.ok
    assert report.residual == 0.0


def test_empty_system_short_circuits():
    x, report = solve_system(
        *_system(np.zeros((0, 0), dtype=complex), np.zeros(0, dtype=complex))
    )
    assert x.size == 0
    assert report.ok


def test_report_string_mentions_health():
    a = np.diag(np.array([2.0 + 1j, 3.0]))
    _, report = solve_system(*_system(a, np.ones(2, dtype=complex)))
    assert "residual" in str(report)


# ---------------------------------------------------------------------------
# single-precision symmetric-mode factorization, refinement, double-precision
# fallback
# ---------------------------------------------------------------------------


def _well_posed_system(n=12, seed=2):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    a = a + a.T + n * 1j * np.eye(n)
    return _system(a, rng.normal(size=n) + 1j * rng.normal(size=n))


def _patch_symmetric_attempt(monkeypatch, replace):
    """Route the single-precision splu call through ``replace``; record the
    precision of every call."""
    real = solver_module.splu
    calls = []

    def fake(a, permc_spec=None, **kwargs):
        single = a.dtype == np.complex64
        calls.append("single" if single else "double")
        if single:
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
def test_failed_symmetric_attempt_falls_back_to_double_precision(
    monkeypatch, replace
):
    matrix, rhs = _well_posed_system()
    calls = _patch_symmetric_attempt(monkeypatch, replace)
    x, report = solve_system(matrix, rhs)
    assert calls == ["single", "double"]
    assert report.precision == "double"
    assert report.ok
    assert report.residual <= 1e-12
    assert np.allclose(matrix @ x, rhs, rtol=1e-12, atol=1e-12)
    assert "precision=double" in str(report)


class _HalfStep:
    """A factor of ``a / scale`` whose solve returns half the exact
    correction, so that each refinement step halves the residual."""

    def __init__(self, a, scale):
        self.dense = a.toarray() / scale

    def solve(self, v):
        return 0.5 * np.linalg.solve(self.dense, v)


def test_refinement_gives_up_after_itermax_corrections():
    a, b = _well_posed_system()
    scale = abs(a).max()
    norm_a = abs(a).sum(axis=1).max()
    x, r, corrections, converged = solver_module._refine(
        a, b, _HalfStep(a, scale), scale, norm_a, np.complex128
    )
    assert converged is False
    assert corrections == solver_module.ITERMAX
    # every step reduced the residual, so the last iterate is kept: the
    # plain solve and ITERMAX corrections leave 2**-(ITERMAX + 1) of it
    kept = 1.0 - 0.5 ** (solver_module.ITERMAX + 1)
    exact = np.linalg.solve(a.toarray(), b)
    assert np.allclose(x, kept * exact, rtol=1e-12, atol=0.0)
    assert np.array_equal(r, b - a @ x)


def test_refinement_repairs_a_perturbed_factor(monkeypatch):
    matrix, rhs = _well_posed_system()
    calls = _patch_symmetric_attempt(monkeypatch, _perturbed_matrix)
    x, report = solve_system(matrix, rhs)
    assert calls == ["single"]
    assert report.precision == "single"
    assert report.refinements >= 1
    assert report.ok
    assert report.residual <= 1e-12
    assert np.allclose(matrix @ x, rhs, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("matrix_scale", [1.0, 1e40, 1e-40])
@pytest.mark.parametrize("rhs_scale", [1.0, 1e40, 1e-40])
def test_magnitudes_outside_single_precision_stay_on_the_first_attempt(
    monkeypatch, matrix_scale, rhs_scale
):
    base_matrix, base_rhs = _well_posed_system()
    a = base_matrix * matrix_scale
    x_true = np.linalg.solve(base_matrix.toarray(), base_rhs) * (
        rhs_scale / matrix_scale
    )
    calls = _patch_symmetric_attempt(monkeypatch, _unchanged)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, report = solve_system(*_system(a, base_rhs * rhs_scale))
    assert calls == ["single"]
    assert report.ok
    assert report.residual <= 1e-12
    assert np.linalg.norm(x - x_true) <= 1e-12 * np.linalg.norm(x_true)


def test_failed_fallback_raises_the_usual_error(monkeypatch):
    calls = _patch_symmetric_attempt(monkeypatch, _unchanged)
    a = np.eye(5, dtype=complex)
    a[3, 3] = 1e-16
    with pytest.raises(SolverError, match="resonant"):
        solve_system(*_system(a, np.ones(5, dtype=complex)))
    assert calls == ["single", "double"]


def test_assembled_system_takes_the_symmetric_path(
    monkeypatch, ctx1, profile1, flat_mesh1
):
    calls = _patch_symmetric_attempt(monkeypatch, _unchanged)
    matrix, rhs = assemble(flat_mesh1, ctx1, profile1, build_dofmap(flat_mesh1, ctx1))
    _, report = solve_system(matrix, rhs)
    assert calls == ["single"]
    assert report.precision == "single"
    assert report.ok
    assert report.residual <= 1e-12


@pytest.mark.parametrize("theta_deg", [30.0, -30.0])
@pytest.mark.parametrize("name", ["flat", "sharp"])
def test_refined_solution_matches_a_double_precision_factor(name, theta_deg):
    cfg = load_config(CONFIG_DIR / f"{name}.cfg")
    cfg = dataclasses.replace(cfg, theta_deg=theta_deg)
    ctx, _, geom, profile, _ = setup(cfg)
    mesh = generate_initial(geom, ctx, profile, cfg.h0)
    matrix, rhs = assemble(mesh, ctx, profile, build_dofmap(mesh, ctx))
    x, report = solve_system(matrix, rhs)
    reference = splu(matrix.tocsc()).solve(rhs)
    assert report.precision == "single"
    assert report.ok
    assert np.linalg.norm(x - reference) <= 1e-12 * np.linalg.norm(reference)


def _normalized(matrix):
    a = matrix.tocsc()
    return a / np.abs(a.data).max()


def _certificate(matrix, rhs, x):
    """The gate's certificate, an upper bound on 1 / cond_inf(A)."""
    norm_a = np.abs(matrix.tocsc()).sum(axis=1).max()
    return np.abs(rhs).max() / (norm_a * np.abs(x).max())


def test_lu_nnz_is_superlu_count_of_the_single_precision_factor(ctx1, profile1):
    mesh = generate_initial(sharp_profile(ctx1.period), ctx1, profile1, h0=0.125)
    matrix, rhs = assemble(mesh, ctx1, profile1, build_dofmap(mesh, ctx1))
    _, report = solve_system(matrix, rhs)
    # an independent factorization of the same normalized matrix with the
    # same settings
    precision, kwargs, dtype = solver_module._SYMMETRIC
    lu = splu(
        _normalized(matrix).astype(dtype), permc_spec="MMD_AT_PLUS_A", **kwargs
    )
    assert report.precision == precision == "single"
    assert report.lu_nnz == lu.nnz
    assert report.fill_factor == report.lu_nnz / matrix.nnz


def test_lu_nnz_is_superlu_count_of_the_fallback_factor(
    ctx1, profile1, monkeypatch
):
    # one definition of the fill on both attempts; on this system SuperLU's
    # count differs from the entries of the extracted factors, so the two are
    # told apart
    mesh = generate_initial(sharp_profile(ctx1.period), ctx1, profile1, h0=0.5)
    matrix, rhs = assemble(mesh, ctx1, profile1, build_dofmap(mesh, ctx1))
    _patch_symmetric_attempt(monkeypatch, _raise)
    x, report = solve_system(matrix, rhs)
    precision, kwargs, dtype = solver_module._FALLBACK
    lu = splu(
        _normalized(matrix).astype(dtype), permc_spec="MMD_AT_PLUS_A", **kwargs
    )
    assert report.precision == precision == "double"
    assert lu.nnz != lu.L.nnz + lu.U.nnz
    assert report.lu_nnz == lu.nnz
    # the gate's certificate, as on the single-precision attempt
    assert report.pivot_ratio == pytest.approx(_certificate(matrix, rhs, x), rel=1e-12)


class _UnextractableLU:
    """A SuperLU factor whose L and U must not be read."""

    def __init__(self, lu):
        self._lu = lu

    @property
    def L(self):
        raise AssertionError("the factor L was extracted")

    @property
    def U(self):
        raise AssertionError("the factor U was extracted")

    def __getattr__(self, name):
        return getattr(self._lu, name)


def test_symmetric_attempt_never_extracts_the_factors(
    monkeypatch, ctx1, profile1, flat_mesh1
):
    real = solver_module.splu
    monkeypatch.setattr(
        solver_module, "splu", lambda *a, **kw: _UnextractableLU(real(*a, **kw))
    )
    matrix, rhs = assemble(flat_mesh1, ctx1, profile1, build_dofmap(flat_mesh1, ctx1))
    x, report = solve_system(matrix, rhs)
    assert report.precision == "single"
    assert report.ok
    assert report.pivot_ratio == pytest.approx(_certificate(matrix, rhs, x), rel=1e-12)


def test_fallback_never_extracts_the_factors(
    monkeypatch, ctx1, profile1, flat_mesh1
):
    calls = _patch_symmetric_attempt(monkeypatch, _raise)
    patched = solver_module.splu
    monkeypatch.setattr(
        solver_module, "splu", lambda *a, **kw: _UnextractableLU(patched(*a, **kw))
    )
    matrix, rhs = assemble(flat_mesh1, ctx1, profile1, build_dofmap(flat_mesh1, ctx1))
    x, report = solve_system(matrix, rhs)
    assert calls == ["single", "double"]
    assert report.precision == "double"
    assert report.ok
    assert report.pivot_ratio == pytest.approx(_certificate(matrix, rhs, x), rel=1e-12)


def _same_bits(x, y):
    return x.dtype == y.dtype and x.tobytes() == y.tobytes()


def test_factor_receives_the_normalized_matrix_in_single_precision(
    monkeypatch, ctx1, profile1, flat_mesh1
):
    real = solver_module.splu
    received = []

    def spy(a, **kwargs):
        received.append(a)
        return real(a, **kwargs)

    monkeypatch.setattr(solver_module, "splu", spy)
    matrix, rhs = assemble(flat_mesh1, ctx1, profile1, build_dofmap(flat_mesh1, ctx1))
    before = matrix.copy()
    solve_system(matrix, rhs)
    (got,) = received
    want = _normalized(matrix).astype(np.complex64)
    for name in ("data", "indices", "indptr"):
        assert _same_bits(getattr(got, name), getattr(want, name)), name
        assert _same_bits(getattr(matrix, name), getattr(before, name)), name


def test_unsorted_matrix_is_solved_and_left_as_given():
    # column 0 lists row 1 before row 0, and column 1 holds row 1 twice
    data = np.array([1 + 1j, 4, 2, 1, 2], dtype=complex)
    indices = np.array([1, 0, 0, 1, 1], dtype=np.int32)
    indptr = np.array([0, 2, 5], dtype=np.int32)
    matrix = sp.csc_matrix((data.copy(), indices.copy(), indptr), shape=(2, 2))
    dense = matrix.toarray()
    rhs = np.array([1, 2], dtype=complex)
    x, report = solve_system(matrix, rhs)
    assert report.precision == "single"
    assert np.allclose(x, np.linalg.solve(dense, rhs), rtol=1e-14, atol=0)
    assert np.array_equal(matrix.indices, indices)
    assert np.array_equal(matrix.data, data)


def test_zero_rhs_on_a_resonant_matrix_still_raises():
    # x = 0 certifies nothing, so a probe solve with b = 1 decides
    a = np.eye(5, dtype=complex)
    a[3, 3] = 1e-16
    with pytest.raises(SolverError, match="resonant"):
        solve_system(*_system(a, np.zeros(5, dtype=complex)))


def test_zero_rhs_with_a_probe_that_overflows_raises():
    # cond ~ 1e40: the single-precision probe solve overflows to NaN, which
    # the gate must not pass
    n = 6
    a = (1 + 1j) * np.eye(n) + np.diag(np.full(n - 1, 1e8), -1)
    with pytest.raises(SolverError, match="resonant"):
        solve_system(*_system(a, np.zeros(n, dtype=complex)))


def test_rhs_without_the_near_null_component_is_solved():
    # the certificate depends on b: away from the near-null direction the
    # single-precision attempt solves the system exactly and passes
    a = np.eye(5, dtype=complex)
    a[3, 3] = 1e-16
    b = np.array([1, 2, 3, 0, 4], dtype=complex)
    x, report = solve_system(*_system(a, b))
    assert np.array_equal(x, b)
    assert report.precision == "single"
    assert report.ok
    assert report.pivot_ratio == 1.0


def test_failed_fallback_refinement_returns_a_suspect_solution(monkeypatch):
    # both attempts factor -A: refinement fails at its first step, so x = 0
    # and the certificate comes from the probe solve
    real = solver_module.splu
    monkeypatch.setattr(
        solver_module, "splu", lambda a, **kwargs: real(-a, **kwargs)
    )
    matrix, rhs = _well_posed_system()
    x, report = solve_system(matrix, rhs)
    assert np.all(x == 0.0)
    assert report.ok is False
    assert "[SUSPECT]" in str(report)
    assert report.precision == "double"
    assert report.residual == 1.0
    # ||1|| / (||A|| ||A^-1 1||), as the factor of -A sees it
    a = matrix.toarray()
    probe = np.linalg.solve(a, np.ones(a.shape[0]))
    want = 1.0 / (np.abs(a).sum(axis=1).max() * np.abs(probe).max())
    assert np.isfinite(report.pivot_ratio)
    assert report.pivot_ratio == pytest.approx(want, rel=1e-12)
