"""Run configuration, the adaptive driver, reports, and the CLI."""

import contextlib
import csv
import dataclasses
import inspect
import io
import math
import pathlib
import re
import shlex

import numpy as np
import pytest
import scipy.io
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gratpml
import gratpml.adapt
import gratpml.cli
import gratpml.pml
from gratpml import (
    ConfigError,
    RunConfig,
    assemble,
    build_dofmap,
    fit_slope,
    generate_initial,
    layer_source,
    load_config,
    run,
    setup,
    write_convergence_csv,
    write_efficiency_csv,
    write_summary,
    write_vtk_series,
)
from gratpml.cli import main

from conftest import write_config

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"

BASE = dict(
    omega=2.0 * math.pi,
    lam=1.0,
    mu=2.0,
    theta_deg=30.0,
    period=1.0,
    gamma_height=1.0,
)

MINIMAL_CFG = """\
[wave]
omega = 6.283185307179586
lambda = 1.0
mu = 2.0
theta_deg = 30.0
period = 1.0
gamma_height = 1.0
"""


def _quick_config(**overrides):
    kw = dict(BASE, h0=0.5, max_iters=2, tolerance=1e-12)
    kw.update(overrides)
    return RunConfig(**kw)


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def _summary_slopes(text):
    return {name: float(value) for name, value in
            re.findall(r"^(.+) slope \(last 4\) = (.+)$", text, re.M)}


# ---------------------------------------------------------------------------
# configuration files
# ---------------------------------------------------------------------------


def test_minimal_config_uses_documented_defaults(tmp_path):
    cfg = load_config(_write(tmp_path, MINIMAL_CFG))
    assert cfg.omega == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert cfg.theta == pytest.approx(math.pi / 6.0, rel=1e-15)
    assert cfg.grating == "flat"
    assert cfg.max_dofs == 200_000
    assert cfg.out_dir == "out"
    assert cfg.write_vtk is False


def test_package_exports_every_module_list_once():
    modules = [getattr(gratpml, name) for name in (
        "adapt", "assembly", "config", "estimator", "exact", "meshing", "pml",
        "rayleigh", "solver", "waves")]
    names = [name for module in modules for name in module.__all__]
    assert gratpml.__all__ == names + ["__version__"]
    assert len(set(gratpml.__all__)) == len(gratpml.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(gratpml, name) is getattr(module, name), name
    from gratpml import thickness_bound

    assert thickness_bound is gratpml.pml.thickness_bound


def test_package_defines_no_layer_free_operator():
    # the half-space and layer operators are test oracles (tests/layer_free.py);
    # the adaptive method reads only the closed-form modeling constants
    for name in ("ParameterRegimeError", "dtn_matrix", "layer_dtn_matrix",
                 "ab_coefficients", "layer_system", "spectral_norm_2x2"):
        assert name not in gratpml.__all__, name
        assert not hasattr(gratpml, name), name
        assert not hasattr(gratpml.rayleigh, name), name


def test_package_carries_no_config_writer():
    # writing a configuration is a test helper (tests/conftest.py)
    assert "write_config" not in gratpml.__all__
    assert not hasattr(gratpml, "write_config")
    assert not hasattr(gratpml.config, "write_config")


def test_schema_keys_are_exactly_the_config_fields():
    # a key removed from one of the two cannot leave half of itself behind
    attrs = sorted(attr for _, _, attr, _ in gratpml.config._SCHEMA)
    assert attrs == sorted(f.name for f in dataclasses.fields(RunConfig))


def test_config_roundtrips_through_write_and_load(tmp_path):
    cfg = RunConfig(
        **BASE,
        grating="sharp",
        tolerance=5e-4,
        max_iters=7,
        max_dofs=12345,
        h0=0.125,
        out_dir="elsewhere",
        write_vtk=True,
    )
    path = tmp_path / "round.cfg"
    write_config(cfg, path)
    assert load_config(path) == cfg


def test_unknown_keys_are_rejected_by_name(tmp_path):
    path = _write(tmp_path, MINIMAL_CFG + "\n[adapt]\ntolrance = 1e-3\n")
    with pytest.raises(ConfigError, match="tolrance"):
        load_config(path)
    path2 = _write(tmp_path, MINIMAL_CFG + "\n[solver]\nkind = lu\n", "s.cfg")
    with pytest.raises(ConfigError, match="solver"):
        load_config(path2)
    # the estimator has a single jump flux, so it takes no flux key
    path3 = _write(
        tmp_path, MINIMAL_CFG + "\n[estimator]\njump_flux = weighted\n", "e.cfg"
    )
    with pytest.raises(ConfigError, match="jump_flux"):
        load_config(path3)


def test_only_indicators_takes_an_amplitude():
    # the incident wave has unit amplitude; ``indicators`` keeps the keyword
    # only to switch its data terms off
    takers = set()
    for name in gratpml.__all__:
        obj = getattr(gratpml, name)
        if not callable(obj):
            continue
        members = [(name, obj)]
        if inspect.isclass(obj):
            members += [
                (f"{name}.{attr}", fn)
                for attr, fn in inspect.getmembers(obj, inspect.isfunction)
                if not attr.startswith("_") or attr == "__call__"
            ]
        for label, fn in members:
            try:
                params = inspect.signature(fn).parameters
            except ValueError:
                continue  # no introspectable signature
            if "amplitude" in params:
                takers.add(label)
    assert takers == {"indicators"}
    assert "amplitude" not in {f.name for f in dataclasses.fields(RunConfig)}


def test_readme_config_example_loads(tmp_path):
    text = (CONFIG_DIR.parent / "README.md").read_text(encoding="utf-8")
    blocks = text.split("```ini\n")
    assert len(blocks) == 2, "README should hold one ini example"
    cfg = load_config(_write(tmp_path, blocks[1].split("```")[0]))
    assert cfg.grating == "flat"
    assert cfg.max_iters == 33


def test_readme_config_reference_names_only_config_keys(tmp_path):
    # the commented-out keys of the reference are keys a config may set, in
    # the section that holds them
    text = (CONFIG_DIR.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("```ini\n")[1].split("```")[0]
    load_config(_write(tmp_path, block))
    schema = {(section, key) for section, key, _, _ in gratpml.config._SCHEMA}
    section, commented, named = None, [], set()
    for line in block.splitlines():
        header = re.match(r"\[(\w+)\]", line)  # may carry a comment
        if header:
            section = header.group(1)
        key = re.match(r"\s*(#?)\s*(\w+)\s*=", line)
        if key:
            named.add((section, key.group(2)))
            if key.group(1):
                commented.append((section, key.group(2)))
    assert ("grating", "file") in commented
    assert [entry for entry in commented if entry not in schema] == []
    # and it is a complete reference: every key, set or commented out
    assert sorted(schema - named) == []


def _without_redirections(words: list[str]) -> list[str]:
    """Shell words without the redirections: ``> file``, ``2> file``,
    ``>> file``, ``>file`` and ``2>&1``."""
    kept, target = [], False
    for word in words:
        redirection = re.fullmatch(r"\d*>>?(.*)", word)
        if not (target or redirection):
            kept.append(word)
        target = bool(redirection) and not redirection.group(1)
    return kept


def test_documented_command_lines_parse():
    # every command line the README, the shipped configs and CI name must
    # still be accepted by the parser (parsed only, not run)
    root = CONFIG_DIR.parent
    lines = []
    for path in [root / "README.md", *sorted(CONFIG_DIR.glob("*.cfg"))]:
        text = path.read_text(encoding="utf-8")
        lines += re.findall(r"(?:^|`)gratpml ([^`\n]+)", text, re.M)
    workflow = root / ".github" / "workflows" / "tier1.yml"
    # interpreter flags (python -O) may come before -m
    ci = re.findall(r"python(?: -\w+)* -m gratpml\.cli (.+)$",
                    workflow.read_text(encoding="utf-8"), re.M)
    assert len(ci) >= 3
    assert any(">" in line for line in ci)  # a redirected line is parsed too
    parser = gratpml.cli._build_parser()
    commands, rejected = set(), []
    for line in lines + ci:
        try:
            words = _without_redirections(shlex.split(line))
            commands.add(parser.parse_args(words).command)
        except SystemExit:
            rejected.append(line)
    assert rejected == []
    assert commands == {"solve", "mesh-info"}


def test_readme_custom_loop_carries_the_layer_source(monkeypatch):
    text = (CONFIG_DIR.parent / "README.md").read_text(encoding="utf-8")
    blocks = [b.split("```")[0] for b in text.split("```python\n")[1:]]
    (loop,) = [b for b in blocks if "carried=" in b]
    monkeypatch.chdir(CONFIG_DIR.parent)
    ns: dict = {}
    exec(loop, ns)
    mesh = ns["mesh"]
    assert mesh.n_tris > generate_initial(
        ns["geom"], ns["ctx"], ns["profile"], ns["cfg"].h0
    ).n_tris
    fresh = layer_source(mesh, ns["ctx"], ns["profile"])
    assert np.array_equal(ns["source"], fresh)


# a sawtooth that differs from both built-in profiles
PROFILE_TEXT = "0.0 0.0\n0.5 0.3\n1.0 0.0\n"


def test_grating_file_alone_selects_the_profile(tmp_path, capsys):
    prof = tmp_path / "prof.txt"
    prof.write_text(PROFILE_TEXT, encoding="utf-8")
    path = _write(
        tmp_path, MINIMAL_CFG + f"[grating]\nfile = {prof}\n[adapt]\nh0 = 0.5\n"
    )
    cfg = load_config(path)
    assert (cfg.grating, cfg.grating_file) == ("file", str(prof))
    _, _, geom, _, _ = setup(cfg)
    assert np.array_equal(geom.vertices, [[0.0, 0.0], [0.5, 0.3], [1.0, 0.0]])
    # written back, the file key alone still selects the profile
    write_config(cfg, tmp_path / "again.cfg")
    assert load_config(tmp_path / "again.cfg") == cfg
    assert main(["mesh-info", "--config", str(path)]) == 0
    flat = _write(tmp_path, MINIMAL_CFG + "[adapt]\nh0 = 0.5\n", "flat.cfg")
    assert main(["mesh-info", "--config", str(flat)]) == 0
    from_file, from_flat = capsys.readouterr().out.split("nodes:")[1:]
    assert from_file != from_flat


def test_summary_names_the_profile_file(tmp_path):
    prof = tmp_path / "saw.txt"
    prof.write_text(PROFILE_TEXT, encoding="utf-8")
    path = _write(tmp_path, MINIMAL_CFG + "[grating]\nfile = saw.txt\n"
                  "[adapt]\nh0 = 0.5\nmax_iters = 1\n")
    out = tmp_path / "results"
    assert main(["solve", "--config", str(path), "--out", str(out), "--quiet"]) == 0
    lines = (out / "run_summary.txt").read_text(encoding="utf-8").splitlines()
    assert f"grating: file {prof}" in lines


def test_relative_grating_file_is_read_beside_the_config(
    tmp_path, monkeypatch, capsys
):
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "prof.txt").write_text(PROFILE_TEXT, encoding="utf-8")
    _write(sub, MINIMAL_CFG + "[grating]\nfile = prof.txt\n[adapt]\nh0 = 0.5\n")
    monkeypatch.chdir(tmp_path)  # the parent of the config's directory
    assert main(["mesh-info", "--config", "sub/run.cfg"]) == 0
    assert "nodes:" in capsys.readouterr().out
    cfg = load_config("sub/run.cfg")
    assert pathlib.Path(cfg.grating_file).resolve() == (sub / "prof.txt").resolve()
    # written elsewhere, the config still names the same profile file
    write_config(cfg, tmp_path / "copy.cfg")
    assert load_config(tmp_path / "copy.cfg") == cfg
    monkeypatch.chdir(sub)
    assert load_config("run.cfg") == cfg
    # a relative path set in code is read from the working directory, and a
    # written config keeps naming that file
    monkeypatch.chdir(tmp_path)
    (tmp_path / "elsewhere").mkdir()
    write_config(RunConfig(**BASE, grating="file", grating_file="sub/prof.txt"),
                 tmp_path / "elsewhere" / "run.cfg")
    again = load_config(tmp_path / "elsewhere" / "run.cfg")
    assert pathlib.Path(again.grating_file).resolve() == (sub / "prof.txt").resolve()


def test_grating_builtin_and_file_are_exclusive(tmp_path, capsys):
    prof = tmp_path / "prof.txt"
    prof.write_text(PROFILE_TEXT, encoding="utf-8")
    for builtin in ("flat", "sharp", "file"):
        path = _write(
            tmp_path,
            MINIMAL_CFG + f"[grating]\nbuiltin = {builtin}\nfile = {prof}\n",
        )
        with pytest.raises(ConfigError, match="exclusive"):
            load_config(path)
        assert main(["mesh-info", "--config", str(path)]) == 2
        assert "exclusive" in capsys.readouterr().err


def test_grazing_incidence_is_rejected(tmp_path):
    text = MINIMAL_CFG.replace("theta_deg = 30.0", "theta_deg = 95.0")
    with pytest.raises(ConfigError, match="theta_deg"):
        load_config(_write(tmp_path, text))


def test_missing_required_keys_are_reported(tmp_path):
    text = MINIMAL_CFG.replace("mu = 2.0\n", "")
    with pytest.raises(ConfigError, match=r"\[wave\] mu"):
        load_config(_write(tmp_path, text))


def test_bad_literals_are_reported(tmp_path):
    text = MINIMAL_CFG.replace("omega = 6.283185307179586", "omega = fast")
    with pytest.raises(ConfigError, match="omega"):
        load_config(_write(tmp_path, text))
    bad_bool = MINIMAL_CFG + "\n[output]\nwrite_vtk = maybe\n"
    with pytest.raises(ConfigError, match="write_vtk"):
        load_config(_write(tmp_path, bad_bool, "b.cfg"))


def test_unreadable_and_malformed_files(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.cfg")
    with pytest.raises(ConfigError, match="malformed"):
        load_config(_write(tmp_path, "omega = 1.0\n"))  # no section header


def test_validation_rejects_inconsistent_values():
    with pytest.raises(ConfigError, match="grating"):
        _quick_config(grating="wavy").validate()
    with pytest.raises(ConfigError, match="file"):
        _quick_config(grating="file").validate()
    with pytest.raises(ConfigError, match="file"):
        _quick_config(grating="sharp", grating_file="prof.txt").validate()


@pytest.mark.parametrize(
    "line, problem",
    [
        ("tolerance = 0.0", "adapt.tolerance must be positive"),
        ("max_iters = 0", "adapt.max_iters must be >= 1"),
        ("max_dofs = 0", "adapt.max_dofs must be >= 1"),
    ],
    ids=["tolerance", "max_iters", "max_dofs"],
)
def test_adapt_budgets_must_be_positive(tmp_path, capsys, line, problem):
    path = _write(tmp_path, MINIMAL_CFG + f"[adapt]\n{line}\n")
    with pytest.raises(ConfigError, match=re.escape(problem)):
        load_config(path)
    assert main(["solve", "--config", str(path), "--quiet"]) == 2
    captured = capsys.readouterr()
    assert problem in captured.err
    assert captured.out == ""


def test_shipped_flat_config(tmp_path):
    cfg = load_config(CONFIG_DIR / "flat.cfg")
    assert cfg.grating == "flat"
    assert cfg.omega == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert (cfg.lam, cfg.mu, cfg.theta_deg) == (1.0, 2.0, 30.0)
    assert (cfg.period, cfg.gamma_height) == (1.0, 1.0)
    assert cfg.tolerance == 1e-4
    assert cfg.max_iters == 33
    assert cfg.h0 == 0.25
    assert cfg.out_dir == "out-flat"


def test_shipped_sharp_config(tmp_path):
    cfg = load_config(CONFIG_DIR / "sharp.cfg")
    assert cfg.grating == "sharp"
    assert cfg.max_iters == 30
    geom = setup(cfg)[2]
    assert geom.reentrant_corners.tolist() == [[0.5, 0.5]]
    assert cfg.out_dir == "out-sharp"


# ---------------------------------------------------------------------------
# the adaptive driver
# ---------------------------------------------------------------------------


def test_setup_calibrates_the_layer():
    cfg = _quick_config()
    _, _, geom, profile, constants = setup(cfg)
    assert geom.is_flat_at_zero
    assert (profile.sigma, profile.m, profile.delta) == (12.0 + 12.0j, 2, 8.0)
    assert constants.f_hat * math.sqrt(cfg.period) <= 1e-8


def test_adaptive_run_is_deterministic():
    first = run(_quick_config(max_iters=3))
    second = run(_quick_config(max_iters=3))
    assert len(first.records) == len(second.records) == 3
    for a, b in zip(first.records, second.records):
        assert a.n_dofs == b.n_dofs
        assert a.eps_fem == b.eps_fem
        assert a.global_eta == b.global_eta
        assert a.energy_total == b.energy_total
        assert a.true_error == b.true_error
        assert np.array_equal(a.field_values, b.field_values)
    assert np.array_equal(first.final.mesh.nodes, second.final.mesh.nodes)


def test_records_grow_and_flat_run_tracks_true_error():
    result = run(_quick_config(max_iters=3))
    dofs = [r.n_dofs for r in result.records]
    assert dofs == sorted(dofs) and dofs[0] < dofs[-1]
    assert all(np.isfinite(r.true_error) and r.true_error > 0
               for r in result.records)
    assert all(np.isnan(r.corner_fraction) for r in result.records)
    assert result.stop_reason == "max_iterations"


def test_sharp_run_has_no_true_error_but_tracks_corner(tmp_path):
    result = run(_quick_config(grating="sharp", max_iters=6))
    assert all(np.isnan(r.true_error) for r in result.records)
    assert all(0.0 < r.corner_fraction < 1.0 for r in result.records)
    # the corners come from the profile, so the summary names them
    path = tmp_path / "summary.txt"
    write_summary(result, path)
    text = path.read_text(encoding="utf-8")
    assert "corners: [(0.5, 0.5)], radius 0.1" in text.splitlines()
    # only the estimate's slope, fitted over the last four of six records
    dofs = [r.n_dofs for r in result.records]
    eps = [r.eps_fem for r in result.records]
    assert _summary_slopes(text) == {"eps_fem": fit_slope(dofs[-4:], eps[-4:])}


def test_derived_mode_window_calibrates_the_layer_at_omega_6pi():
    # the shear order n = -2 propagates (|alpha_-2| = 8.35 < kappa2 = 13.3)
    # and delta_plus is attained at n = -3, outside a window of 1 or 2
    cfg = dataclasses.replace(
        load_config(CONFIG_DIR / "flat.cfg"), omega=6.0 * math.pi
    )
    _, modes, _, profile, _ = setup(cfg)
    assert modes.n_max == 3
    assert -2 in modes.n[modes.prop2]
    assert profile.delta == 16.0


def test_stop_reasons():
    eased = run(_quick_config(tolerance=1e9))
    assert eased.stop_reason == "tolerance"
    assert len(eased.records) == 1

    with pytest.raises(ConfigError, match=r"\[adapt\] max_dofs = 50"):
        run(_quick_config(max_dofs=50))

    partial = run(_quick_config(max_iters=6, max_dofs=100))
    assert partial.stop_reason == "max_dofs"
    assert len(partial.records) >= 1
    assert partial.final.n_dofs <= 100
    # the kept system is the one the final record solved, not the refused one
    assert partial.system.n == partial.final.n_dofs


def test_an_over_budget_initial_mesh_is_refused_before_it_is_built(monkeypatch):
    # at h0 = 0.001 the initial flat mesh would hold about 18 M dofs
    def refuse(*args, **kwargs):
        raise AssertionError("generate_initial called")

    monkeypatch.setattr(gratpml.adapt, "generate_initial", refuse)
    cfg = dataclasses.replace(
        load_config(CONFIG_DIR / "flat.cfg"), h0=0.001, max_dofs=1000
    )
    with pytest.raises(ConfigError, match=r"\[adapt\] max_dofs = 1000"):
        run(cfg)


def test_retained_meshes_cache_no_complex_data():
    # every record keeps its mesh alive until the run ends, so a per-mesh
    # cache of complex (physics) data would pile up over the iterations;
    # the records keep the stored arrays only and derive the rest on demand
    stored = {"nodes", "tris", "ref_edge", "period", "b", "top"}
    result = run(_quick_config(max_iters=4))
    assert len(result.records) == 4
    for rec in result.records:
        assert vars(rec.mesh).keys() == stored
    for rec in result.records:
        rec.mesh.edge_structure()
        rec.mesh.grads
        assert rec.mesh.region.shape == (rec.n_tris,)
        cached = {k: v for k, v in vars(rec.mesh).items() if k not in stored}
        assert cached
        for name, value in cached.items():
            parts = value if isinstance(value, tuple) else (value,)
            assert not any(np.iscomplexobj(v) for v in parts), name


def test_progress_callback_sees_every_record():
    seen = []
    result = run(_quick_config(), progress=seen.append)
    assert [r.iteration for r in seen] == [r.iteration for r in result.records]


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_run():
    return run(_quick_config())


def test_convergence_csv_roundtrips_exactly(tmp_path, small_run):
    path = tmp_path / "conv.csv"
    write_convergence_csv(small_run, path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "iteration", "nodes", "elements", "dofs", "global_eta", "eps_fem",
        "eps_pml", "energy_total", "energy_defect", "true_error",
        "corner_fraction", "solve_residual", "wall_time", "fill_factor",
        "pivot_ratio", "precision", "refinements",
    ]
    assert len(rows) == 1 + len(small_run.records)
    for row, rec in zip(rows[1:], small_run.records):
        assert int(row[0]) == rec.iteration
        assert int(row[3]) == rec.n_dofs
        assert float(row[5]) == rec.eps_fem  # .17g round-trips exactly
        assert float(row[7]) == rec.energy_total
        assert float(row[9]) == rec.true_error
        assert float(row[13]) == rec.solve.fill_factor
        assert float(row[14]) == rec.solve.pivot_ratio
        assert row[15] == rec.solve.precision == "single"
        assert int(row[16]) == rec.solve.refinements


def test_efficiency_csv_lists_propagating_modes(tmp_path, small_run):
    eff = small_run.final.efficiency
    path = tmp_path / "eff.csv"
    write_efficiency_csv(eff, path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["mode", "compressional", "shear"]
    assert rows[-1][0] == "total"
    assert float(rows[-1][1]) == eff.total
    body = {int(r[0]): (float(r[1]), float(r[2])) for r in rows[1:-1]}
    assert set(body) == {0}
    idx = int(np.nonzero(eff.n == 0)[0][0])
    assert body[0] == (eff.e1[idx], eff.e2[idx])


def test_summary_mentions_the_key_results(tmp_path, small_run):
    path = tmp_path / "summary.txt"
    write_summary(small_run, path)
    text = path.read_text(encoding="utf-8")
    assert "stop: max_iterations" in text
    assert "grating: flat" in text
    assert "corners: none\n" in text
    assert "eps_fem" in text
    assert "true H1 error" in text
    assert "coercive = True" in text
    # a flat run of two or more iterations states both fitted slopes
    dofs = [r.n_dofs for r in small_run.records]
    assert len(dofs) >= 2
    assert _summary_slopes(text) == {
        "eps_fem": fit_slope(dofs, [r.eps_fem for r in small_run.records]),
        "true H1": fit_slope(dofs, [r.true_error for r in small_run.records]),
    }


def _projection(run_result, tmp_path):
    path = tmp_path / "summary.txt"
    write_summary(run_result, path)
    (line,) = [
        l for l in path.read_text(encoding="utf-8").splitlines()
        if l.startswith("dofs projected")
    ]
    match = re.fullmatch(
        r"dofs projected for tolerance (.+) at that slope: (.+) "
        r"\((above|within) max_dofs = (\d+)\)",
        line,
    )
    assert match, line
    assert float(match[1]) == run_result.config.tolerance
    assert int(match[4]) == run_result.config.max_dofs
    return float(match[2]), match[3]


def test_summary_projects_the_dofs_the_tolerance_needs(tmp_path, small_run):
    # dofs * (tolerance / eps_fem)**(1 / slope) on the last record
    cfg, records = small_run.config, small_run.records
    slope = fit_slope([r.n_dofs for r in records], [r.eps_fem for r in records])
    rec = records[-1]
    want = rec.n_dofs * (cfg.tolerance / rec.eps_fem) ** (1.0 / slope)
    need, verdict = _projection(small_run, tmp_path)
    assert need == pytest.approx(want, rel=5e-3)
    assert verdict == "above" and want > cfg.max_dofs
    # within the budget once the tolerance is eased to the last estimate
    eased = dataclasses.replace(
        small_run, config=dataclasses.replace(cfg, tolerance=rec.eps_fem)
    )
    assert _projection(eased, tmp_path) == (pytest.approx(rec.n_dofs), "within")
    # out of reach: an estimate that rises, one that falls so slowly that
    # the power overflows
    for power in (1.0, -0.01):
        slow = dataclasses.replace(small_run, records=[
            dataclasses.replace(r, indicators=dataclasses.replace(
                r.indicators, eps_fem=r.n_dofs**power
            ))
            for r in records
        ])
        assert _projection(slow, tmp_path) == (math.inf, "above")


def test_summary_prints_efficiencies_as_plain_floats(tmp_path, small_run):
    path = tmp_path / "summary.txt"
    write_summary(small_run, path)
    head, tail = path.read_text(encoding="utf-8").split(
        "efficiencies (propagating modes):\n"
    )
    rows = small_run.final.efficiency.propagating()
    assert rows
    assert tail.splitlines() == [
        f"  n = {n:+d}: compressional = {float(e1)!r}, shear = {float(e2)!r}"
        for n, e1, e2 in rows
    ]
    assert "np." not in head + tail


def test_vtk_series_writes_one_file_per_iteration(tmp_path, small_run):
    paths = write_vtk_series(small_run, tmp_path)
    assert len(paths) == len(small_run.records)
    for path, rec in zip(paths, small_run.records):
        text = pathlib.Path(path).read_text(encoding="utf-8")
        assert f"POINTS {rec.n_nodes}" in text
        assert "eta_hat" in text


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def _cli_config(tmp_path, **overrides):
    cfg = _quick_config(**overrides)
    path = tmp_path / "cli.cfg"
    write_config(cfg, path)
    return path


def test_cli_solve_writes_reports(tmp_path, capsys):
    cfg = _cli_config(tmp_path)
    out = tmp_path / "results"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    for name in ("convergence.csv", "efficiency.csv", "run_summary.txt"):
        assert (out / name).is_file()
    stdout = capsys.readouterr().out
    assert "iter  0" in stdout
    assert "stopped: max_iterations" in stdout


def test_cli_solve_quiet_and_optional_outputs(tmp_path, capsys):
    # one iteration: the single solve on the initial mesh
    cfg = _cli_config(tmp_path, write_vtk=True, write_system=True, max_iters=1)
    out = tmp_path / "full"
    code = main(["solve", "--config", str(cfg), "--out", str(out), "--quiet"])
    assert code == 0
    assert capsys.readouterr().out == ""
    for name in ("convergence.csv", "efficiency.csv", "run_summary.txt",
                 "mesh_000.vtk"):
        assert (out / name).is_file()
    # one record fits no slope
    text = (out / "run_summary.txt").read_text(encoding="utf-8")
    assert "iterations: 1 " in text
    assert _summary_slopes(text) == {}
    # system.mtx holds the reduced system of the last iteration's mesh
    result = run(load_config(cfg))
    dofmap = build_dofmap(result.final.mesh, result.ctx)
    want = assemble(result.final.mesh, result.ctx, result.profile, dofmap).matrix
    got = scipy.io.mmread(out / "system.mtx").tocsc()
    assert got.shape == want.shape
    assert np.abs(got - want).max() == 0.0


@pytest.mark.parametrize("command", ["solve"])
def test_cli_exit_2_when_the_initial_mesh_exceeds_max_dofs(
    tmp_path, capsys, command
):
    cfg = _cli_config(tmp_path, max_dofs=10)
    out = tmp_path / "blocked"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "configuration error" in captured.err
    assert "[adapt] max_dofs = 10" in captured.err
    assert captured.out == ""
    assert not (out / "convergence.csv").exists()


def test_cli_mesh_info_prints_the_bound_and_selects(tmp_path, capsys):
    # target, bound, the layer that solve uses, then the initial mesh
    cfg = _cli_config(tmp_path)
    assert main(["mesh-info", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["target:   F_hat * sqrt(period) <= 1e-08",
                         "bound:    delta >= 6.2512"]
    assert lines[2].startswith("layer:    delta = 8.0, zeta = (40+32j), F = ")
    assert ", F_hat = 2.0117e-12, F_hat*sqrtP = 2.0117e-12, coercive = True" in lines[2]
    assert [line.split(":")[0] for line in lines[3:]] == [
        "nodes", "elements", "dofs", "area", "diameter"]
    # 2 * nx * (k1 + k2 - 1) free dofs: 2 columns, 2 + 16 rows at h0 = 0.5
    assert lines[5] == "dofs:     68"


def test_cli_mesh_info_evaluates_the_constants_once(monkeypatch, capsys):
    # the bound needs no constants; the selected layer's are printed
    calls = []
    real = gratpml.pml.modeling_constants

    def counting(*args, **kwargs):
        calls.append(args[2].delta)
        return real(*args, **kwargs)

    monkeypatch.setattr(gratpml.pml, "modeling_constants", counting)
    monkeypatch.setattr(gratpml.adapt, "modeling_constants", counting)
    config = str(CONFIG_DIR / "flat.cfg")
    assert main(["mesh-info", "--config", config]) == 0
    assert "layer:    delta = 8.0," in capsys.readouterr().out
    assert calls == [8.0]


@pytest.mark.parametrize(
    "command, help_text",
    [
        ("solve", "output directory (overrides [output] dir)"),
        ("mesh-info", "write mesh_initial.vtk into this directory"),
    ],
    ids=["solve", "mesh-info"],
)
def test_cli_out_help_says_what_the_command_writes(capsys, command, help_text):
    # mesh-info reads no [output] dir: it writes only where --out says
    with pytest.raises(SystemExit) as info:
        gratpml.cli._build_parser().parse_args([command, "--help"])
    assert info.value.code == 0
    assert f"--out OUT {help_text}" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("command, flag", [("mesh-info", "--quiet")])
def test_cli_rejects_flags_the_command_does_not_read(tmp_path, command, flag):
    cfg = _cli_config(tmp_path)
    with pytest.raises(SystemExit) as info:
        main([command, "--config", str(cfg), flag])
    assert info.value.code == 2


@pytest.mark.parametrize("command", ["solve", "mesh-info"])
def test_cli_exit_2_when_the_output_directory_cannot_be_made(
    tmp_path, capsys, command
):
    cfg = _cli_config(tmp_path)
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    out = blocker / "out"  # below a regular file
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "configuration error" in captured.err
    assert captured.out == ""


def test_cli_exit_2_for_an_empty_output_directory(tmp_path, capsys, monkeypatch):
    # an empty [output] dir would put the reports in the working directory
    path = _write(tmp_path, MINIMAL_CFG + "\n[output]\ndir =\n")
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert main(["solve", "--config", str(path), "--quiet"]) == 2
    captured = capsys.readouterr()
    assert "configuration error" in captured.err
    assert "output.dir must not be empty" in captured.err
    assert captured.out == ""
    assert list(work.iterdir()) == []


def test_cli_mesh_info(tmp_path, capsys):
    cfg = _cli_config(tmp_path)
    out = tmp_path / "mesh"
    assert main(["mesh-info", "--config", str(cfg), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "nodes:" in stdout
    assert (out / "mesh_initial.vtk").is_file()


def test_cli_exit_2_for_configuration_problems(tmp_path, capsys):
    assert main(["solve", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert "configuration error" in capsys.readouterr().err

    bad = _write(
        tmp_path,
        MINIMAL_CFG.replace("theta_deg = 30.0", "theta_deg = 95.0"),
        "bad.cfg",
    )
    assert main(["solve", "--config", str(bad)]) == 2
    assert "theta_deg" in capsys.readouterr().err

    # every element integral uses one rule, so there is no quadrature key
    old = _write(
        tmp_path, MINIMAL_CFG + "[estimator]\nquad_degree = 5\n", "old.cfg"
    )
    assert main(["solve", "--config", str(old)]) == 2
    assert "unknown key [estimator] quad_degree" in capsys.readouterr().err

    # the cut-off guard of the mode table is a constant, not a key
    tol = _write(
        tmp_path, MINIMAL_CFG + "[modes]\nresonance_tol = 1e-6\n", "tol.cfg"
    )
    assert main(["solve", "--config", str(tol)]) == 2
    assert "unknown key [modes] resonance_tol" in capsys.readouterr().err

    # the incident wave has unit amplitude; the fields scale linearly
    amp = _write(tmp_path, MINIMAL_CFG + "[adapt]\namplitude = 2.0\n", "amp.cfg")
    assert main(["solve", "--config", str(amp)]) == 2
    assert "unknown key [adapt] amplitude" in capsys.readouterr().err

    # the mode table derives its window from the wave
    modes = _write(tmp_path, MINIMAL_CFG + "[modes]\nn_max = 20\n", "modes.cfg")
    assert main(["solve", "--config", str(modes)]) == 2
    assert "unknown key [modes] n_max" in capsys.readouterr().err

    # NaN and infinity are no numbers a run can use: a NaN tolerance never
    # stops the loop
    for extra, name in (
        ("[adapt]\ntolerance = nan\n", "adapt.tolerance = nan"),
        ("[adapt]\nh0 = -inf\n", "adapt.h0 = -inf"),
    ):
        odd = _write(tmp_path, MINIMAL_CFG + extra, "odd.cfg")
        assert main(["solve", "--config", str(odd), "--quiet"]) == 2
        captured = capsys.readouterr()
        assert f"{name} is not finite" in captured.err
        assert captured.out == ""

    # every run calibrates its layer, so no layer value is a key: a thin
    # delta = 0.01 would give a layer with Re zeta < 1, which is not coercive
    for extra, key in (
        ("[pml]\nsigma_re = nan\n", "sigma_re"),
        ("[pml]\nsigma_re = nan\ndelta = 2.0\n", "sigma_re"),
        ("[pml]\nsigma_im = inf\n", "sigma_im"),
        ("[pml]\ndelta = 0.01\n", "delta"),
        ("[pml]\nm = 3\n", "m"),
    ):
        layer = _write(tmp_path, MINIMAL_CFG + extra, "layer.cfg")
        for command in ("solve", "mesh-info"):
            quiet = ["--quiet"] if command == "solve" else []
            assert main([command, "--config", str(layer)] + quiet) == 2
            captured = capsys.readouterr()
            assert f"unknown key [pml] {key}" in captured.err
            assert captured.out == ""

    # the tracked corners are the peaks of the profile and marking uses one
    # bulk fraction, so neither is a key
    for extra, key in (
        ("[adapt]\ncorner_x = 5\ncorner_y = 5\n", "corner_x"),
        ("[adapt]\ncorner_y = 0.5\n", "corner_y"),
        ("[adapt]\ncorner_radius = 0.1\n", "corner_radius"),
        ("[adapt]\ntau = 0.5\n", "tau"),
    ):
        gone = _write(tmp_path, MINIMAL_CFG + extra, "gone.cfg")
        assert main(["solve", "--config", str(gone), "--quiet"]) == 2
        captured = capsys.readouterr()
        assert f"unknown key [adapt] {key}" in captured.err
        assert captured.out == ""


@pytest.mark.parametrize(
    "pml", [dict(target_fhat=-1.0), dict(delta0=2.0, delta_cap=1.0)]
)
def test_cli_exit_2_for_bad_calibration_settings(tmp_path, capsys, pml):
    # the calibration grid and its target are fixed: setting them is a
    # configuration problem for every command that calibrates, not a
    # failed calibration
    lines = "".join(f"{key} = {value}\n" for key, value in pml.items())
    cfg = _write(tmp_path, MINIMAL_CFG + "[pml]\n" + lines, "grid.cfg")
    for command in ("solve", "mesh-info"):
        quiet = ["--quiet"] if command == "solve" else []
        assert main([command, "--config", str(cfg)] + quiet) == 2
        captured = capsys.readouterr()
        assert "configuration error" in captured.err
        assert f"unknown key [pml] {next(iter(pml))}" in captured.err
        assert captured.out == ""


def test_cli_exit_3_when_no_thickness_meets_the_target(tmp_path, capsys):
    # 0.004 degrees above the shear order -1 cut-off (40.91428 degrees) the
    # order decays too slowly: at delta = 64, the thickest,
    # F_hat*sqrt(period) is still 26.9
    cfg = _cli_config(tmp_path, theta_deg=40.918)
    failure = "F_hat*sqrt(period) <= 1e-08; best was 26.9 at delta = 64.0"
    # the failure names the target, the best value and the bound, so the
    # report prints nothing
    assert main(["mesh-info", "--config", str(cfg)]) == 3
    captured = capsys.readouterr()
    assert "numerical failure" in captured.err
    assert failure in captured.err
    assert "; the target needs delta >= 373.93" in captured.err
    assert captured.out == ""
    # both commands calibrate first and fail before any output; the output
    # directory they made goes again, one that existed stays
    kept = tmp_path / "kept"
    kept.mkdir()
    for command in ("solve", "mesh-info"):
        for out in (tmp_path / "out", tmp_path / "new" / "deeper", kept):
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
            captured = capsys.readouterr()
            assert "numerical failure" in captured.err
            assert failure in captured.err
            assert captured.out == ""
        assert not (tmp_path / "out").exists()
        assert not (tmp_path / "new").exists()
        assert list(kept.iterdir()) == []  # no report, no mesh


# With the BASE wave the shear order n = -1 reaches its cut-off
# |alpha_-1| = kappa2 where sin(theta) = sqrt(5) * (1 - 1/sqrt(2)), at
# theta = 40.91428 degrees.
THETA_CUT_DEG = math.degrees(math.asin(math.sqrt(5.0) * (1.0 - math.sqrt(0.5))))

# At omega = 3*pi (kappa1 = 3*pi/sqrt(5)) the compressional order n = -1
# reaches its cut-off alpha_-1 = -kappa1 where sin(theta) = 2*sqrt(5)/3 - 1,
# at theta = 29.39 degrees; the BASE wave has no compressional cut-off
# below 90 degrees.
THETA_CUT1_DEG = math.degrees(math.asin(2.0 * math.sqrt(5.0) / 3.0 - 1.0))


def _solve_near_a_cut_off(tmp, branch, **overrides):
    # near a cut-off the run either absorbs the slow mode or reports a
    # numerical failure; it never raises and never keeps a leaky layer
    cfg = _cli_config(tmp, **overrides)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["solve", "--config", str(cfg), "--out", str(tmp / "o"),
                     "--quiet"])
    assert code in (0, 3)
    if code == 0:
        with open(tmp / "o" / "convergence.csv", encoding="utf-8") as fh:
            final = list(csv.DictReader(fh))[-1]
        assert float(final["eps_pml"]) <= 1e-3 * float(final["eps_fem"])
    else:
        assert ("F_hat*sqrt(period) <= 1e-08; best was" in err.getvalue()
                or f"sits at the branch-{branch} cut-off" in err.getvalue())


@settings(max_examples=20, deadline=None)
@example(rel=1e-9)
@example(rel=-1e-9)
@given(rel=st.floats(-1e-2, 1e-2))
def test_cli_solve_near_a_rayleigh_cut_off(tmp_path_factory, rel):
    _solve_near_a_cut_off(
        tmp_path_factory.mktemp("cutoff"), 2, theta_deg=THETA_CUT_DEG * (1.0 + rel)
    )


@settings(max_examples=20, deadline=None)
@example(rel=1e-9)
@example(rel=-1e-9)
@given(rel=st.floats(-1e-2, 1e-2))
def test_cli_solve_near_a_compressional_cut_off(tmp_path_factory, rel):
    _solve_near_a_cut_off(
        tmp_path_factory.mktemp("cutoff1"),
        1,
        omega=3.0 * math.pi,
        theta_deg=THETA_CUT1_DEG * (1.0 + rel),
    )


def test_cli_exit_3_for_numerical_failures(tmp_path, capsys):
    # kappa2 equals the first Bloch wavenumber: a genuine resonance, caught
    # after configuration parsing succeeded
    resonant = _quick_config(
        omega=2.0 * math.pi * math.sqrt(2.0), theta_deg=0.0
    )
    path = tmp_path / "resonant.cfg"
    write_config(resonant, path)
    for command in ("solve", "mesh-info"):
        argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
        assert main(argv) == 3, command
        captured = capsys.readouterr()
        assert "numerical failure" in captured.err
        assert "sits at the branch-2 cut-off" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()


def test_cli_help_and_usage_errors(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    assert "{solve,mesh-info}" in capsys.readouterr().out
    # the commands folded into ``solve`` and ``mesh-info`` are usage errors
    for argv in ([], ["validate-flat", "--config", "flat.cfg"],
                 ["efficiency", "--config", "flat.cfg"],
                 ["pml-calibrate", "--config", "flat.cfg"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
