"""Configuration parsing, the command line front end, files, and sweeps."""

import json
import os
import signal
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.io
import scipy.linalg

from bresse import cli, discretize, evolve, parallel, runner, spectral
from bresse.config import (
    ConfigError,
    auto_dt,
    config_id,
    expand_sweep,
    load_config,
    load_sweep,
    parse_config,
    to_dict,
)
from bresse.discretize import assemble
from bresse.runner import (
    ATLAS_COLUMNS,
    MAX_ENERGY_ROWS,
    UNDAMPED_FLAG,
    simulate_run,
    spectrum_run,
    sweep_run,
)
from bresse.plots import PlotInputError, emit_plots

from conftest import UNIT, zeroed_step_parts


def base_raw(outputs="out", **overrides):
    raw = {
        "params": dict(UNIT),
        "profile": {"alpha": 0.25, "beta": 0.75, "a0": 1.0},
        "bc": "DNN",
        "n": 12,
        "dt": "auto",
        "T": 3.0,
        "seed": 7,
        "lambda_grid": {"min": 1.0, "count": 24},
        "outputs": outputs,
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            raw[key] = {**raw[key], **value}
        else:
            raw[key] = value
    return raw


def write_cfg(tmp_path, name="cfg.json", **overrides):
    raw = base_raw(outputs=str(tmp_path / "run"), **overrides)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path), raw


def snapshot(directory):
    out = {}
    for root, _, files in os.walk(directory):
        for f in files:
            full = os.path.join(root, f)
            out[os.path.relpath(full, directory)] = Path(full).read_bytes()
    return out


def test_parse_defaults_and_roundtrip():
    raw = base_raw()
    cfg = parse_config(raw)
    assert cfg.dt == auto_dt(cfg.params, cfg.n)
    assert cfg.lambda_grid.max is None
    assert to_dict(cfg)["lambda_grid"]["spacing"] == "log"
    assert parse_config(to_dict(cfg)) == cfg


def test_save_load_roundtrip(tmp_path):
    cfg = parse_config(base_raw())
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(to_dict(cfg)))
    assert load_config(str(path)) == cfg


def test_config_id_ignores_output_location():
    from dataclasses import replace

    cfg = parse_config(base_raw())
    cid = config_id(cfg)
    assert len(cid) == 64 and set(cid) <= set("0123456789abcdef")
    assert config_id(replace(cfg, outputs="elsewhere")) == cid
    assert config_id(replace(cfg, n=13)) != cid
    assert config_id(parse_config(base_raw())) == cid


def test_config_id_is_stable_across_versions():
    """Sweep directories are named by config_id, so its canonical payload
    must not drift; both hashes were computed before the spacing field of
    LambdaGrid was dropped, and "spacing": "log" still parses."""
    assert config_id(parse_config(base_raw())) == (
        "4ec5ba3444ce7b076bd1bb7c2917e3fd01c9d798173c0c78afd9ae5a0831ceae")
    spaced = base_raw(lambda_grid={"min": 2.0, "max": 40.0, "spacing": "log"})
    assert config_id(parse_config(spaced)) == (
        "72efc594c7f01e341c7726964c6e7a45da6c655676cb3421e3a1fdb996c2a6f2")


def test_auto_dt_formula():
    cfg = parse_config(base_raw(params={"kappa0": 4.0}))
    assert cfg.params.max_wave_speed == 2.0
    assert cfg.dt == (cfg.params.L / cfg.n) / (2.0 * 2.0)


@pytest.mark.parametrize("mangle,needle", [
    (lambda r: r.update(bogus=1), "unknown config keys"),
    (lambda r: r.pop("T"), "required"),
    (lambda r: r["params"].pop("b"), "exactly the keys"),
    (lambda r: r["params"].update(gamma=1.0), "exactly the keys"),
    (lambda r: r["params"].update(kappa=-1.0), "bad params"),
    (lambda r: r["profile"].pop("a0"), "profile needs"),
    (lambda r: r["profile"].update(beta=2.0), "bad profile"),
    (lambda r: r.update(bc="XYZ"), "DNN, DDD"),
    (lambda r: r.update(n=3), "integer >= 4"),
    (lambda r: r.update(n="12"), "integer >= 4"),
    (lambda r: r.update(n=True), "integer >= 4"),
    (lambda r: r.update(T=0.0), "T must be positive"),
    (lambda r: r.update(dt=-0.5), "dt must be positive"),
    (lambda r: r.update(seed="x"), "seed must be an integer"),
    (lambda r: r.update(seed=-1), "seed must be an integer >= 0"),
    (lambda r: r.update(T=None), "T must be a finite number"),
    (lambda r: r.update(T=[1]), "T must be a finite number"),
    (lambda r: r.update(T="inf"), "T must be a finite number"),
    (lambda r: r.update(dt=None), "dt must be a finite number"),
    (lambda r: r["params"].update(kappa=None), "params.kappa must be a finite number"),
    (lambda r: r["profile"].update(alpha=None), "profile.alpha must be a finite number"),
    (lambda r: r["profile"].update(a0=[1]), "profile.a0 must be a finite number"),
    (lambda r: r["lambda_grid"].update(step=2), "lambda_grid holds"),
    (lambda r: r["lambda_grid"].update(spacing="linear"), "log spacing"),
    (lambda r: r["lambda_grid"].update(count=1), ">= 2"),
    (lambda r: r["lambda_grid"].update(count=48.7), "count must be an integer"),
    (lambda r: r["lambda_grid"].update(count="48"), "count must be an integer"),
    (lambda r: r["lambda_grid"].update(count=True), "count must be an integer"),
    (lambda r: r["lambda_grid"].update(min=0.0), "must be positive"),
    (lambda r: r["lambda_grid"].update(min=None), "lambda_grid.min must be a finite number"),
    (lambda r: r["lambda_grid"].update(max="nan"), "lambda_grid.max must be a finite number"),
    (lambda r: r["lambda_grid"].update(max=0.5), "exceed min"),
    (lambda r: r.update(T=True), "T must be a finite number, got True"),
    (lambda r: r["params"].update(rho1=True), "params.rho1 must be a finite number"),
    (lambda r: r["profile"].update(a0=True), "profile.a0 must be a finite number, got True"),
    (lambda r: r.update(T=1e308), "inf time steps, above the cap"),
    (lambda r: r.update(T=2.0, dt=1e-8), "2e[+]08 time steps, above the cap"),
])
def test_parse_rejections(mangle, needle):
    raw = base_raw()
    mangle(raw)
    with pytest.raises(ConfigError, match=needle):
        parse_config(raw)


def test_parse_rejects_degenerate_geometry():
    raw = base_raw(params={"l": 1.0, "L": float(np.pi)},
                   profile={"beta": 0.75})
    with pytest.raises(ConfigError, match=r"pi/l"):
        parse_config(raw)


def test_cli_rejects_degenerate_geometry(tmp_path, capsys):
    path, _ = write_cfg(tmp_path, params={"l": 1.0, "L": float(np.pi)})
    assert cli.main(["simulate", path]) == 2
    assert "pi/l" in capsys.readouterr().err


@pytest.mark.parametrize("T", [None, "inf"])
def test_cli_malformed_number_exit_code(tmp_path, capsys, T):
    path, raw = write_cfg(tmp_path, T=T)
    assert cli.main(["simulate", path]) == 2
    assert "T must be a finite number" in capsys.readouterr().err
    assert not os.path.exists(raw["outputs"])


def test_cli_refuses_step_count_above_cap(tmp_path, capsys):
    path, raw = write_cfg(tmp_path, bc="DDD", n=8, T=1e308)
    assert cli.main(["simulate", path]) == 2
    err = capsys.readouterr().err
    assert "time steps, above the cap" in err and "Traceback" not in err
    assert not os.path.exists(raw["outputs"])


@pytest.mark.parametrize("command, what", [("simulate", "config"), ("sweep", "sweep")])
def test_cli_unreadable_input_file_exit_code(tmp_path, capsys, command, what):
    """A missing and a malformed config or sweep file each exit 2 with a
    message naming the kind of file and its path."""
    missing = tmp_path / "missing.json"
    assert cli.main([command, str(missing)]) == 2
    assert f"error: cannot read {what} {missing}: " in capsys.readouterr().err
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"n": ')
    assert cli.main([command, str(malformed)]) == 2
    assert f"error: {what} {malformed} is not valid JSON: " in capsys.readouterr().err


def test_cli_config_argument_spellings(tmp_path, capsys):
    path, _ = write_cfg(tmp_path, n=8, T=0.5)
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert cli.main(["simulate", path, "-o", out_a]) == 0
    assert cli.main(["simulate", "-c", path, "-o", out_b]) == 0
    capsys.readouterr()
    read = lambda d: Path(d, "energy.csv").read_bytes()
    assert read(out_a) == read(out_b)
    assert cli.main(["simulate", path, "-c", path]) == 2
    assert "exactly one" in capsys.readouterr().err
    assert cli.main(["simulate"]) == 2


def test_cli_simulate_outputs(tmp_path, capsys):
    path, raw = write_cfg(tmp_path)
    assert cli.main(["simulate", path]) == 0
    assert "wrote" in capsys.readouterr().out
    run = raw["outputs"]
    lines = Path(run, "energy.csv").read_text().splitlines()
    assert lines[0] == "t,energy,dissipation"
    assert len(lines) <= MAX_ENERGY_ROWS + 2
    # shortest-roundtrip float format: re-serializing reproduces the text
    for cell in lines[1].split(","):
        assert repr(float(cell)) == cell
    report = json.loads(Path(run, "report.json").read_text())
    assert report["regime"] == "EqualSpeed"
    assert report["predicted_decay"] == "Exponential"
    assert report["max_balance_residual"] <= 1e-10
    assert report["config_id"] == config_id(parse_config(raw))


def test_cli_reruns_are_byte_identical(tmp_path):
    path, raw = write_cfg(tmp_path)
    assert cli.main(["simulate", path]) == 0
    assert cli.main(["spectrum", path]) == 0
    first = snapshot(raw["outputs"])
    assert cli.main(["simulate", path]) == 0
    assert cli.main(["spectrum", path]) == 0
    assert snapshot(raw["outputs"]) == first
    assert set(first) >= {"energy.csv", "report.json", "summary.json",
                          "eigenvalues.csv", "eigenvalues.json", "resolvent.csv"}


def test_cli_spectrum_summary(tmp_path, capsys):
    path, raw = write_cfg(tmp_path)
    assert cli.main(["spectrum", path]) == 0
    assert "spectral abscissa" in capsys.readouterr().out
    summary = json.loads(Path(raw["outputs"], "summary.json").read_text())
    assert summary["spectral_abscissa"] < 0.0
    assert summary["max_real_part_unrestricted"] < 0.0
    assert summary["lambda_cap"] > 0.0
    assert summary["flag"] is None
    assert not any("not a measured" in note for note in summary["notes"])
    assert summary["scan"]["count"] >= 24
    if summary["alpha_fit"] is not None and summary["alpha_fit"] > 0:
        assert summary["bt_energy_exponent"] == pytest.approx(
            2.0 / summary["alpha_fit"])
    eig_rows = Path(raw["outputs"], "eigenvalues.csv").read_text().splitlines()
    assert eig_rows[0] == "re,im"
    assert len(eig_rows) - 1 == 6 * raw["n"] - 2


def test_cli_spectrum_undamped_flag(tmp_path, capsys):
    path, raw = write_cfg(tmp_path, profile={"a0": 0.0})
    assert cli.main(["spectrum", path]) == 0
    assert UNDAMPED_FLAG in capsys.readouterr().out
    summary = json.loads(Path(raw["outputs"], "summary.json").read_text())
    assert summary["flag"] == UNDAMPED_FLAG
    assert summary["alpha_fit"] is None
    assert summary["scan"] is None
    assert not os.path.exists(os.path.join(raw["outputs"], "resolvent.csv"))


def test_cli_spectrum_empty_window_refused_before_the_spectrum(tmp_path, capsys,
                                                                monkeypatch):
    """A damped config whose frequency window starts above the resolved band
    exits 2 before the dense spectrum is computed; an undamped one skips the
    scan and runs."""
    path, raw = write_cfg(tmp_path, profile={"a0": 0.0}, lambda_grid={"min": 100.0})
    assert cli.main(["spectrum", path]) == 0
    capsys.readouterr()

    def no_spectrum(system):
        raise AssertionError("the spectrum was computed for an empty window")

    monkeypatch.setattr(spectral, "eigenvalues", no_spectrum)
    path, _ = write_cfg(tmp_path, lambda_grid={"min": 100.0})
    assert cli.main(["spectrum", path]) == 2
    assert "need 0 < lam_min < lam_max" in capsys.readouterr().err


def test_cli_spectrum_empty_window_refused_before_assembly(tmp_path, capsys, monkeypatch):
    """The window needs only the parameters and n, so a DDD config whose
    lambda_grid.min lies above the resolved band exits 2 with the window's
    message before any system is assembled."""
    def no_assembly(*args, **kwargs):
        raise AssertionError("a system was assembled for an empty window")

    monkeypatch.setattr(runner, "assemble", no_assembly)
    path, raw = write_cfg(tmp_path, bc="DDD", lambda_grid={"min": 100.0})
    assert 100.0 > spectral.frequency_cap(parse_config(raw).params, raw["n"])
    assert cli.main(["spectrum", path]) == 2
    assert "need 0 < lam_min < lam_max" in capsys.readouterr().err


@pytest.mark.parametrize("writer", ["energy", "eigenvalues", "resolvent"])
def test_csv_writers_match_per_value_formatting(tmp_path, writer):
    """Each CSV writer formats whole arrays; its bytes equal one
    repr(float(x)) per NumPy scalar, the formatting it replaced, on -0.0,
    subnormals, 1e-300, huge values and integers stored as floats."""
    values = np.array([-0.0, 0.0, 5e-324, -2.2250738585072014e-309, 1e-300, 3.0, -7.0,
                       1e16, 2.0 ** 60, 0.1, 1 / 3, -1.7976931348623157e308])
    a, b, c = values, values[::-1].copy(), np.roll(values, 5)
    fmt = lambda x: repr(float(x))  # noqa: E731
    path = str(tmp_path / "out.csv")
    if writer == "energy":
        runner.write_energy_csv(evolve.EnergyTimeSeries(a, b, c), path)
        rows = [runner.ENERGY_HEADER] + [f"{fmt(t)},{fmt(e)},{fmt(d)}" for t, e, d in zip(a, b, c)]
    elif writer == "eigenvalues":
        eigs = a + 1j * b
        runner.write_eigenvalues_csv(eigs, path)
        rows = ["re,im"] + [f"{fmt(v.real)},{fmt(v.imag)}" for v in eigs]
    else:
        runner.write_resolvent_csv(spectral.AxisScan(a, b), path)
        rows = ["lambda,resolvent_norm"] + [f"{fmt(lam)},{fmt(r)}" for lam, r in zip(a, b)]
    assert Path(path).read_bytes() == ("\n".join(rows) + "\n").encode()


def test_importing_the_cli_loads_no_lazy_module():
    """scipy.special (the growth fit) and scipy.io (operator dumps) load on
    first use, not with the command line, whose import is the set-up time of
    every command."""
    import subprocess

    src = os.path.dirname(os.path.dirname(runner.__file__))
    code = ("import sys, bresse.cli; "
            "print(sorted(m for m in ('scipy.special', 'scipy.io') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def no_assembly(*args, **kwargs):
    raise AssertionError("a size above the dense cap was assembled")


def test_cli_spectrum_dense_cap_exit_code(tmp_path, capsys, monkeypatch):
    """Refused from (bc, n) alone, before the system is assembled."""
    monkeypatch.setattr(runner, "assemble", no_assembly)
    path, _ = write_cfg(tmp_path, n=601)
    assert cli.main(["spectrum", path]) == 3
    assert "smaller n" in capsys.readouterr().err


def test_cli_dump_operators_refused_above_dense_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(runner, "assemble", no_assembly)
    monkeypatch.setattr(discretize, "DENSE_CAP", 40)  # DNN n = 8: size 46, half size 23
    path, raw = write_cfg(tmp_path, n=8)
    assert cli.main(["simulate", path, "--dump-operators"]) == 3
    assert "smaller n" in capsys.readouterr().err
    assert not os.path.exists(raw["outputs"])  # no .mtx file, nor any other


# DNN n = 30: half size 89; make_initial wants its 9 lowest modes, whose
# Lanczos basis holds min(89, 4 * 9 + 20) = 56 vectors of 89 entries (4,984)


def test_cli_simulate_runs_above_dense_cap_half_size(tmp_path, monkeypatch):
    """simulate builds no dense half-size block: a half size above the cap
    runs, as long as the initial modes' basis fits the cap's element budget."""
    monkeypatch.setattr(discretize, "DENSE_CAP", 80)  # 6,400 elements
    path, raw = write_cfg(tmp_path, n=30, T=0.2)
    assert cli.main(["simulate", path]) == 0
    report = json.loads(Path(raw["outputs"], "report.json").read_text())
    assert report["energy_initial"] == pytest.approx(1.0, rel=1e-12)


def test_cli_simulate_refused_above_basis_budget(tmp_path, capsys, monkeypatch):
    """An initial-mode basis above the cap's element budget is refused from
    (bc, n), before the system is assembled."""
    monkeypatch.setattr(runner, "assemble", no_assembly)
    monkeypatch.setattr(discretize, "DENSE_CAP", 70)  # 4,900 elements
    path, raw = write_cfg(tmp_path, n=30)
    assert cli.main(["simulate", path]) == 3
    assert "smaller n" in capsys.readouterr().err
    assert not os.path.exists(raw["outputs"])


def test_cli_singular_step_factor_exit_code(tmp_path, capsys, monkeypatch):
    """A step matrix that is truly singular (zero mass, damping and stiffness
    parts, so P = 0) exits 3 and names the failure."""
    init = evolve.MidpointStepper.__init__

    def zeroed(self, system, dt):
        init(self, zeroed_step_parts(system), dt)

    monkeypatch.setattr(evolve.MidpointStepper, "__init__", zeroed)
    path, _ = write_cfg(tmp_path, n=8, T=0.5)
    assert cli.main(["simulate", path]) == 3
    assert "singular" in capsys.readouterr().err


def test_cli_failed_cholesky_exit_code(tmp_path, capsys, monkeypatch):
    def indefinite(*args, **kwargs):
        raise np.linalg.LinAlgError("2-th leading minor not positive definite")

    monkeypatch.setattr(scipy.linalg, "cholesky", indefinite)
    path, _ = write_cfg(tmp_path, n=8)
    assert cli.main(["spectrum", path]) == 3
    assert "positive definite" in capsys.readouterr().err


def test_cli_unconverged_lanczos_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(spectral, "LANCZOS_MAXITER", 1)
    path, _ = write_cfg(tmp_path, n=8)
    assert cli.main(["spectrum", path]) == 3
    assert "did not converge" in capsys.readouterr().err


def test_cli_unconverged_mode_lanczos_exit_code(tmp_path, capsys, monkeypatch):
    """The initial modes' Lanczos run that cannot meet its residual test in
    its step bound exits 3, before any output is written."""
    monkeypatch.setattr(evolve, "MODE_RTOL", 0.0)
    path, raw = write_cfg(tmp_path, n=8)
    assert cli.main(["simulate", path]) == 3
    assert "did not converge" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(raw["outputs"], "report.json"))


def test_spectrum_skips_peaks_on_the_resonance_floor(tmp_path, monkeypatch):
    """Raised to 5e-10, the resonance floor covers the two least-damped
    in-band eigenvalues of DNN kappa0 = 2 at n = 50; peak insertion must
    leave them out, so that the scan does not refuse its own grid, and the
    summary must say so and that the abscissa is no measured margin."""
    monkeypatch.setattr(spectral, "RESONANCE_RTOL", 5e-10)
    path, _ = write_cfg(tmp_path, n=50, params={"kappa0": 2.0})
    summary = spectrum_run(load_config(path))
    assert summary["alpha_fit"] is not None
    assert ("peak insertion skipped 2 eigenvalue(s) on the axis to the resonance floor"
            in summary["notes"])
    assert any("not a measured" in note for note in summary["notes"])


@pytest.mark.parametrize("command", ["spectrum", "sweep"])
def test_cli_rejects_nonpositive_workers(tmp_path, capsys, command):
    path, _ = write_cfg(tmp_path, n=8)
    assert cli.main([command, path, "--workers", "-3"]) == 2
    assert "positive integer" in capsys.readouterr().err
    assert not os.path.exists(str(tmp_path / "run"))


def test_dump_operators_roundtrip(tmp_path):
    path, raw = write_cfg(tmp_path, n=8)
    assert cli.main(["spectrum", path, "--dump-operators"]) == 0
    cfg = parse_config(raw)
    system = assemble(cfg.params, cfg.profile, cfg.bc, cfg.n)
    A = scipy.io.mmread(os.path.join(raw["outputs"], "A.mtx")).toarray()
    M = scipy.io.mmread(os.path.join(raw["outputs"], "M.mtx")).toarray()
    np.testing.assert_allclose(A, system.A, rtol=1e-13, atol=1e-300)
    np.testing.assert_allclose(M, system.M, rtol=1e-13, atol=1e-300)
    np.testing.assert_array_equal(M, M.T)


def test_plots_missing_inputs_all_listed(tmp_path):
    with pytest.raises(PlotInputError) as err:
        emit_plots(str(tmp_path))
    assert len(err.value.missing) == 4
    text = str(err.value)
    for needed in ("energy.csv", "eigenvalues.csv", "resolvent.csv"):
        assert needed in text
    assert cli.main(["plots", str(tmp_path)]) == 2


def test_plots_emitted_with_relative_paths(tmp_path, capsys):
    path, raw = write_cfg(tmp_path)
    assert cli.main(["simulate", path]) == 0
    assert cli.main(["spectrum", path]) == 0
    assert cli.main(["plots", raw["outputs"]]) == 0
    assert capsys.readouterr().out.count("wrote") >= 4
    for script in ("energy_semilog.plt", "energy_loglog.plt",
                   "spectrum.plt", "resolvent.plt"):
        body = Path(raw["outputs"], script).read_text()
        assert raw["outputs"] not in body  # relative references only
    semilog = Path(raw["outputs"], "energy_semilog.plt").read_text()
    assert '"energy.csv"' in semilog


def sweep_raw(tmp_path, grid, **base_overrides):
    return {
        "base": base_raw(outputs="unused", n=10, T=2.0, **base_overrides),
        "grid": grid,
        "outputs": str(tmp_path / "sweep"),
    }


def test_sweep_expansion_regimes(tmp_path):
    spec_dict = sweep_raw(tmp_path, {"params.kappa0": [1.0, 2.0],
                                     "params.b": [1.0, 2.0]})
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(spec_dict))
    spec = load_sweep(str(path))
    configs = expand_sweep(spec)
    assert len(configs) == 4
    for cfg in configs:
        assert cfg.outputs.startswith(spec_dict["outputs"])
        assert os.path.basename(cfg.outputs) == config_id(cfg)[:12]

    atlas = sweep_run(spec).atlas
    rows = Path(atlas).read_text().splitlines()
    assert rows[0] == ",".join(ATLAS_COLUMNS)
    assert len(rows) == 5
    cells = [r.split(",") for r in rows[1:]]
    assert [c[0] for c in cells] == sorted(c[0] for c in cells)
    regimes = sorted(c[3] for c in cells)
    assert regimes == ["EqualKappaOnly", "EqualSpeed", "General", "General"]
    assert all(c[9] == "ok" for c in cells)
    for c in cells:
        assert float(c[5]) < 0.0  # every point is damped here


def test_sweep_continues_past_failing_point(tmp_path):
    spec_dict = sweep_raw(tmp_path, {"lambda_grid.min": [1.0, 1e9]})
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(spec_dict))
    atlas = sweep_run(load_sweep(str(path))).atlas
    rows = [r.split(",") for r in Path(atlas).read_text().splitlines()[1:]]
    assert sorted(c[9] for c in rows) == ["error", "ok"]
    bad = next(c for c in rows if c[9] == "error")
    assert bad[10].startswith("spectrum: ValueError: ")


def test_sweep_point_refused_above_dense_cap(tmp_path, monkeypatch):
    """A point whose spectrum exceeds the dense cap keeps an error row and
    is refused before its system is assembled."""
    monkeypatch.setattr(runner, "assemble", no_assembly)
    monkeypatch.setattr(discretize, "DENSE_CAP", 40)  # DNN n = 8: size 46, half size 23
    spec_dict = sweep_raw(tmp_path, {"n": [8]})
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(spec_dict))
    atlas = sweep_run(load_sweep(str(path))).atlas
    rows = [r.split(",") for r in Path(atlas).read_text().splitlines()[1:]]
    assert [c[9] for c in rows] == ["error"]
    assert rows[0][10].startswith("assemble: DenseSolverCapError: ")


def test_pooled_sweep_matches_in_process(tmp_path, capsys, monkeypatch):
    """Four points, the largest refused by the dense cap: forked workers
    write the same files, byte for byte, as the in-process map."""
    import shutil

    monkeypatch.setattr(discretize, "DENSE_CAP", 60)  # DNN size 6n - 2: n = 12 is refused
    spec_dict = sweep_raw(tmp_path, {"n": [6, 8, 10, 12]})
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(spec_dict))
    spec = load_sweep(str(path))

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    serial = sweep_run(spec)
    assert (serial.points, serial.processes) == (4, 1)
    in_process = snapshot(spec.outputs)
    rows = [r.split(",") for r in in_process["atlas.csv"].decode().splitlines()[1:]]
    assert sorted(c[9] for c in rows) == ["error", "ok", "ok", "ok"]

    shutil.rmtree(spec.outputs)
    capsys.readouterr()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    assert cli.main(["sweep", str(path)]) == 0
    assert capsys.readouterr().out.endswith("(4 points, 4 processes)\n")
    assert snapshot(spec.outputs) == in_process


def test_dead_sweep_worker_exits_3(tmp_path, capsys, monkeypatch):
    """A worker killed mid-point ends the sweep with exit 3, one line on
    stderr and no atlas; the forked workers inherit the patched runner."""
    simulate_point, parent = runner.simulate_run, os.getpid()

    def die_on_n10(cfg, **kwargs):
        if cfg.n == 10 and os.getpid() != parent:  # never kill the test process itself
            os._exit(1)
        return simulate_point(cfg, **kwargs)

    monkeypatch.setattr(runner, "simulate_run", die_on_n10)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    spec_dict = sweep_raw(tmp_path, {"n": [8, 10]})
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(spec_dict))
    assert cli.main(["sweep", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("sweep failed: a worker process died")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert not os.path.exists(os.path.join(spec_dict["outputs"], "atlas.csv"))


def test_pooled_sweep_workers_run_one_blas_thread(tmp_path, monkeypatch):
    """Two forked workers each read one thread back from every OpenBLAS copy,
    though the parent runs two, before and after; the patched point reports
    the counts as its error."""
    getters = parallel.openblas_functions("get")
    if not getters:
        pytest.skip("no OpenBLAS thread-count getter found in this process")

    def report_threads(cfg, **kwargs):
        raise RuntimeError(" ".join(str(get()) for get in parallel.openblas_functions("get")))

    monkeypatch.setattr(runner, "simulate_run", report_threads)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    spec_dict = sweep_raw(tmp_path, {"n": [6, 8]})
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(spec_dict))
    before = [get() for get in getters]
    try:
        for set_threads in parallel.openblas_functions("set"):
            set_threads(2)
        result = sweep_run(load_sweep(str(path)))
        after = [get() for get in getters]
    finally:
        for set_threads, count in zip(parallel.openblas_functions("set"), before):
            set_threads(count)
    assert result.processes == 2
    assert after == [2] * len(getters)
    with open(result.atlas) as fh:
        rows = [r.split(",") for r in fh.read().splitlines()[1:]]
    ones = " ".join(["1"] * len(getters))
    assert [c[10] for c in rows] == [f"simulate: RuntimeError: {ones}"] * 2


def test_sweep_does_not_fork_beside_another_thread(tmp_path, monkeypatch):
    import threading

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    spec_dict = sweep_raw(tmp_path, {"n": [6, 8]})
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(spec_dict))
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        result = sweep_run(load_sweep(str(path)))
    finally:
        release.set()
        waiter.join(timeout=10)
    assert (result.points, result.processes) == (2, 1)
    assert not waiter.is_alive()


HANGING_SWEEP = """
import os, sys, time
from bresse import cli, runner

def hang(cfg, **kwargs):
    pid_file = os.path.join(sys.argv[2], f"worker{cfg.n}.pid")
    with open(pid_file + ".tmp", "w") as fh:
        fh.write(str(os.getpid()))
    os.replace(pid_file + ".tmp", pid_file)
    time.sleep(120)

runner.simulate_run = hang
os.sched_getaffinity = lambda pid: {0, 1}
cli.main(["sweep", sys.argv[1]])
"""


def _running(pid):
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(sys.platform != "linux", reason="the parent-death signal is Linux's")
def test_sweep_workers_die_with_a_killed_parent(tmp_path):
    """A sweep killed from outside leaves no worker blocked on its queue."""
    import subprocess
    import time

    spec_dict = sweep_raw(tmp_path, {"n": [8, 10]})
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(spec_dict))
    src = os.path.dirname(os.path.dirname(runner.__file__))
    proc = subprocess.Popen([sys.executable, "-c", HANGING_SWEEP, str(path), str(tmp_path)],
                            env={**os.environ, "PYTHONPATH": src})
    pid_files = [tmp_path / "worker8.pid", tmp_path / "worker10.pid"]
    pids = []
    try:
        deadline = time.monotonic() + 60
        while not all(f.exists() for f in pid_files) and time.monotonic() < deadline:
            time.sleep(0.05)
        pids = [int(f.read_text()) for f in pid_files]
        proc.kill()
        proc.wait()
        deadline = time.monotonic() + 10
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, pids))
    finally:
        proc.kill()
        for pid in filter(_running, pids):
            os.kill(pid, signal.SIGKILL)


def test_sweep_validation():
    with pytest.raises(ConfigError, match="required"):
        load_sweep_from_dict({"base": {}, "outputs": "x"})
    with pytest.raises(ConfigError, match="nonempty"):
        load_sweep_from_dict({"base": {}, "grid": {}, "outputs": "x"})
    with pytest.raises(ConfigError, match="nonempty list"):
        load_sweep_from_dict({"base": {}, "grid": {"n": 4}, "outputs": "x"})
    with pytest.raises(ConfigError, match="above the cap"):
        load_sweep_from_dict({"base": {}, "grid": {"n": [4, 5]},
                              "outputs": "x", "max_points": 1})
    for max_points in (2.5, "256", True):
        with pytest.raises(ConfigError, match="max_points must be an integer"):
            load_sweep_from_dict({"base": {}, "grid": {"n": [4]},
                                  "outputs": "x", "max_points": max_points})


def load_sweep_from_dict(raw, tmp=None):
    import tempfile

    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(raw, fh)
        name = fh.name
    try:
        return load_sweep(name)
    finally:
        os.unlink(name)


def test_sweep_rejects_bad_paths(tmp_path):
    spec_dict = sweep_raw(tmp_path, {"params.nothing": [1.0]})
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(spec_dict))
    with pytest.raises(ConfigError, match="exactly the keys"):
        expand_sweep(load_sweep(str(path)))
    assert cli.main(["sweep", str(path)]) == 2
    assert cli.main(["sweep", str(tmp_path / "absent.json")]) == 2


def test_single_point_sweep_matches_direct_runs(tmp_path):
    spec_dict = sweep_raw(tmp_path, {"params.b": [1.5]})
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(spec_dict))
    spec = load_sweep(str(path))
    sweep_run(spec)
    (cfg,) = expand_sweep(spec)

    from dataclasses import replace

    direct = replace(cfg, outputs=str(tmp_path / "direct"))
    simulate_run(direct)
    spectrum_run(direct)

    swept = snapshot(cfg.outputs)
    straight = snapshot(direct.outputs)
    assert set(swept) == set(straight)
    for name in ("energy.csv", "eigenvalues.csv", "eigenvalues.json",
                 "resolvent.csv", "summary.json"):
        assert swept[name] == straight[name]
    left = json.loads(swept["report.json"])
    right = json.loads(straight["report.json"])
    assert left["config"].pop("outputs") != right["config"].pop("outputs")
    assert left == right
