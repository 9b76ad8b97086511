"""Command-line behavior: config precedence, sweeps, manifests, solving."""

import dataclasses
import json
import math

import numpy as np
import pytest

import mm3nlos.cli as cli
from mm3nlos.cli import ConfigError, main, parse_config
from mm3nlos.geom import PathObservation, SphericalAngles, angles_from_direction
from mm3nlos.measure import MeasurementRecord, format_record
from mm3nlos.sim import ExperimentConfig, curve_csv_header

AP = np.array([-2.674335, 1.692935, 2.874281])
STA = np.array([-1.101612, 1.381307, -0.382743])
T1 = np.array([-2.86844, 1.765273, -0.140495])
T2 = np.array([-2.81176, -1.611098, -1.042377])


def record_line(target, ts, tag, snr=20.0):
    obs = PathObservation(
        aod=angles_from_direction(target - AP),
        aoa=angles_from_direction(target - STA),
        path_length=float(np.linalg.norm(target - AP) + np.linalg.norm(target - STA)),
        snr_db=snr,
        timestamp=ts,
    )
    return format_record(MeasurementRecord(obs, tag))


def scene_config(tmp_path):
    path = tmp_path / "scene.cfg"
    path.write_text(
        "sta_pos = -1.101612,1.381307,-0.382743\n"
        "planes = yoz\n"
    )
    return str(path)


TINY_SWEEP = (
    "tx_upa = 4x4\n"
    "rx_upa = 4x4\n"
    "trials = 3\n"
    "seed = 1\n"
)


# ---------------------------------------------------------------------------
# configuration

def test_defaults_without_a_config_file():
    assert parse_config() == ExperimentConfig()


def test_file_fields_and_override_precedence(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\ntrials = 7\nsnr-db = 0, 10\nbeam = aux\n")
    cfg = parse_config(path)
    assert (cfg.trials, cfg.snr_db, cfg.beam) == (7, (0.0, 10.0), ("aux",))
    cfg = parse_config(path, overrides={"trials": "9"})
    assert cfg.trials == 9


def test_config_errors_name_the_offender(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("trials = 5\nshape = round\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:2.*shape"):
        parse_config(path)
    path.write_text("trials = soon\n")
    with pytest.raises(ConfigError, match=r"trials"):
        parse_config(path)
    path.write_text("trials\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config(path)
    with pytest.raises(ConfigError, match="not found"):
        parse_config(tmp_path / "missing.cfg")
    with pytest.raises(ConfigError, match="trials"):
        parse_config(path=None, overrides={"trials": "0"})
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(path=None, overrides={"mode": "fast"})


def test_upa_and_box_value_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "tx_upa = 4x4, 8x8\n"
        "rx_upa = 4x4, 8x8\n"
        "target_box = 0,1, 0.5,2, -1,1\n"
    )
    cfg = parse_config(path)
    assert cfg.tx_upa == ((4, 4), (8, 8))
    assert cfg.target_box == ((0.0, 1.0), (0.5, 2.0), (-1.0, 1.0))
    path.write_text("tx_upa = 4by4\n")
    with pytest.raises(ConfigError, match="HxV"):
        parse_config(path)


def _as_text(value) -> str:
    """A config value as config-file text."""
    if isinstance(value, tuple) and all(isinstance(v, int) for v in value):
        return "x".join(str(v) for v in value)  # an HxV array size
    if isinstance(value, tuple):
        return ",".join(_as_text(v) for v in value)
    return str(value)


def test_every_key_round_trips_its_default(tmp_path):
    path = tmp_path / "defaults.cfg"
    defaults = ExperimentConfig()
    path.write_text("".join(
        f"{f.name} = {_as_text(getattr(defaults, f.name))}\n"
        for f in dataclasses.fields(ExperimentConfig)
    ))
    assert parse_config(path) == defaults
    for removed in ("carrier_hz", "noise_power", "delta_offset"):
        path.write_text(f"{removed} = 1\n")
        with pytest.raises(ConfigError, match=f"unknown key '{removed}'"):
            parse_config(path)


def test_bad_flag_value_exits_with_config_error(tmp_path, capsys):
    rc = main(["sweep-snr", "--trials", "soon", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_config_checks_run_before_any_output(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    out = tmp_path / "curve.csv"
    for bad in (
        "ftm_sigma_m = 0.01, -0.5", "target_box = 2,0, 0.5,4, -1,1", "snr_db = nan",
        # A well-formed box behind the AP, where no point is covered.
        "target_box = -3,-2, 0.5,4, -1,1",
        "min_pair_angle = 1.6", "min_pair_angle = nan", "table_capacity = 0",
    ):
        cfg_path.write_text(TINY_SWEEP + bad + "\n")
        assert main(["sweep-snr", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and bad.split(" =")[0] in err
        assert not out.exists()
        assert not (tmp_path / "curve.manifest.json").exists()

    records = tmp_path / "obs.records"
    records.write_text(
        record_line(T1, ts=1, tag="current") + "\n"
        + record_line(T2, ts=0, tag="historical") + "\n"
    )
    assert main(["solve-once", "--config", str(cfg_path), str(records)]) == 2
    assert "table_capacity" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweeps

def test_sweep_writes_csv_raw_and_manifest(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(TINY_SWEEP)
    out = tmp_path / "curve.csv"
    rc = main([
        "sweep-snr", "--config", str(cfg_path), "--snr-db", "10,20",
        "--out", str(out), "--raw",
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == curve_csv_header()
    assert len(lines) == 3  # header plus one row per SNR point

    manifest = json.loads((tmp_path / "curve.manifest.json").read_text())
    assert manifest["status"] == "complete"
    assert manifest["command"] == "sweep-snr"
    assert manifest["config_text"] == TINY_SWEEP
    assert manifest["overrides"] == {"snr_db": "10,20"}
    assert manifest["seed"] == 1
    assert manifest["finished_utc"] is not None
    assert str(out) in manifest["outputs"]

    raw = (tmp_path / "curve.raw.csv").read_text().splitlines()
    assert len(raw) == 1 + 2 * 3  # header plus trials x grid points
    assert capsys.readouterr().err.count("mean=") == 2


def test_identical_invocations_are_byte_identical(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(TINY_SWEEP)
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert main(["sweep-ftm", "--config", str(cfg_path), "--ftm-sigma-m", "0.01,0.1", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_consecutive_calls_share_the_parser_but_not_their_arguments(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(TINY_SWEEP)
    first = tmp_path / "first.csv"
    argv = ["sweep-snr", "--config", str(cfg_path), "--snr-db", "10,20", "--seed", "5", "--raw", "--out"]
    assert main(argv + [str(first)]) == 0
    second = tmp_path / "second.csv"
    assert main(["sweep-ftm", "--config", str(cfg_path), "--out", str(second)]) == 0
    manifest = json.loads((tmp_path / "second.manifest.json").read_text())
    assert manifest["command"] == "sweep-ftm"
    assert manifest["overrides"] == {}
    assert manifest["seed"] == 1  # the file's seed, not the first call's flag
    assert manifest["effective_config"]["snr_db"] == [20.0]
    assert manifest["outputs"] == [str(second)]
    assert not (tmp_path / "second.raw.csv").exists()
    assert len(second.read_text().splitlines()) == 1 + 5  # the documented sigma axis
    capsys.readouterr()


def test_axis_defaults_yield_the_documented_grid(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("tx_upa = 2x2\nrx_upa = 2x2\ntrials = 2\n")
    assert main(["sweep-snr", "--config", str(cfg_path)]) == 0
    out = tmp_path / "mm3nlos-sweep-snr.csv"  # default output name
    rows = out.read_text().splitlines()
    assert len(rows) == 1 + 7  # the documented 0..30 dB axis
    assert (tmp_path / "mm3nlos-sweep-snr.manifest.json").is_file()
    # flags beat the axis default
    assert main(["sweep-antennas", "--config", str(cfg_path), "--snr-db", "20"]) == 0
    rows = (tmp_path / "mm3nlos-sweep-antennas.csv").read_text().splitlines()
    assert len(rows) == 1 + 1  # tx/rx fixed by the file, one SNR point


def test_seed_precedence_follows_flag_file_env(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.SEED_ENV_VAR, "7")
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(TINY_SWEEP.replace("seed = 1\n", ""))
    out = tmp_path / "c.csv"
    argv = ["sweep-snr", "--config", str(cfg_path), "--snr-db", "20", "--out", str(out)]
    assert main(argv) == 0
    assert json.loads((tmp_path / "c.manifest.json").read_text())["seed"] == 7
    assert main(argv + ["--seed", "3"]) == 0
    assert json.loads((tmp_path / "c.manifest.json").read_text())["seed"] == 3
    cfg_path.write_text(TINY_SWEEP)  # file seed 1 beats the env fallback
    assert main(argv) == 0
    assert json.loads((tmp_path / "c.manifest.json").read_text())["seed"] == 1
    monkeypatch.setenv(cli.SEED_ENV_VAR, "many")
    cfg_path.write_text(TINY_SWEEP.replace("seed = 1\n", ""))
    assert main(argv) == 2


def test_a_negative_seed_is_a_config_error_on_every_path(tmp_path, monkeypatch, capsys):
    cfg_path = tmp_path / "run.cfg"
    out = tmp_path / "c.csv"
    argv = ["sweep-snr", "--config", str(cfg_path), "--snr-db", "20", "--out", str(out)]
    for text, flags, env in (
        (TINY_SWEEP, ["--seed", "-1"], None),
        (TINY_SWEEP.replace("seed = 1", "seed = -1"), [], None),
        (TINY_SWEEP.replace("seed = 1\n", ""), [], "-5"),
    ):
        cfg_path.write_text(text)
        if env is not None:
            monkeypatch.setenv(cli.SEED_ENV_VAR, env)
        assert main(argv + flags) == 2
        assert "seed" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg_path]
    assert main(["oracle-check", "--scenes", "1", "--seed", "-1"]) == 2
    assert "seed" in capsys.readouterr().err


def test_manifest_lands_before_trials_and_records_interrupts(tmp_path, monkeypatch, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(TINY_SWEEP)
    out = tmp_path / "part.csv"
    manifest_path = tmp_path / "part.manifest.json"

    def fake_run(cfg, scenario_sampler=None, *, collect_raw=False, progress=None):
        snapshot = json.loads(manifest_path.read_text())
        assert snapshot["status"] == "running"
        assert snapshot["finished_utc"] is None
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "run_experiment", fake_run)
    rc = main(["sweep-snr", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 130
    assert out.read_text().splitlines()[-1] == "# truncated: interrupted"
    assert json.loads(manifest_path.read_text())["status"] == "truncated: interrupted"
    capsys.readouterr()


def test_failed_sweep_leaves_a_truncation_marker(tmp_path, monkeypatch, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(TINY_SWEEP)
    out = tmp_path / "part.csv"

    def fake_run(cfg, scenario_sampler=None, *, collect_raw=False, progress=None):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "run_experiment", fake_run)
    rc = main(["sweep-snr", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 1
    assert out.read_text().splitlines()[-1] == "# truncated: boom"
    status = json.loads((tmp_path / "part.manifest.json").read_text())["status"]
    assert status == "truncated: boom"
    capsys.readouterr()


# ---------------------------------------------------------------------------
# solve-once and oracle-check

def test_solve_once_recovers_the_recorded_scene(tmp_path, capsys):
    records = tmp_path / "obs.records"
    records.write_text(
        record_line(T1, ts=1, tag="current") + "\n"
        + record_line(T2, ts=0, tag="historical") + "\n"
    )
    rc = main(["solve-once", "--config", scene_config(tmp_path), str(records)])
    assert rc == 0
    lines = dict(
        line.split(": ", 1) for line in capsys.readouterr().out.strip().splitlines()
    )
    assert lines["scene type"] == "1"
    assert lines["plane"] == "yoz"
    position = np.array([float(x) for x in lines["position"].split(",")])
    np.testing.assert_allclose(position, T1, atol=1e-6)
    assert math.isclose(float(lines["distance_m"]), float(np.linalg.norm(T1 - STA)), rel_tol=1e-6)


def test_solve_once_names_the_collinear_failure(tmp_path, capsys):
    records = tmp_path / "same.records"
    records.write_text(
        record_line(T1, ts=1, tag="current") + "\n"
        + record_line(T1, ts=0, tag="historical") + "\n"
    )
    rc = main(["solve-once", "--config", scene_config(tmp_path), str(records)])
    assert rc == 1
    assert "unsolvable: collinear (scene type 0)" in capsys.readouterr().err


def test_solve_once_input_errors_exit_two(tmp_path, capsys):
    records = tmp_path / "short.records"
    records.write_text(record_line(T1, ts=1, tag="current") + "\n")
    assert main(["solve-once", str(records)]) == 2
    records.write_text("not,a,record\n")
    assert main(["solve-once", str(records)]) == 2
    assert main(["solve-once", str(tmp_path / "absent.records")]) == 2
    capsys.readouterr()


def test_solve_once_repeated_timestamps_exit_two(tmp_path, capsys):
    records = tmp_path / "twice.records"
    records.write_text(
        record_line(T1, ts=1, tag="current") + "\n"
        + record_line(T2, ts=0, tag="historical") + "\n"
        + record_line(T2, ts=0, tag="historical") + "\n"
    )
    assert main(["solve-once", str(records)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not after latest" in err


def test_solve_once_rejects_a_nan_snr(tmp_path, capsys):
    records = tmp_path / "nan.records"
    historical = record_line(T2, ts=0, tag="historical", snr=20.0)
    assert historical.endswith(",20.0,historical")
    records.write_text(
        record_line(T1, ts=1, tag="current") + "\n"
        + historical.replace(",20.0,", ",nan,") + "\n"
    )
    assert main(["solve-once", "--config", scene_config(tmp_path), str(records)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {records}: ") and "snr_db" in err


def test_oracle_check_reports_all_passes(capsys):
    rc = main(["oracle-check", "--scenes", "40", "--seed", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "3/3 checks passed" in out
    assert out.count("pass") >= 3


@pytest.mark.parametrize("scenes", ["0", "-3", "two"])
def test_oracle_check_rejects_a_scene_count_below_one(scenes, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle-check", "--scenes", scenes])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--scenes" in captured.err and captured.out == ""
