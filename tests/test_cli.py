"""End-to-end tests of the command-line interface."""

import dataclasses
import gc
import inspect
import json
import math
import os
import shlex
import shutil
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import pytest

import market_abm
from market_abm import cli, engine
from market_abm.analytics import (BIN_WIDTH, BURN_PERIODS, MIN_OBS, analyze_bundles,
                                  check_analysis_options)
from market_abm.cli import main
from market_abm.config import SimConfig, dump_config, load_config, parse_overrides


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("steps = 1000\nseed = 7\n# comment line\nn_agents = 200\n")
    return path


class TestConfigFormat:
    def test_roundtrip(self, tmp_path):
        cfg = SimConfig(steps=123, seed=9, init_cash=450.0)
        path = tmp_path / "c.cfg"
        path.write_text(dump_config(cfg))
        assert load_config(path) == cfg

    def test_unknown_key_named_in_error(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("stepz = 100\n")
        with pytest.raises(ValueError, match="stepz"):
            load_config(path)

    def test_malformed_and_unknown_keys_say_where(self, tmp_path):
        # a file's errors carry its path and line; an override's name the pair
        path = tmp_path / "bad.cfg"
        for text, message in (
            ("# header\nsteps 100\n", "expected key = value, got 'steps 100'"),
            ("seed = 1\n stepz = 100\n", "unknown config key 'stepz'"),
            ("seed = 1\nband = abc\n", "config key 'band': 'abc' is not a number"),
        ):
            path.write_text(text)
            with pytest.raises(ValueError) as err:
                load_config(path)
            assert str(err.value) == f"{path}:2: {message}"
        with pytest.raises(ValueError) as err:
            parse_overrides(["steps500"])
        assert str(err.value) == "override 'steps500' is not of the form key=value"
        with pytest.raises(ValueError) as err:
            parse_overrides([" stepz =1"])
        assert str(err.value) == "unknown config key 'stepz'"

    def test_scientific_notation_steps(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("steps = 1e5\n")
        assert load_config(path).steps == 100_000

    def test_override_parsing(self):
        overrides = parse_overrides(["steps=500", "switch_mode=off"])
        assert overrides == {"steps": 500, "switch_mode": "off"}
        with pytest.raises(ValueError, match="frobnicate"):
            parse_overrides(["frobnicate=1"])

    def test_invalid_config_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("steps_per_period = 0\n")
        with pytest.raises(ValueError):
            load_config(path)

    def test_band_of_one_rejected(self):
        # a band of 1 puts the lower price limit at 0; prices then sink to a
        # few ticks and the switching rates overflow mid-run
        with pytest.raises(ValueError, match="band"):
            SimConfig(band=1.0).validate()
        SimConfig(band=0.9).validate()

    @pytest.mark.parametrize("values, message", [
        *[pytest.param({name: 0}, f"config field {name} must be > 0", id=name) for name in (
            "v1", "v2", "alpha1", "alpha2", "alpha3", "big_r", "s", "gamma_f", "gamma_c", "tick")],
        pytest.param({"gamma_f": 0.1, "gamma_c": 0.1}, "gamma_f must exceed gamma_c",
                     id="gamma_f=gamma_c"),
        pytest.param({"gamma_f": 0.1, "gamma_c": 1.0}, "gamma_f must exceed gamma_c",
                     id="gamma_f<gamma_c"),
    ])
    def test_model_parameter_rejected(self, values, message):
        # the switching rates and expectations read these fields unchecked
        with pytest.raises(ValueError, match=message):
            SimConfig(**values).validate()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_every_float_field_must_be_finite(self, value):
        # NaN passes every `<= 0`-style check; inf passes the upper ones
        names = [f.name for f in dataclasses.fields(SimConfig) if f.type == "float"]
        assert len(names) == 18
        for name in names:
            with pytest.raises(ValueError) as err:
                SimConfig(**{name: value}).validate()
            assert str(err.value) == f"config field {name} must be finite"

    @pytest.mark.parametrize("override, message", [
        # without the check: no trades at exit 0, no switching, a frozen market
        ("band=nan", "config field band must be finite"),
        ("alpha3=nan", "config field alpha3 must be finite"),
        ("v1=nan", "config field v1 must be finite"),
        # without the check these failed mid-run naming no key
        ("k_scale=nan", "config field k_scale must be finite"),
        ("init_cash=inf", "config field init_cash must be finite"),
        ("steps=nan", "config key 'steps': 'nan' is not an integer"),
        # without the key these named only the value
        pytest.param("steps=abc", "config key 'steps': 'abc' is not an integer", id="steps-abc"),
        pytest.param("band=abc", "config key 'band': 'abc' is not a number", id="band-abc"),
    ], ids=lambda v: v.split("=")[0] if "=" in v else "")
    def test_non_finite_override_is_named(self, tmp_path, capsys, override, message):
        out = tmp_path / "out"
        assert main(["run", "-O", "steps=200", "-O", override, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("overrides, field, total", [
        # without the check: the int64 cash total wrapped and the run ended in
        # a conservation error
        pytest.param(["steps=3000", "p0=1.0", "pf0=1.0", "tick=1e-15", "init_cash=450",
                      "init_frac_f=0.15", "init_frac_opt=0.425", "init_shares=1"],
                     "init_cash", "n_agents * round(init_cash / tick) ticks", id="cash-total"),
        # without the check: one agent's cash overflowed int64, naming no field
        pytest.param(["steps=100", "tick=1e-17", "init_cash=450", "p0=1", "pf0=1"],
                     "init_cash", "n_agents * round(init_cash / tick) ticks", id="cash-per-agent"),
        pytest.param(["steps=100", "init_shares=18446744073709552"],
                     "init_shares", "n_agents * init_shares shares", id="shares-total"),
    ])
    def test_endowment_reaching_int64_is_named(self, tmp_path, capsys, overrides, field, total):
        out = tmp_path / "out"
        argv = ["run", *[arg for pair in overrides for arg in ("-O", pair)], "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: config field {field}: the total endowment, {total}, reaches 2**63\n")
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("dt", "0.02"), ("switching_enabled", "false"), ("allow_self_trades", "true"),
        ("sigma_window_aligned", "true"), ("u2_trend_horizon", "chartist"),
    ])
    def test_removed_key_is_unknown(self, tmp_path, capsys, key, value):
        # dt is 1 / steps_per_period and switch_mode = off turns switching off;
        # a self-cross is always dropped, sigma has one window, and each U2
        # trend signal uses its evaluator's own horizon
        out = tmp_path / "out"
        assert main(["run", "-O", "steps=200", "-O", f"{key}={value}", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: unknown config key {key!r}\n"
        path = tmp_path / "old.cfg"
        path.write_text(f"steps = 200\n{key} = {value}\n")
        assert main(["run", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {path}:2: unknown config key {key!r}\n"
        assert not out.exists()

    def test_per_trade_switch_mode_is_rejected(self, tmp_path, capsys):
        # every agent reconsiders each step, or none does
        out = tmp_path / "out"
        message = "error: switch_mode must be 'all_agents' or 'off'\n"
        assert main(["run", "-O", "steps=200", "-O", "switch_mode=per_trade", "--out", str(out)]) == 1
        assert capsys.readouterr().err == message
        path = tmp_path / "old.cfg"
        path.write_text("steps = 200\nswitch_mode = per_trade\n")
        assert main(["run", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == message
        assert not out.exists()

    def test_non_finite_integer_is_named(self):
        for raw in ("nan", "inf", "-inf"):
            with pytest.raises(ValueError) as err:
                parse_overrides([f"init_shares={raw}"])
            assert str(err.value) == f"config key 'init_shares': {raw!r} is not an integer"


class TestRunCommand:
    def test_missing_config_names_path(self, tmp_path, capsys):
        status = main(["run", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "o")])
        assert status == 2
        assert capsys.readouterr().err == f"config file not found: {tmp_path / 'nope.cfg'}\n"

    def test_row_count_contract(self, tmp_path, config_file):
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_file), "--out", str(out)]) == 0
        lines = (out / "steps.csv").read_text().splitlines()
        assert len(lines) == 1001  # header + one row per step

    def test_seed_determinism_byte_identical(self, tmp_path, config_file):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert main(["run", "--config", str(config_file), "--seed", "7",
                         "--out", str(out)]) == 0
        assert (out1 / "steps.csv").read_bytes() == (out2 / "steps.csv").read_bytes()
        assert (out1 / "trades.csv").read_bytes() == (out2 / "trades.csv").read_bytes()

    def test_experiment_manifest_written(self, tmp_path, config_file):
        out = tmp_path / "out"
        main(["run", "--config", str(config_file), "--out", str(out)])
        manifest = json.loads((out / "experiment.json").read_text())
        assert manifest["config_path"] == str(config_file)
        assert len(manifest["config_sha256"]) == 64
        assert manifest["runs"][0]["wall_clock_s"] >= 0

    def test_manifest_records_the_parsed_arguments(self, tmp_path):
        # not the host process's sys.argv, which main(argv) never parsed; quoted
        # so that an argument holding a space splits back whole
        out = tmp_path / "out dir"
        argv = ["run", "-O", "steps=200", "-O", "n_agents=50", "--seed", "3", "--out", str(out)]
        assert main(argv) == 0
        manifest = json.loads((out / "experiment.json").read_text())
        assert shlex.split(manifest["command"]) == argv

    def test_out_naming_a_file_is_an_error(self, tmp_path, monkeypatch, capsys):
        # refused before the run starts
        monkeypatch.setattr(cli, "run_simulation", _no_run)
        out = tmp_path / "taken"
        out.write_text("kept\n")
        assert main(["run", "-O", "steps=200", "-O", "n_agents=50", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: [Errno 17] File exists: {str(out)!r}\n"
        assert out.read_text() == "kept\n"

    def test_override_flag(self, tmp_path, config_file):
        out = tmp_path / "out"
        main(["run", "--config", str(config_file), "-O", "steps=300", "--out", str(out)])
        assert len((out / "steps.csv").read_text().splitlines()) == 301

    def test_lob_snapshot_outside_the_run_is_an_error(self, tmp_path, config_file, capsys):
        out = tmp_path / "out"
        status = main(["run", "--config", str(config_file), "-O", "steps=200", "--out", str(out),
                       "--lob-snapshot", "500", "--lob-snapshot", "0", "--lob-snapshot", "100"])
        assert status == 1
        assert "error: lob snapshot steps outside 1..200: [0, 500]" in capsys.readouterr().err
        assert not list(out.glob("lob_*.csv"))
        assert not out.exists()

    def test_arithmetic_error_is_reported_without_a_traceback(
        self, tmp_path, config_file, monkeypatch, capsys
    ):
        def overflow(config, lob_snapshot_steps=()):
            raise OverflowError("math range error")

        monkeypatch.setattr(cli, "run_simulation", overflow)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_file), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: math range error\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["-O", "seed=-1"], ["--seed", "-1"]], ids=["O", "seed"])
    def test_negative_seed_is_a_config_error(self, tmp_path, monkeypatch, capsys, argv):
        # numpy used to reject it mid-run, naming no key
        monkeypatch.setattr(cli, "run_simulation", _no_run)
        out = tmp_path / "out"
        assert main(["run", "-O", "steps=300", *argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: config field seed must be >= 0\n"
        assert not out.exists()

    def test_bad_override_key_diagnostic(self, tmp_path, config_file, capsys):
        status = main(["run", "--config", str(config_file), "-O", "bogus=1",
                       "--out", str(tmp_path / "o")])
        assert status != 0
        assert "bogus" in capsys.readouterr().err


_measured_run = engine._run_seed


def _no_run(config, lob_snapshot_steps=()):
    raise AssertionError("a run started")


def _no_load(run_dir):
    raise AssertionError("a run was loaded")


def _fixed_time_run(config, seed):
    """The real run, reporting a made-up time that names its seed."""
    seed, run, _ = _measured_run(config, seed)
    return seed, run, 1000.0 + seed


def _failing_run(bad_seeds):
    """`engine.run_simulation`, raising for the given seeds. Pool workers are
    forked, so they inherit the patched module attribute."""
    real = engine.run_simulation

    def run(config, lob_snapshot_steps=()):
        if config.seed in bad_seeds:
            raise RuntimeError(f"seed {config.seed} broke")
        return real(config, lob_snapshot_steps=lob_snapshot_steps)

    return run


class TestEnsembleCommand:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_wall_clock_is_measured_per_run(self, tmp_path, config_file, monkeypatch, workers):
        # pooled runs used to record time since the pool started; each entry
        # must carry the seconds its own run took, measured in the worker
        monkeypatch.setattr(engine, "_run_seed", _fixed_time_run)
        out = tmp_path / "ens"
        assert main(["ensemble", "--config", str(config_file), "--seeds", "3",
                     "--out", str(out), "--workers", str(workers)]) == 0
        manifest = json.loads((out / "experiment.json").read_text())
        assert [(e["seed"], e["wall_clock_s"]) for e in manifest["runs"]] == [
            (7, 1007.0), (8, 1008.0), (9, 1009.0)]

    def test_timed_run_reports_seconds(self):
        seed, run, seconds = engine._run_seed(SimConfig(steps=50, n_agents=20), 4)
        assert seed == run.seed == 4 and len(run.records) == 50
        assert seconds > 0.0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_seed_is_reported_and_the_rest_written(
        self, tmp_path, config_file, monkeypatch, capsys, workers
    ):
        monkeypatch.setattr(engine, "run_simulation", _failing_run({8}))
        out = tmp_path / "ens"
        assert main(["ensemble", "--config", str(config_file), "--seeds", "3",
                     "--out", str(out), "--workers", str(workers)]) == 1
        assert "seed 8 FAILED: seed 8 broke" in capsys.readouterr().err
        assert sorted(p.name for p in (out / "runs").iterdir()) == ["seed_7", "seed_9"]
        for seed in (7, 9):
            assert (out / "runs" / f"seed_{seed}" / "manifest.json").exists()
        manifest = json.loads((out / "experiment.json").read_text())
        assert manifest["seeds"] == [7, 8, 9]
        assert [e["seed"] for e in manifest["runs"]] == [7, 9]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_seed_failing_exits_1(self, tmp_path, config_file, monkeypatch, capsys, workers):
        monkeypatch.setattr(engine, "run_simulation", _failing_run({7, 8}))
        out = tmp_path / "ens"
        assert main(["ensemble", "--config", str(config_file), "--seeds", "2",
                     "--out", str(out), "--workers", str(workers)]) == 1
        err = capsys.readouterr().err
        assert "seed 7 FAILED" in err and "seed 8 FAILED" in err
        assert "every run failed" in err
        assert not (out / "experiment.json").exists()

    def test_each_run_is_let_go_before_the_next(self, tmp_path, config_file, monkeypatch):
        real = engine.run_simulation
        made = []

        def run(config, lob_snapshot_steps=()):
            gc.collect()
            assert all(ref() is None for ref in made), "an earlier run is still held"
            out = real(config, lob_snapshot_steps=lob_snapshot_steps)
            made.append(weakref.ref(out))
            return out

        monkeypatch.setattr(engine, "run_simulation", run)
        assert main(["ensemble", "--config", str(config_file), "--seeds", "3",
                     "--out", str(tmp_path / "ens"), "--workers", "1"]) == 0
        assert len(made) == 3

    @pytest.mark.parametrize("seeds", ["0", "-2"])
    def test_no_seeds_is_a_usage_error(self, tmp_path, config_file, capsys, seeds):
        out = tmp_path / "ens"
        assert main(["ensemble", "--config", str(config_file), "--seeds", seeds,
                     "--out", str(out)]) == 2
        assert "--seeds must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_is_a_config_error(self, tmp_path, monkeypatch, capsys):
        # both runs used to start and fail, naming no key
        monkeypatch.setattr(engine, "run_simulation", _no_run)
        out = tmp_path / "ens"
        assert main(["ensemble", "-O", "steps=300", "-O", "seed=-3", "--seeds", "2",
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: config field seed must be >= 0\n"
        assert "seed" not in captured.out
        assert not out.exists()

    def test_out_naming_a_file_is_an_error(self, tmp_path, config_file, capsys):
        out = tmp_path / "taken"
        out.write_text("kept\n")
        assert main(["ensemble", "--config", str(config_file), "--seeds", "1",
                     "--out", str(out), "--workers", "1"]) == 1
        assert capsys.readouterr().err == f"error: [Errno 17] File exists: {str(out)!r}\n"
        assert out.read_text() == "kept\n"

    def test_runs_and_manifest(self, tmp_path, config_file):
        out = tmp_path / "ens"
        assert main(["ensemble", "--config", str(config_file), "--seeds", "3",
                     "--out", str(out), "--workers", "1"]) == 0
        manifest = json.loads((out / "experiment.json").read_text())
        assert manifest["seeds"] == [7, 8, 9]
        for seed in (7, 8, 9):
            assert (out / "runs" / f"seed_{seed}" / "steps.csv").exists()

    def test_manifest_roundtrip_reproduces_outputs(self, tmp_path, config_file):
        import dataclasses

        from market_abm.engine import run_simulation
        from market_abm.runio import write_run

        out = tmp_path / "ens"
        main(["ensemble", "--config", str(config_file), "--seeds", "2",
              "--out", str(out), "--workers", "1"])
        manifest = json.loads((out / "experiment.json").read_text())
        cfg = SimConfig(**manifest["config"])
        for entry in manifest["runs"]:
            rerun = run_simulation(dataclasses.replace(cfg, seed=entry["seed"]))
            redo = tmp_path / "redo" / f"seed_{entry['seed']}"
            write_run(redo, rerun)
            original = (out / "runs" / f"seed_{entry['seed']}" / "steps.csv").read_bytes()
            assert (redo / "steps.csv").read_bytes() == original


@pytest.mark.parametrize("raw, workers", [("3", 3), ("0", 1), ("junk", 1), (None, 1)])
def test_workers_default_from_environment(monkeypatch, raw, workers):
    if raw is None:
        monkeypatch.delenv(cli.WORKERS_ENV, raising=False)
    else:
        monkeypatch.setenv(cli.WORKERS_ENV, raw)
    assert cli._default_workers() == workers
    for command in (["ensemble", "--seeds", "1"], ["reproduce-paper"]):
        args = cli.build_parser().parse_args([*command, "--out", "x"])
        assert args.workers == workers


class TestAnalyzeCommand:
    def test_full_pipeline(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("steps = 30000\nseed = 0\n")
        runs_dir = tmp_path / "ens"
        assert main(["ensemble", "--config", str(cfg), "--seeds", "2",
                     "--out", str(runs_dir), "--workers", "1"]) == 0
        out = tmp_path / "analysis"
        assert main(["analyze", "--in", str(runs_dir), "--out", str(out)]) == 0
        report = json.loads((out / "analysis.json").read_text())
        assert set(report) >= {"hurst", "tails", "regimes", "sigma_peaks",
                               "aggregational_gaussianity", "meta"}
        assert report["meta"]["n_runs"] == 2
        assert (out / "ccdf_spread.csv").exists()
        assert (out / "fn_return.csv").exists()

    def test_run_without_manifest_is_an_error(self, tmp_path, capsys):
        # a run cut short before its manifest: its steps_per_period is unknown
        runs_dir = tmp_path / "ens"
        assert main(["ensemble", "-O", "steps=500", "-O", "n_agents=50", "--seeds", "2",
                     "--out", str(runs_dir), "--workers", "1"]) == 0
        missing = runs_dir / "runs" / "seed_1" / "manifest.json"
        missing.unlink()
        out = tmp_path / "analysis"
        for indir in (missing.parent, runs_dir):
            capsys.readouterr()
            assert main(["analyze", "--in", str(indir), "--out", str(out)]) == 2
            assert str(missing) in capsys.readouterr().err
            assert not out.exists()

    @staticmethod
    def cut_short_run(tmp_path):
        """A run directory whose steps.csv stops partway through a row."""
        run_dir = tmp_path / "run"
        assert main(["run", "-O", "steps=600", "-O", "n_agents=50", "--out", str(run_dir)]) == 0
        steps = run_dir / "steps.csv"
        lines = steps.read_text().splitlines()
        cut = lines[: len(lines) // 2] + [",".join(lines[len(lines) // 2].split(",")[:6])]
        steps.write_text("\n".join(cut))
        return run_dir

    def test_cut_short_run_without_manifest_names_it(self, tmp_path, capsys):
        # the manifest is read first: steps.csv used to fail to parse, exit 1
        run_dir = self.cut_short_run(tmp_path)
        (run_dir / "manifest.json").unlink()
        out = tmp_path / "analysis"
        capsys.readouterr()
        assert main(["analyze", "--in", str(run_dir), "--out", str(out)]) == 2
        assert str(run_dir / "manifest.json") in capsys.readouterr().err
        assert not out.exists()

    def test_unparsable_steps_csv_is_named(self, tmp_path, capsys):
        run_dir = self.cut_short_run(tmp_path)
        out = tmp_path / "analysis"
        capsys.readouterr()
        assert main(["analyze", "--in", str(run_dir), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {run_dir / 'steps.csv'}: ")
        assert "number of columns changed from 14 to 6" in err
        assert not out.exists()

    @staticmethod
    def analyze_error(run_dirs, out, capsys) -> str:
        """The stderr of an `analyze` over `run_dirs` that exits 1 and writes nothing."""
        capsys.readouterr()
        assert main(["analyze", "--in", *map(str, run_dirs), "--out", str(out)]) == 1
        assert not out.exists()
        return capsys.readouterr().err

    def test_run_shorter_than_its_manifest_is_named(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(["run", "-O", "steps=600", "-O", "n_agents=50", "--out", str(run_dir)]) == 0
        steps = run_dir / "steps.csv"
        steps.write_text("\n".join(steps.read_text().splitlines()[:301]) + "\n")
        err = self.analyze_error([run_dir], tmp_path / "analysis", capsys)
        assert err == f"error: {steps}: 300 rows, but manifest.json records 600 steps\n"

    @pytest.mark.parametrize("edit", ["steps", "config", "config.steps_per_period",
                                      "steps=true", "steps=-1"])
    def test_manifest_without_step_counts_is_named(self, tmp_path, capsys, edit):
        # a bool is an int to Python, and a negative count cannot be allocated
        run_dir = tmp_path / "run"
        assert main(["run", "-O", "steps=300", "-O", "n_agents=50", "--out", str(run_dir)]) == 0
        path = run_dir / "manifest.json"
        manifest = json.loads(path.read_text())
        if edit == "config.steps_per_period":
            del manifest["config"]["steps_per_period"]
        elif "=" in edit:
            key, value = edit.split("=")
            manifest[key] = json.loads(value)
        else:
            del manifest[edit]
        path.write_text(json.dumps(manifest))
        err = self.analyze_error([run_dir], tmp_path / "analysis", capsys)
        assert err == f"error: {path}: needs integer steps and config.steps_per_period\n"

    def test_steps_csv_without_a_step_column_is_named(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(["run", "-O", "steps=300", "-O", "n_agents=50", "--out", str(run_dir)]) == 0
        steps = run_dir / "steps.csv"
        header, body = steps.read_text().split("\n", 1)
        steps.write_text(header.replace("depth", "depht") + "\n" + body)
        err = self.analyze_error([run_dir], tmp_path / "analysis", capsys)
        assert err == f"error: {steps}: header lacks step columns: depth\n"

    def test_manifest_steps_beyond_the_file_report_its_rows(self, tmp_path, capsys):
        # no more rows are allocated than steps.csv could hold
        run_dir = tmp_path / "run"
        assert main(["run", "-O", "steps=600", "-O", "n_agents=50", "--out", str(run_dir)]) == 0
        path = run_dir / "manifest.json"
        manifest = json.loads(path.read_text())
        path.write_text(json.dumps({**manifest, "steps": 10**15}))
        err = self.analyze_error([run_dir], tmp_path / "analysis", capsys)
        assert err == (f"error: {run_dir / 'steps.csv'}: 600 rows, "
                       f"but manifest.json records {10**15} steps\n")

    def test_peak_memory_does_not_grow_with_the_runs(self, tmp_path):
        # each run's records are let go before the next is loaded
        runs = [tmp_path / f"seed_{k}" for k in range(3)]
        assert main(["run", "-O", "steps=20000", "-O", "n_agents=50", "--out", str(runs[0])]) == 0
        for run_dir in runs[1:]:
            shutil.copytree(runs[0], run_dir)

        def peak(run_dirs, out):
            tracemalloc.start()
            try:  # 200 periods: too few for the default burn-in
                assert main(["analyze", "--in", *map(str, run_dirs), "--out", str(out),
                             "--bin-width", "0.01", "--burn-periods", "0"]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one = peak(runs[:1], tmp_path / "one")
        assert peak(runs, tmp_path / "three") <= 1.1 * one

    def test_manifest_that_is_not_json_is_named(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(["run", "-O", "steps=300", "-O", "n_agents=50", "--out", str(run_dir)]) == 0
        path = run_dir / "manifest.json"
        path.write_text("")
        err = self.analyze_error([run_dir], tmp_path / "analysis", capsys)
        assert err.startswith(f"error: {path}: not JSON: ")

    def test_run_too_short_to_reduce_is_named(self, tmp_path, capsys):
        # one full trading period is too few; the run that has it is named
        runs = [tmp_path / "a_long", tmp_path / "b_short"]
        for run_dir, steps in zip(runs, (600, 150)):
            assert main(["run", "-O", f"steps={steps}", "-O", "n_agents=50",
                         "--out", str(run_dir)]) == 0
        err = self.analyze_error(runs, tmp_path / "analysis", capsys)
        assert err == f"error: {runs[1]}: need at least two full trading periods\n"

    def test_runs_with_different_steps_per_period_are_named(self, tmp_path, capsys):
        runs = [tmp_path / "a_default", tmp_path / "b_spp50"]
        for run_dir, extra in zip(runs, ([], ["-O", "steps_per_period=50"])):
            assert main(["run", "-O", "steps=600", "-O", "n_agents=50", *extra,
                         "--out", str(run_dir)]) == 0
        err = self.analyze_error(runs, tmp_path / "analysis", capsys)
        assert err == f"error: {runs[1]}: steps_per_period 50, but 100 in {runs[0]}\n"

    def test_out_naming_a_file_is_an_error(self, tmp_path, monkeypatch, capsys):
        run_dir = tmp_path / "run"
        assert main(["run", "-O", "steps=600", "-O", "n_agents=50", "--out", str(run_dir)]) == 0
        monkeypatch.setattr(cli, "load_run_dir", _no_load)  # refused before any run is loaded
        out = tmp_path / "taken"
        out.write_text("kept\n")
        capsys.readouterr()
        assert main(["analyze", "--in", str(run_dir), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: [Errno 17] File exists: {str(out)!r}\n"
        assert out.read_text() == "kept\n"

    def test_no_runs_found(self, tmp_path, capsys):
        assert main(["analyze", "--in", str(tmp_path), "--out", str(tmp_path / "a")]) == 1
        assert capsys.readouterr().err == f"error: no steps.csv found under: {tmp_path}\n"

    @pytest.mark.parametrize("option, message", [
        (["--bin-width", "0"], "bin_width must be in (0, 1]"),
        (["--bin-width", "1.5"], "bin_width must be in (0, 1]"),
        (["--burn-periods", "-5"], "burn_periods must be >= 0"),
        (["--min-obs", "0"], "min_obs must be >= 1"),
    ])
    def test_bad_analysis_option_is_an_error(self, tmp_path, capsys, option, message):
        run_dir = tmp_path / "run"
        assert main(["run", "--out", str(run_dir), "-O", "steps=500", "-O", "n_agents=50"]) == 0
        out = tmp_path / "analysis"
        capsys.readouterr()
        assert main(["analyze", "--in", str(run_dir), "--out", str(out), *option]) == 1
        assert capsys.readouterr().err.strip() == f"error: {message}"
        assert not out.exists()

    def test_xmin_quantile_is_not_an_option(self, tmp_path, capsys):
        # tails are fitted above the fixed 95% sample quantile
        out = tmp_path / "analysis"
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--in", str(tmp_path), "--out", str(out), "--xmin-quantile", "0.9"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --xmin-quantile 0.9" in capsys.readouterr().err
        assert not out.exists()


class TestReproduceCommand:
    def test_desk_scale_pipeline_completes(self, tmp_path):
        out = tmp_path / "exp"
        # tiny scale: 1 seed x 3000 steps, enough for every report section
        assert main(["reproduce-paper", "--scale", "0.003", "--out", str(out),
                     "--workers", "1", "--burn-periods", "5"]) == 0
        report = json.loads((out / "analysis" / "analysis.json").read_text())
        assert "hurst" in report and "regimes" in report
        assert (out / "runs" / "seed_0" / "steps.csv").exists()

    def test_homogeneous_flag(self, tmp_path):
        out = tmp_path / "exp"
        assert main(["reproduce-paper", "--scale", "0.003", "--homogeneous",
                     "--out", str(out), "--workers", "1", "--burn-periods", "5"]) == 0
        manifest = json.loads((out / "experiment.json").read_text())
        assert manifest["config"]["switch_mode"] == "off"
        assert manifest["config"]["init_frac_f"] == 1.0

    def test_config_file_is_a_usage_error(self, tmp_path, capsys):
        # the recipe builds its own config, so a config file is refused, not ignored
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("n_agents = 37\n")
        out = tmp_path / "exp"
        with pytest.raises(SystemExit) as exc:
            main(["reproduce-paper", "--config", str(cfg), "--scale", "0.003",
                  "--burn-periods", "5", "--out", str(out), "--workers", "1"])
        assert exc.value.code == 2
        assert "--config" in capsys.readouterr().err
        assert not out.exists()
        # -O still adjusts the recipe
        assert main(["reproduce-paper", "-O", "n_agents=37", "--scale", "0.003",
                     "--burn-periods", "5", "--out", str(out), "--workers", "1"]) == 0
        manifest = json.loads((out / "experiment.json").read_text())
        assert manifest["config"]["n_agents"] == 37
        assert manifest["config_path"] is None

    def test_bad_scale(self, tmp_path, capsys):
        # NaN and inf used to fail later, naming no flag
        out = tmp_path / "x"
        for scale in ("-1", "nan", "inf"):
            assert main(["reproduce-paper", "--scale", scale, "--out", str(out)]) == 2
            assert capsys.readouterr().err == "--scale must be finite and > 0\n"
            assert not out.exists()

    @pytest.mark.parametrize("option, message", [
        (["--scale", "0.003", "--bin-width", "0"], "bin_width must be in (0, 1]"),
        # 1e4 steps are 100 periods, too few for the default 200-period burn-in
        (["--scale", "0.01"], "burn_periods 200 leaves too little data: the shortest run has "
                              "100 trading periods, more than 216 are needed"),
        (["--scale", "0.003", "--burn-periods", "-1"], "burn_periods must be >= 0"),
    ])
    def test_bad_analysis_option_fails_before_any_run(self, tmp_path, capsys, option, message):
        out = tmp_path / "exp"
        assert main(["reproduce-paper", *option, "--out", str(out), "--workers", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.err.strip() == f"error: {message}"
        assert "seed" not in captured.out
        assert not (out / "runs").exists()


def test_analysis_defaults_are_the_analytics_constants():
    # analyze, reproduce-paper and the library default to the recipe's analysis
    recipe = {"bin_width": BIN_WIDTH, "burn_periods": BURN_PERIODS, "min_obs": MIN_OBS}
    subparsers = cli.build_parser()._subparsers._group_actions[0].choices
    for command, names in (("analyze", ("bin_width", "burn_periods", "min_obs")),
                           ("reproduce-paper", ("bin_width", "burn_periods"))):
        defaults = {name: subparsers[command].get_default(name) for name in names}
        assert defaults == {name: recipe[name] for name in names}, command
    for function in (analyze_bundles, check_analysis_options):
        parameters = inspect.signature(function).parameters
        assert {name: parameters[name].default for name in recipe} == recipe, function.__name__


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_python_m_runs_the_cli(tmp_path):
    src = str(Path(market_abm.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, "-m", "market_abm", "run", "--out", str(out), "--seed", "3",
         "-O", "steps=200", "-O", "n_agents=50"],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert "run seed=3: 200 steps" in proc.stdout
    assert len((out / "steps.csv").read_text().splitlines()) == 201
