"""Command-line front end: config handling, files, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import schedkf
from schedkf import cli, component_stats
from schedkf.cli import (
    EXIT_INVALID,
    EXIT_OK,
    EXIT_TRUNCATED,
    EXIT_UNREADABLE,
    load_config,
    main,
)

EXAMPLE_SYSTEM = {
    "A": [[1.2]],
    "C": [[1.0], [1.0]],
    "Q": [[1.0]],
    "R": [[0.1, 0.0], [0.0, 1.0]],
    "x0_mean": [0.0],
    "P0": [[1.0]],
}


def base_config(out_dir, **overrides):
    cfg = {
        "system": EXAMPLE_SYSTEM,
        "scheduler": {"lambda_target": [0.6, 0.6], "beta": 0.5,
                      "delta_high": 1.0, "delta_low": 0.1},
        "horizon": 40,
        "trials": 50,
        "master_seed": 7,
        "output": {"dir": str(out_dir)},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_readme_example_config_runs(tmp_path):
    # the config shown under "## Command line" in the README, as written
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "config.json"
    path.write_text(block)
    out = tmp_path / "out"
    assert main(["simulate", str(path), "--trials", "50", "--out", str(out)]) == EXIT_OK
    assert main(["analyze", str(path), "--out", str(out)]) == EXIT_OK
    for name in ("summary.csv", "summary.json", "analysis.json",
                 "effective_config.json"):
        assert (out / name).stat().st_size > 0, name


class TestSimulate:
    def test_worked_example_writes_files(self, tmp_path):
        out = tmp_path / "results"
        path = write_config(tmp_path, base_config(out))
        assert main(["simulate", str(path)]) == EXIT_OK
        csv = (out / "summary.csv").read_text().splitlines()
        header = csv[0].split(",")
        assert header == ["k", "trace_mean_P", "trace_empirical_cov",
                          "lower_bound_trace", "upper_bound_trace",
                          "energy_mean", "high_rate_1", "high_rate_2"]
        assert len(csv) == 1 + 40 + 1  # header + steps 0..40
        # bounded run: every trace finite
        traces = [float(line.split(",")[1]) for line in csv[1:]]
        assert all(np.isfinite(traces))
        assert json.loads((out / "summary.json").read_text())["trials"] == 50
        assert (out / "effective_config.json").exists()

    def test_output_directory_created(self, tmp_path):
        out = tmp_path / "deep" / "nested" / "dir"
        path = write_config(tmp_path, base_config(out))
        assert main(["simulate", str(path)]) == EXIT_OK
        assert (out / "summary.csv").exists()

    def test_zero_trials_invalid(self, tmp_path):
        path = write_config(tmp_path, base_config(tmp_path / "o", trials=0))
        assert main(["simulate", str(path)]) == EXIT_INVALID

    def test_unreadable_config(self, tmp_path):
        missing = tmp_path / "nope.json"
        assert main(["simulate", str(missing)]) == EXIT_UNREADABLE
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["simulate", str(bad)]) == EXIT_UNREADABLE

    def test_truncated_trials_exit_code(self, tmp_path):
        out = tmp_path / "div"
        cfg = base_config(out, horizon=300, trials=5,
                          system=dict(EXAMPLE_SYSTEM, A=[[3.0]]))
        cfg["scheduler"] = {"lambda_target": [0.1, 0.1], "beta": 0.05}
        path = write_config(tmp_path, cfg)
        assert main(["simulate", str(path)]) == EXIT_TRUNCATED
        assert (out / "summary.csv").exists()

    def test_overflowing_plant_truncated_and_diverged(self, tmp_path, capsys):
        # A = 1e200 overflows the covariance to NaN in the first step:
        # simulate truncates every trial there and analyze says diverged
        out = tmp_path / "nan"
        path = write_config(tmp_path, base_config(
            out, system=dict(EXAMPLE_SYSTEM, A=[[1e200]])))
        assert main(["simulate", str(path)]) == EXIT_TRUNCATED
        assert "50 trials hit the covariance ceiling 1e+12" in capsys.readouterr().err
        assert json.loads((out / "summary.json").read_text())["truncated_trials"] == 50
        assert main(["analyze", str(path)]) == EXIT_OK
        assert json.loads((out / "analysis.json").read_text())["status"] == "diverged"

    def test_unwritable_output_named(self, tmp_path, capsys):
        # --out naming a regular file is an output error, not a config one
        path = write_config(tmp_path, base_config(tmp_path / "o"))
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["simulate", str(path), "--out", str(taken)]) == EXIT_UNREADABLE
        err = capsys.readouterr().err
        assert "cannot write output" in err and str(taken) in err
        assert "cannot read config" not in err

    def test_uncontrollable_plant_reported_not_fatal(self, tmp_path, capsys):
        # Q = 0 voids the stability guarantees: validate says so on stderr
        # and in summary.json, and the run still succeeds
        out = tmp_path / "q0"
        path = write_config(tmp_path, base_config(
            out, system=dict(EXAMPLE_SYSTEM, Q=[[0.0]])))
        assert main(["simulate", str(path)]) == EXIT_OK
        assert "validate: (A, sqrt(Q)) is not controllable" in capsys.readouterr().err
        validation = json.loads((out / "summary.json").read_text())["validation"]
        assert validation == {"controllable": False, "observable": True}

    def test_overrides(self, tmp_path):
        out = tmp_path / "a"
        other = tmp_path / "b"
        path = write_config(tmp_path, base_config(out))
        assert main(["simulate", str(path), "--out", str(other),
                     "--trials", "10", "--seed", "99"]) == EXIT_OK
        eff = json.loads((other / "effective_config.json").read_text())
        assert eff["trials"] == 10
        assert eff["master_seed"] == 99
        assert not out.exists()


class TestAnalyze:
    def test_worked_example_report(self, tmp_path):
        out = tmp_path / "an"
        path = write_config(tmp_path, base_config(out))
        assert main(["analyze", str(path)]) == EXIT_OK
        rep = json.loads((out / "analysis.json").read_text())
        assert rep["status"] == "converged"
        # rates here round-trip through the threshold solver (1e-10 tolerance)
        assert rep["necessary"]["ok"] is True
        assert rep["necessary"]["lhs"] == pytest.approx(0.16, abs=1e-8)
        assert rep["necessary"]["rhs"] == pytest.approx(1 / 1.44, rel=1e-12)
        assert rep["sufficient"]["ok"] is True
        assert rep["sufficient"]["margin"] > 0
        assert len(rep["sufficient"]["gains"]) == 2
        fp = np.array(rep["fixed_point"])
        assert fp.shape == (1, 1) and np.isfinite(fp).all()

    def test_divergent_rates_still_exit_zero(self, tmp_path):
        out = tmp_path / "div"
        cfg = base_config(out)
        cfg["scheduler"] = {"lambda_target": [0.05, 0.05], "beta": 0.01}
        path = write_config(tmp_path, cfg)
        assert main(["analyze", str(path)]) == EXIT_OK
        rep = json.loads((out / "analysis.json").read_text())
        assert rep["status"] == "diverged"
        assert rep["fixed_point"] is None
        assert rep["necessary"]["ok"] is False
        assert rep["sufficient"]["ok"] is False

    def test_monte_carlo_overrides_refused(self, tmp_path):
        # analyze runs no Monte Carlo, so --trials and --seed are not its
        # options: argparse exits 2 before anything is read or written
        out = tmp_path / "o"
        path = write_config(tmp_path, base_config(out))
        for flag in ("--seed", "--trials"):
            with pytest.raises(SystemExit) as exc:
                main(["analyze", str(path), flag, "3"])
            assert exc.value.code == 2
        assert not out.exists()


class TestSolveThreshold:
    def test_prints_threshold(self, capsys):
        assert main(["solve-threshold", "--beta", "0.5",
                     "--lambda", "0.6"]) == EXIT_OK
        printed = float(capsys.readouterr().out.strip())
        assert component_stats(printed, 0.5).info_rate == pytest.approx(0.6,
                                                                        abs=1e-9)

    def test_range_error(self, capsys):
        assert main(["solve-threshold", "--beta", "0.5",
                     "--lambda", "0.4"]) == EXIT_INVALID


class TestEntryPoints:
    def test_parser_built_once_and_command_looked_up_per_call(
            self, tmp_path, monkeypatch, capsys):
        # a replaced cli.run_analyze must be the one the next call runs
        cli._build_parser.cache_clear()
        path = write_config(tmp_path, base_config(tmp_path / "o"))
        assert main(["analyze", str(path)]) == EXIT_OK
        ran = []
        monkeypatch.setattr(cli, "run_analyze",
                            lambda args: ran.append(args.config) or EXIT_OK)
        assert main(["analyze", str(path)]) == EXIT_OK
        assert ran == [str(path)]
        assert cli._build_parser.cache_info().misses == 1

    def test_python_m_schedkf_runs_the_command(self, capsys):
        argv = ["solve-threshold", "--beta", "0.5", "--lambda", "0.6"]
        assert main(argv) == EXIT_OK
        want = capsys.readouterr().out
        src = str(Path(schedkf.__file__).resolve().parents[1])
        run = subprocess.run([sys.executable, "-m", "schedkf", *argv],
                             env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, check=True)
        assert run.stdout == want


SCHEDULER = {"lambda_target": [0.6, 0.6], "beta": 0.5}

# case -> (config entries replaced, extra arguments, text the error names)
MALFORMED = {
    "unknown-key": ({"trails": 5}, [], "trails"),
    "analysis-block": ({"analysis": {"sufficient": False}}, [], "analysis"),
    "analysis-list": ({"analysis": [1]}, [], "analysis"),
    "unknown-scheduler-key": ({"scheduler": dict(SCHEDULER, betta=0.5)}, [],
                              "betta"),
    "scheduler-list": ({"scheduler": [1]}, [], "scheduler"),
    "matrices-json": ({"output": {"matrices_json": False}}, [], "matrices_json"),
    "output-list": ({"output": [1]}, [], "output"),
    "negative-seed": ({"master_seed": -1}, [], "master_seed"),
    "negative-seed-override": ({}, ["--seed", "-1"], "master_seed"),
    "zero-ceiling": ({"trace_ceiling": 0}, [], "trace_ceiling"),
    "nan-ceiling": ({"trace_ceiling": float("nan")}, [], "trace_ceiling"),
    "infinite-ceiling": ({"trace_ceiling": float("inf")}, [], "trace_ceiling"),
    "default-ceiling": ({"trace_ceiling": 1e12}, [], "trace_ceiling"),
    "horizon-list": ({"horizon": [5]}, [], "horizon"),
    "beta-list": ({"scheduler": dict(SCHEDULER, beta=[0.5])}, [], "beta"),
    "trials-string": ({"trials": "10"}, [], "trials"),
    "horizon-fraction": ({"horizon": 5.5}, [], "horizon"),
    "horizon-bool": ({"horizon": True}, [], "horizon"),
    "unknown-system-key": ({"system": dict(EXAMPLE_SYSTEM, Qq=[[2.0]])}, [],
                           "Qq"),
    "system-number": ({"system": 5}, [], "system"),
    "nan-A": ({"system": dict(EXAMPLE_SYSTEM, A=[[float("nan")]])}, [],
              "A must be finite"),
    "infinite-C": ({"system": dict(EXAMPLE_SYSTEM, C=[[1.0], [float("inf")]])},
                   [], "C must be finite"),
    "infinite-delta-high": ({"scheduler": dict(SCHEDULER,
                                               delta_high=float("inf"))},
                            [], "energies must be finite"),
}


class TestConfigHandling:
    @pytest.mark.parametrize("case", MALFORMED)
    def test_malformed_config_rejected_before_any_output(self, tmp_path, capsys,
                                                         case):
        entries, extra, named = MALFORMED[case]
        out = tmp_path / "o"
        path = write_config(tmp_path, {**base_config(out), **entries})
        # the extra arguments are simulate's --trials and --seed
        for command in ("simulate",) if extra else ("simulate", "analyze"):
            assert main([command, str(path), "--out", str(out)] + extra) \
                == EXIT_INVALID
            assert named in capsys.readouterr().err
        assert not out.exists()

    def test_mixed_eta_lambda(self, tmp_path):
        cfg = base_config(tmp_path / "o")
        cfg["scheduler"] = {"eta": [1.5, None], "lambda_target": [None, 0.7],
                            "beta": 0.5}
        path = write_config(tmp_path, cfg)
        parsed = load_config(path)
        assert parsed.scheduler.thresholds[0] == 1.5
        got = component_stats(parsed.scheduler.thresholds[1], 0.5).info_rate
        assert got == pytest.approx(0.7, abs=1e-9)

    def test_both_eta_and_lambda_for_one_component_rejected(self, tmp_path):
        cfg = base_config(tmp_path / "o")
        cfg["scheduler"] = {"eta": [1.5, 1.0], "lambda_target": [None, 0.7],
                            "beta": 0.5}
        path = write_config(tmp_path, cfg)
        assert main(["simulate", str(path)]) == EXIT_INVALID

    def test_effective_config_round_trip(self, tmp_path):
        out = tmp_path / "rt"
        path = write_config(tmp_path, base_config(out))
        assert main(["analyze", str(path)]) == EXIT_OK
        eff_path = out / "effective_config.json"
        first = load_config(eff_path)
        assert main(["analyze", str(eff_path), "--out",
                     str(tmp_path / "rt2")]) == EXIT_OK
        second = load_config(tmp_path / "rt2" / "effective_config.json")
        assert np.array_equal(first.scheduler.thresholds,
                              second.scheduler.thresholds)
        assert np.array_equal(first.system.A, second.system.A)
        assert first.horizon == second.horizon
        assert first.trials == second.trials
        assert first.master_seed == second.master_seed

    def test_invalid_system_rejected(self, tmp_path):
        cfg = base_config(tmp_path / "o")
        cfg["system"] = dict(EXAMPLE_SYSTEM, R=[[0.0, 0.0], [0.0, 1.0]])
        path = write_config(tmp_path, cfg)
        assert main(["simulate", str(path)]) == EXIT_INVALID

    def test_non_diagonal_r_rejected_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "o"
        cfg = base_config(out)
        cfg["system"] = dict(EXAMPLE_SYSTEM, R=[[0.1, 0.05], [0.05, 1.0]])
        path = write_config(tmp_path, cfg)
        for command in ("simulate", "analyze"):
            assert main([command, str(path), "--out", str(out)]) == EXIT_INVALID
            assert "R must be diagonal" in capsys.readouterr().err
        assert not (out / "effective_config.json").exists()
        assert not list(out.glob("summary.*"))

    def test_set_up_needs_no_scipy(self, tmp_path):
        # the package runs on numpy alone (scipy serves the tests'
        # oracles): a fresh interpreter that imports it and resolves a
        # lambda_target config never loads scipy
        path = write_config(tmp_path, base_config(tmp_path / "o"))
        code = ("import sys, schedkf, schedkf.cli\n"
                f"schedkf.cli.load_config({str(path)!r})\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        root = str(Path(schedkf.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [root, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert run.stdout.strip() == "[]"
