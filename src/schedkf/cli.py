"""Command-line front end: config ingestion, experiments, result files.

Subcommands:

    simulate <config.json>    closed-loop Monte Carlo; writes summary.csv,
                              summary.json, effective_config.json
    analyze <config.json>     fixed-point iteration and stability checks;
                              writes analysis.json, effective_config.json
    solve-threshold           invert a target information rate into a
                              scheduler threshold

Exit codes: 0 success, 1 unreadable config or unwritable output, 2
invalid config (nothing is written or run), 3 some trials were truncated,
their covariance trace past 1e12 or not finite (files are still
written).  Analysis verdicts are data, not exit codes.

A config is a JSON object with the keys system, scheduler, horizon,
trials, master_seed and output; scheduler takes eta, lambda_target,
beta, delta_high and delta_low, and output takes dir.
Any other key is rejected, so a misspelt key cannot be silently ignored,
and so is a number of the wrong JSON type: horizon, trials and
master_seed must be integers, the other numbers may be any JSON number
(never a bool, a string or a list).
Thresholds may be given directly (``eta``) or as target information
rates (``lambda_target``), one choice per component; resolved thresholds
are echoed into effective_config.json, which re-ingests to the same
experiment.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys as _sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .channel import SchedulerConfig, scheduler_stats
from .mare import DEFAULT_TRACE_CEILING, MareProblem, analyze
from .model import LinearSystem, validate
from .sim import monte_carlo, summary_json_dict, write_summary_csv
from .stats import threshold_for_rate

__all__ = ["ExperimentConfig", "load_config", "run_simulate", "run_analyze", "main"]

EXIT_OK = 0
EXIT_UNREADABLE = 1
EXIT_INVALID = 2
EXIT_TRUNCATED = 3

# The keys each config object accepts.
_KEYS = {
    "config": ("system", "scheduler", "horizon", "trials", "master_seed",
               "output"),
    "scheduler": ("eta", "lambda_target", "beta", "delta_high", "delta_low"),
    "output": ("dir",),
}


class ConfigError(ValueError):
    """Semantically invalid experiment configuration."""


class _Unreadable(Exception):
    """The config file could not be read or parsed."""


@dataclass
class ExperimentConfig:
    system: LinearSystem
    scheduler: SchedulerConfig
    horizon: int
    trials: int
    master_seed: int
    out_dir: Path = Path("results")

    def info_rates(self) -> np.ndarray:
        return np.array([s.info_rate for s in scheduler_stats(self.scheduler)])

    def to_effective_dict(self) -> dict:
        """Config dict with thresholds fully resolved."""
        return {
            "system": self.system.to_dict(),
            "scheduler": {
                "eta": self.scheduler.thresholds.tolist(),
                "beta": self.scheduler.arrival_prob,
                "delta_high": self.scheduler.energy_high,
                "delta_low": self.scheduler.energy_low,
            },
            "horizon": self.horizon,
            "trials": self.trials,
            "master_seed": self.master_seed,
            "output": {"dir": str(self.out_dir)},
        }


def _check_keys(obj, where: str) -> dict:
    """``obj`` itself, if it is a JSON object holding only the keys
    ``_KEYS[where]`` accepts."""
    if not isinstance(obj, dict):
        raise ConfigError(f"'{where}' must be a JSON object")
    unknown = sorted(set(obj) - set(_KEYS[where]))
    if unknown:
        raise ConfigError(f"unknown {where} key(s) {unknown}; accepted: "
                          f"{', '.join(_KEYS[where])}")
    return obj


def _number(value, where: str) -> float:
    """``value`` as a float, if it is a JSON number (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    return float(value)


def _integer(value, where: str) -> int:
    """``value``, if it is a JSON integer (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def _check_seed(seed: int) -> int:
    if seed < 0:
        raise ConfigError(f"master_seed must be >= 0, got {seed}")
    return seed


def _resolve_thresholds(sched: dict, m: int, beta: float) -> np.ndarray:
    eta = sched.get("eta")
    lam = sched.get("lambda_target")
    if eta is None and lam is None:
        raise ConfigError("scheduler needs 'eta' or 'lambda_target'")
    eta = [None] * m if eta is None else eta
    lam = [None] * m if lam is None else lam
    if not (isinstance(eta, list) and isinstance(lam, list)
            and len(eta) == len(lam) == m):
        raise ConfigError(f"'eta'/'lambda_target' must be lists with one "
                          f"entry per measurement component ({m})")
    out = np.empty(m)
    for i in range(m):
        has_eta = eta[i] is not None
        has_lam = lam[i] is not None
        if has_eta == has_lam:
            raise ConfigError(
                f"component {i + 1}: exactly one of eta/lambda_target required"
            )
        if has_eta:
            out[i] = _number(eta[i], f"eta[{i}]")
        else:
            try:
                out[i] = threshold_for_rate(
                    _number(lam[i], f"lambda_target[{i}]"), beta)
            except ValueError as exc:
                raise ConfigError(f"component {i + 1}: {exc}") from exc
    return out


def parse_config(data: dict) -> ExperimentConfig:
    """Validate a parsed JSON document into an ExperimentConfig."""
    _check_keys(data, "config")
    try:
        system = LinearSystem.from_dict(data["system"])
    except KeyError as exc:
        raise ConfigError(f"config missing key: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"invalid system: {exc}") from exc

    sched_data = _check_keys(data.get("scheduler"), "scheduler")
    if sched_data.get("beta") is None:
        raise ConfigError("scheduler needs 'beta'")
    beta = _number(sched_data["beta"], "beta")
    thresholds = _resolve_thresholds(sched_data, system.m, beta)
    try:
        scheduler = SchedulerConfig(
            thresholds=thresholds,
            arrival_prob=beta,
            energy_high=_number(sched_data.get("delta_high", 1.0), "delta_high"),
            energy_low=_number(sched_data.get("delta_low", 0.1), "delta_low"),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid scheduler: {exc}") from exc

    horizon = _integer(data.get("horizon", 0), "horizon")
    trials = _integer(data.get("trials", 0), "trials")
    master_seed = _check_seed(_integer(data.get("master_seed", 0), "master_seed"))
    if horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {horizon}")
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")

    output = _check_keys(data.get("output", {}), "output")
    return ExperimentConfig(system=system, scheduler=scheduler, horizon=horizon,
                            trials=trials, master_seed=master_seed,
                            out_dir=Path(output.get("dir", "results")))


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return parse_config(data)


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    if getattr(args, "out", None):
        cfg.out_dir = Path(args.out)
    if getattr(args, "trials", None) is not None:
        if args.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {args.trials}")
        cfg.trials = args.trials
    if getattr(args, "seed", None) is not None:
        cfg.master_seed = _check_seed(args.seed)
    return cfg


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _prepare(args) -> tuple[ExperimentConfig, Path]:
    try:
        cfg = _apply_overrides(load_config(args.config), args)
    except (OSError, json.JSONDecodeError) as exc:
        raise _Unreadable(exc) from exc
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "effective_config.json", cfg.to_effective_dict())
    return cfg, out


def run_simulate(args) -> int:
    cfg, out = _prepare(args)
    report = validate(cfg.system)
    for msg in report.messages:
        print(f"validate: {msg}", file=_sys.stderr)
    summary = monte_carlo(cfg.system, cfg.scheduler, cfg.horizon, cfg.trials,
                          cfg.master_seed)
    problem = MareProblem(system=cfg.system, info_rates=cfg.info_rates())
    write_summary_csv(summary, problem, out / "summary.csv")
    payload = summary_json_dict(summary)
    payload["validation"] = {
        "controllable": report.controllable,
        "observable": report.observable,
    }
    _write_json(out / "summary.json", payload)
    print(f"simulate: {cfg.trials} trials x {cfg.horizon} steps -> {out}")
    if summary.truncated_trials:
        print(f"simulate: {summary.truncated_trials} trials hit the covariance "
              f"ceiling {DEFAULT_TRACE_CEILING:g}", file=_sys.stderr)
        return EXIT_TRUNCATED
    return EXIT_OK


def run_analyze(args) -> int:
    cfg, out = _prepare(args)
    report = analyze(MareProblem(system=cfg.system, info_rates=cfg.info_rates()))
    payload = report.to_json_dict()
    payload["info_rates"] = cfg.info_rates().tolist()
    _write_json(out / "analysis.json", payload)
    print(f"analyze: status={report.fixed.status} necessary={report.necessary.ok} "
          f"sufficient={report.sufficient.ok} -> {out / 'analysis.json'}")
    return EXIT_OK


def run_solve_threshold(args) -> int:
    eta = threshold_for_rate(args.lambda_target, args.beta)
    print(repr(float(eta)))
    return EXIT_OK


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="schedkf",
        description="Power-scheduled sequential Kalman filtering experiments",
        epilog="simulate runs on every usable core; its results depend "
               "only on the config and the seed.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run the closed-loop Monte Carlo")
    p_an = sub.add_parser("analyze", help="fixed point and stability checks")
    for p in (p_sim, p_an):
        p.add_argument("config", help="experiment config (JSON)")
        p.add_argument("--out", help="output directory override")
    p_sim.add_argument("--trials", type=int, help="trial count override")
    p_sim.add_argument("--seed", type=int, help="master seed override")

    p_th = sub.add_parser("solve-threshold",
                          help="threshold achieving a target information rate")
    p_th.add_argument("--beta", type=float, required=True,
                      help="low-power arrival probability")
    p_th.add_argument("--lambda", dest="lambda_target", type=float,
                      required=True, help="target information rate")
    return parser


def main(argv: Optional[list] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # looked up on every call, so a replaced run_* takes effect
        return {"simulate": run_simulate, "analyze": run_analyze,
                "solve-threshold": run_solve_threshold}[args.command](args)
    except _Unreadable as exc:
        print(f"error: cannot read config: {exc}", file=_sys.stderr)
        return EXIT_UNREADABLE
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=_sys.stderr)
        return EXIT_UNREADABLE
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_INVALID
