"""Command-line front end: config ingestion, experiments, result files.

Subcommands:

    simulate <config.json>    closed-loop Monte Carlo; writes summary.csv,
                              summary.json, effective_config.json
    analyze <config.json>     fixed-point iteration and stability checks;
                              writes analysis.json, effective_config.json
    solve-threshold           invert a target information rate into a
                              scheduler threshold

Exit codes: 0 success, 1 unreadable config, 2 invalid config,
3 simulation finished but some trials hit the covariance ceiling
(files are still written).  Analysis verdicts are data, not exit codes.

Thresholds may be given directly (``eta``) or as target information
rates (``lambda_target``), one choice per component; resolved thresholds
are echoed into effective_config.json, which re-ingests to the same
experiment.
"""

from __future__ import annotations

import argparse
import json
import sys as _sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .channel import SchedulerConfig, scheduler_stats
from .mare import DEFAULT_TRACE_CEILING, MareProblem, analyze
from .model import LinearSystem, is_diagonal, validate
from .sim import monte_carlo, summary_json_dict, write_summary_csv
from .stats import threshold_for_rate

__all__ = ["ExperimentConfig", "load_config", "run_simulate", "run_analyze", "main"]

EXIT_OK = 0
EXIT_UNREADABLE = 1
EXIT_INVALID = 2
EXIT_TRUNCATED = 3


class ConfigError(ValueError):
    """Semantically invalid experiment configuration."""


@dataclass
class ExperimentConfig:
    system: LinearSystem
    scheduler: SchedulerConfig
    horizon: int
    trials: int
    master_seed: int
    analysis: dict = field(default_factory=lambda: {
        "mare_iterate": True, "necessary": True, "sufficient": True})
    out_dir: Path = Path("results")
    write_matrices_json: bool = True
    trace_ceiling: float = DEFAULT_TRACE_CEILING

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
            "analysis": dict(self.analysis),
            "output": {"dir": str(self.out_dir),
                       "matrices_json": self.write_matrices_json},
            "trace_ceiling": self.trace_ceiling,
        }


def _resolve_thresholds(sched: dict, m: int) -> np.ndarray:
    eta = sched.get("eta")
    lam = sched.get("lambda_target")
    if eta is None and lam is None:
        raise ConfigError("scheduler needs 'eta' or 'lambda_target'")
    eta = [None] * m if eta is None else list(eta)
    lam = [None] * m if lam is None else list(lam)
    if len(eta) != m or len(lam) != m:
        raise ConfigError(f"'eta'/'lambda_target' must have one entry per "
                          f"measurement component ({m})")
    beta = sched.get("beta")
    if beta is None:
        raise ConfigError("scheduler needs 'beta'")
    out = np.empty(m)
    for i in range(m):
        has_eta = eta[i] is not None
        has_lam = lam[i] is not None
        if has_eta == has_lam:
            raise ConfigError(
                f"component {i + 1}: exactly one of eta/lambda_target required"
            )
        if has_eta:
            out[i] = float(eta[i])
        else:
            try:
                out[i] = threshold_for_rate(float(lam[i]), float(beta))
            except ValueError as exc:
                raise ConfigError(f"component {i + 1}: {exc}") from exc
    return out


def parse_config(data: dict) -> ExperimentConfig:
    """Validate a parsed JSON document into an ExperimentConfig."""
    try:
        system = LinearSystem.from_dict(data["system"])
    except KeyError as exc:
        raise ConfigError(f"config missing key: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"invalid system: {exc}") from exc
    # The sequential filter runs on diag(R) only; reject before any compute.
    if not is_diagonal(system.R):
        raise ConfigError("invalid system: R must be diagonal; "
                          "whiten the system first")

    sched_data = data.get("scheduler")
    if not isinstance(sched_data, dict):
        raise ConfigError("config needs a 'scheduler' object")
    thresholds = _resolve_thresholds(sched_data, system.m)
    try:
        scheduler = SchedulerConfig(
            thresholds=thresholds,
            arrival_prob=float(sched_data["beta"]),
            energy_high=float(sched_data.get("delta_high", 1.0)),
            energy_low=float(sched_data.get("delta_low", 0.1)),
        )
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"invalid scheduler: {exc}") from exc

    horizon = int(data.get("horizon", 0))
    trials = int(data.get("trials", 0))
    master_seed = int(data.get("master_seed", 0))
    if horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {horizon}")
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")

    analysis = {"mare_iterate": True, "necessary": True, "sufficient": True}
    analysis.update(data.get("analysis", {}))

    output = data.get("output", {})
    out_dir = Path(output.get("dir", "results"))
    matrices = bool(output.get("matrices_json", True))
    ceiling = float(data.get("trace_ceiling", DEFAULT_TRACE_CEILING))
    return ExperimentConfig(system=system, scheduler=scheduler, horizon=horizon,
                            trials=trials, master_seed=master_seed,
                            analysis=analysis, out_dir=out_dir,
                            write_matrices_json=matrices, trace_ceiling=ceiling)


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    return parse_config(data)


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    if getattr(args, "out", None):
        cfg.out_dir = Path(args.out)
    if getattr(args, "trials", None) is not None:
        if args.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {args.trials}")
        cfg.trials = args.trials
    if getattr(args, "seed", None) is not None:
        cfg.master_seed = args.seed
    return cfg


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _prepare(args) -> tuple[ExperimentConfig, Path]:
    cfg = _apply_overrides(load_config(args.config), args)
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
                          cfg.master_seed, trace_ceiling=cfg.trace_ceiling)
    problem = MareProblem(system=cfg.system, info_rates=cfg.info_rates())
    write_summary_csv(summary, problem, out / "summary.csv")
    if cfg.write_matrices_json:
        payload = summary_json_dict(summary)
        payload["validation"] = {
            "controllable": report.controllable,
            "observable": report.observable,
            "r_diagonal": report.r_diagonal,
        }
        _write_json(out / "summary.json", payload)
    print(f"simulate: {cfg.trials} trials x {cfg.horizon} steps -> {out}")
    if summary.truncated_trials:
        print(f"simulate: {summary.truncated_trials} trials hit the covariance "
              f"ceiling {cfg.trace_ceiling:g}", file=_sys.stderr)
        return EXIT_TRUNCATED
    return EXIT_OK


def run_analyze(args) -> int:
    cfg, out = _prepare(args)
    problem = MareProblem(system=cfg.system, info_rates=cfg.info_rates())
    flags = cfg.analysis
    report = analyze(problem,
                     run_iterate=bool(flags.get("mare_iterate", True)),
                     run_necessary=bool(flags.get("necessary", True)),
                     run_sufficient=bool(flags.get("sufficient", True)))
    payload = report.to_json_dict()
    payload["info_rates"] = cfg.info_rates().tolist()
    _write_json(out / "analysis.json", payload)
    nec = report.necessary_ok
    suf = report.sufficient_ok
    print(f"analyze: status={report.status} necessary={nec} sufficient={suf} "
          f"-> {out / 'analysis.json'}")
    return EXIT_OK


def run_solve_threshold(args) -> int:
    eta = threshold_for_rate(args.lambda_target, args.beta)
    print(repr(float(eta)))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schedkf",
        description="Power-scheduled sequential Kalman filtering experiments",
        epilog="SCHEDKF_WORKERS splits the Monte Carlo batch into chunks; "
               "results are identical for any worker count.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("config", help="experiment config (JSON)")
        p.add_argument("--out", help="output directory override")
        p.add_argument("--trials", type=int, help="trial count override")
        p.add_argument("--seed", type=int, help="master seed override")

    p_sim = sub.add_parser("simulate", help="run the closed-loop Monte Carlo")
    add_common(p_sim)
    p_sim.set_defaults(func=run_simulate)

    p_an = sub.add_parser("analyze", help="fixed point and stability checks")
    add_common(p_an)
    p_an.set_defaults(func=run_analyze)

    p_th = sub.add_parser("solve-threshold",
                          help="threshold achieving a target information rate")
    p_th.add_argument("--beta", type=float, required=True,
                      help="low-power arrival probability")
    p_th.add_argument("--lambda", dest="lambda_target", type=float,
                      required=True, help="target information rate")
    p_th.set_defaults(func=run_solve_threshold)
    return parser


def main(argv: Optional[list] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=_sys.stderr)
        return EXIT_UNREADABLE
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
