"""schedkf benchmark: one seeded workload per invocation, checked and measured.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md for why each exists):

    mc-scalar         worked example, 20 000 trials x 200 steps, `simulate`
    mc-dense          n=4, m=3 random system, 5 000 x 200, `simulate`,
                      SCHEDKF_WORKERS = number of usable cores
    analyze-boundary  30 `analyze` problems around the stability boundary
    trial-long        one 20 000-step trial, its energy ledger and a
                      `filter.step` replay

The run generates its inputs from --seed, measures set-up in fresh
interpreters, runs the workload's passes for --seconds in one child
process, checks every output against the oracles in oracles.py and
prints human-readable lines followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
run also makes traced passes and reports the per-layer metrics.  The full
record, with the environment, goes to bench/_out/<run>/result.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np
import scipy

import inputs
import oracles
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"

SETUP_PROBES = 12
DEADLINE_S = 170.0
WORKERS_ENV = "SCHEDKF_WORKERS"

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("trial_steps_per_s", "1/s"),
    ("failed_share", "ratio"),
    ("certified_share", "ratio"),
    ("run_samples", "count"),
    ("cli.parse_s", "s"),
    ("model.validate_s", "s"),
    ("model.from_dict_s", "s"),
    ("stats.threshold_for_rate_s", "s"),
    ("stats.threshold_for_rate_calls", "count"),
    ("cli.run_self_s", "s"),
    ("channel.derive_trial_seed_s", "s"),
    ("channel.derive_trial_seed_calls", "count"),
    ("channel.scheduler_stats_s", "s"),
    ("sim.monte_carlo_self_s", "s"),
    ("sim.bytes_materialized_mb", "MB"),
    ("sim.trial_steps", "count"),
    ("sim.slot_updates", "count"),
    ("sim.truncated_trials", "count"),
    ("sim.bound_check_self_s", "s"),
    ("sim.write_summary_csv_s", "s"),
    ("mare.riccati_map_s", "s"),
    ("mare.iterate_fixed_point_self_s", "s"),
    ("mare.riccati_map_calls", "count"),
    ("mare.fp_iterations", "count"),
    ("mare.sufficient_check_s", "s"),
    ("mare.necessary_check_s", "s"),
    ("mare.certified", "count"),
    ("sim.simulate_trial_self_s", "s"),
    ("filter.step_s", "s"),
    ("filter.step_calls", "count"),
    ("channel.energy_ledger_s", "s"),
    ("sim.peak_rss_workers_unset_mb", "MB"),
    ("trace.run_s", "s"),
    ("trace.overhead_s", "s"),
) + tuple((f"{module}.self_s", "s") for module in tracing.MODULES)


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env(workers: int | None) -> dict:
    env = dict(os.environ)
    env.pop(WORKERS_ENV, None)
    if workers is not None:
        env[WORKERS_ENV] = str(workers)
    return env


def remaining(t0: float) -> float:
    left = DEADLINE_S - (perf_counter() - t0)
    if left <= 0:
        raise BenchError(f"time budget of {DEADLINE_S:g} s exhausted")
    return left


def run_checked(cmd, t0, **kwargs) -> float:
    """Run a subprocess to completion; returns its wall time in seconds.

    The wait blocks in waitpid and a timer kills the process at the
    deadline; ``Popen.wait(timeout=...)`` would poll in sleeps of up to
    50 ms and round every measured time up to that grain.
    """
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, **kwargs)
    timer = threading.Timer(remaining(t0), proc.kill)
    timer.start()
    try:
        returncode = proc.wait()
    finally:
        timer.cancel()
    elapsed = perf_counter() - start
    if returncode != 0:
        raise BenchError(f"exit code {returncode}: {' '.join(map(str, cmd))}")
    return elapsed


def measure_setup(configs: Path, log: Path, t0: float, probes: int) -> list:
    """Start-to-exit seconds of fresh set-up probes."""
    cmd = [sys.executable, str(HERE / "probe_setup.py"), str(configs)]
    with open(log, "a", encoding="utf-8") as fh:
        return [run_checked(cmd, t0, stdout=fh, stderr=subprocess.STDOUT)
                for _ in range(probes)]


def run_child(workload: str, configs: Path, out: Path, seconds: float,
              trace: int, workers: int | None, t0: float,
              max_passes: int | None = None) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--configs", str(configs), "--out", str(out),
           "--seconds", repr(seconds), "--trace", str(trace)]
    if max_passes is not None:
        cmd += ["--max-passes", str(max_passes)]
    with open(out / "child.log", "w", encoding="utf-8") as fh:
        run_checked(cmd, t0, stdout=fh, stderr=subprocess.STDOUT,
                    env=child_env(workers))
    return json.loads((out / "child.json").read_text())


def _load_npz(path: Path) -> dict:
    with np.load(path) as npz:
        return {key: npz[key] for key in npz.files}


def oracle_failures(workload: str, configs: Path, oracle_dir: Path):
    """Failures per operation on the first pass's outputs, plus the
    stability verdicts behind certified_share.  An operation whose first
    pass left no output has already failed with its error and is skipped."""
    per_op = {}
    stable_certified = []
    for path in sorted(configs.glob("*.json")):
        config = json.loads(path.read_text())
        name = path.stem
        if workload == "trial-long":
            kept = oracle_dir / "trial.npz"
        elif workload == "analyze-boundary":
            kept = oracle_dir / f"{name}.analysis.json"
        else:
            kept = oracle_dir / f"{name}.summary.npz"
        if not kept.is_file():
            continue
        if workload == "trial-long":
            trial = _load_npz(kept)
            total, high, low = trial.pop("ledger")
            trial["ledger"] = {"total": float(total), "high_count": int(high),
                               "low_count": int(low)}
            per_op.update(oracles.check_trial(config, trial))
            continue
        effective = json.loads((oracle_dir / f"{name}.effective.json").read_text())
        if workload == "analyze-boundary":
            verdict = oracles.check_analysis(config, effective,
                                             json.loads(kept.read_text()),
                                             inputs.kind_of(name))
            per_op[name] = verdict.failures
            if verdict.stable:
                stable_certified.append(verdict.certified)
        else:
            per_op[name] = oracles.check_monte_carlo(config, effective,
                                                     _load_npz(kept))
    return per_op, stable_certified


def judge(child: dict, per_op: dict) -> list:
    """One entry per attempted operation: (pass, op, failures)."""
    ops = child["ops"]
    reference = {op: rec["digest"] for op, rec in ops[0].items()}
    judged = []
    for index, record in enumerate(ops):
        for op, rec in record.items():
            if rec["error"] is not None:
                fails = [oracles.Failure("error", rec["error"])]
            elif rec["digest"] != reference[op]:
                fails = [oracles.Failure("nondeterministic",
                                         f"pass {index} output differs from pass 0")]
            else:
                fails = list(per_op.get(op, []))
            judged.append((index, op, fails))
    return judged


def tail_percentile(samples: list):
    """Highest standard percentile with at least ten samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(samples) * (1.0 - p / 100.0) >= 10.0:
            return p, float(np.percentile(samples, p))
    return None


def layer_metrics(child: dict) -> dict:
    """Per-layer numbers from the traced passes, per pass."""
    spans = child["spans"]
    n = len(child["traced_pass_s"])

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0) / n

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0) / n

    def calls(name):
        return spans.get(name, {}).get("calls", 0) // n

    out = {
        "cli.parse_s": self_s("cli.load_config"),
        "model.validate_s": total("model.validate"),
        "model.from_dict_s": total("model.LinearSystem.from_dict"),
        "stats.threshold_for_rate_s": total("stats.threshold_for_rate"),
        "stats.threshold_for_rate_calls": calls("stats.threshold_for_rate"),
        "cli.run_self_s": self_s("cli.run_simulate") + self_s("cli.run_analyze"),
        "channel.derive_trial_seed_s": total("channel.derive_trial_seed"),
        "channel.derive_trial_seed_calls": calls("channel.derive_trial_seed"),
        "channel.scheduler_stats_s": total("channel.scheduler_stats"),
        "sim.monte_carlo_self_s": self_s("sim.monte_carlo"),
        "sim.bytes_materialized_mb": child["bytes_materialized_mb"],
        "sim.bound_check_self_s": self_s("sim.bound_check"),
        "sim.write_summary_csv_s": total("sim.write_summary_csv"),
        "mare.riccati_map_s": total("mare.riccati_map"),
        "mare.iterate_fixed_point_self_s": self_s("mare.iterate_fixed_point"),
        "mare.riccati_map_calls": calls("mare.riccati_map"),
        "mare.sufficient_check_s": total("mare.sufficient_check"),
        "mare.necessary_check_s": total("mare.necessary_check"),
        "sim.simulate_trial_self_s": self_s("sim.simulate_trial"),
        "filter.step_s": total("filter.step"),
        "filter.step_calls": calls("filter.step"),
        "channel.energy_ledger_s": total("channel.energy_ledger"),
        "trace.run_s": median(child["traced_pass_s"]),
        "trace.overhead_s": median(child["traced_pass_s"]) - median(child["pass_s"]),
    }
    for module, seconds in tracing.module_self_seconds(spans).items():
        out[f"{module}.self_s"] = seconds / n
    return out


def tree_digest(base: Path, pattern: str) -> str:
    h = hashlib.sha256()
    for path in sorted(base.glob(pattern)):
        h.update(str(path.relative_to(base)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def run(args) -> dict:
    t0 = perf_counter()
    if not (ROOT / "src" / "schedkf" / "__init__.py").is_file():
        raise BenchError(f"no program source at {ROOT / 'src' / 'schedkf'}")
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    configs = out / "configs"
    inputs.write_inputs(args.workload, args.seed, configs)
    # The first probe warms the bytecode cache and is not counted.  Half
    # the counted probes run before the workload and half after it, so
    # the median spans the run rather than one moment of machine load.
    measure_setup(configs, out / "setup.log", t0, 1)
    setup = measure_setup(configs, out / "setup.log", t0, SETUP_PROBES // 2)

    cores = usable_cores()
    workers = cores if args.workload == "mc-dense" else None
    child = run_child(args.workload, configs, out / "timed", args.seconds,
                      args.trace, workers, t0)
    per_op, stable_certified = oracle_failures(args.workload, configs,
                                               out / "timed" / "oracle")
    judged = judge(child, per_op)

    unset = None
    if args.workload == "mc-dense":
        # Reproducibility contract: the worker count must not change a bit.
        unset = run_child(args.workload, configs, out / "workers-unset", 0.0,
                          0, None, t0, max_passes=1)
        fails = []
        for op, rec in unset["ops"][0].items():
            if rec["digest"] != child["ops"][0][op]["digest"]:
                fails.append(oracles.Failure(
                    "worker-variance",
                    f"{WORKERS_ENV}={workers} and unset give different summaries"))
        judged.append(("workers-unset", "worker-invariance", fails))

    setup += measure_setup(configs, out / "setup.log", t0,
                           SETUP_PROBES - SETUP_PROBES // 2)

    attempted = len(judged)
    failures = [(p, op, f) for p, op, fs in judged for f in fs]
    failed = sum(1 for _, _, fs in judged if fs)
    unexpected = [x for x in failures if not x[2].known]

    pass_s = child["pass_s"]
    run_s = median(pass_s)
    counts = {"sim.trial_steps": 0, "sim.slot_updates": 0,
              "sim.truncated_trials": 0, "mare.fp_iterations": 0,
              "mare.certified": 0}
    counts.update(child["counts"])
    e2e = {
        "setup_s": median(setup),
        "run_s": run_s,
        "peak_rss_mb": child["peak_rss_mb"],
    }
    extra = {
        "trial_steps_per_s": counts["sim.trial_steps"] / run_s,
        "failed_share": failed / attempted,
        "certified_share": (sum(stable_certified) / len(stable_certified)
                            if stable_certified else 0.0),
        "run_samples": len(pass_s),
        "sim.peak_rss_workers_unset_mb": unset["peak_rss_mb"] if unset else 0.0,
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "end_to_end": e2e,
        "run_s_detail": {"median": run_s, "samples": len(pass_s),
                         "tail_percentile": tail_percentile(pass_s),
                         "passes_s": pass_s},
        "setup_s_probes": setup,
        "derived": extra,
        "counts": counts,
        "attempted": attempted, "failed": failed,
        "failures": [{"pass": p, "op": op, "kind": f.kind, "message": f.message,
                      "known": f.known} for p, op, f in failures],
        "stable_problems": len(stable_certified),
        "known_defects": oracles.KNOWN_DEFECTS,
        "environment": {
            "git_sha": git_sha(),
            "src_sha256": tree_digest(ROOT / "src", "**/*.py"),
            "config_sha256": tree_digest(configs, "*.json"),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "nproc": cores, WORKERS_ENV: workers,
            "blas_threads": child["blas_threads"],
            "machine": platform.machine(),
            "schedkf_file": child["schedkf_file"],
        },
    }
    if args.trace:
        layers = layer_metrics(child)
        layers.update(counts)
        layers.update(extra)
        record["per_layer"] = layers
        record["spans_file"] = str((out / "timed" / "spans.npz").relative_to(ROOT))
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END}
    (out / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    return {"record": record, "correct": not unexpected, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def report(result: dict) -> None:
    rec = result["record"]
    detail = rec["run_s_detail"]
    tail = detail["tail_percentile"]
    print(f"workload {rec['workload']}  seed {rec['seed']}  trace {rec['trace']}")
    print(f"setup_s {rec['end_to_end']['setup_s']:.4f} s "
          f"(median of {len(rec['setup_s_probes'])} fresh interpreters)")
    print(f"run_s {detail['median']:.4f} s median over {detail['samples']} passes; "
          + (f"p{tail[0]:g} {tail[1]:.4f} s" if tail else
             "no percentile has 10 samples beyond it"))
    print(f"peak_rss_mb {rec['end_to_end']['peak_rss_mb']:.1f} MB")
    for name, value in rec["derived"].items():
        print(f"{name} {value:.6g}")
    print(f"operations {result['attempted']} attempted, {result['failed']} failed")
    for f in rec["failures"]:
        tag = "known defect" if f["known"] else "FAILED"
        print(f"  {tag}: pass {f['pass']} {f['op']} [{f['kind']}] {f['message']}")
    env = rec["environment"]
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="schedkf benchmark")
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        report(run(args))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
