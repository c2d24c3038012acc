"""Timed passes of one workload, in a process of its own.

``run.py`` starts this script once per benchmark run, so the process's
peak resident memory is the workload's.  A pass is one repetition of the
workload through the program's public entry points; passes repeat until
``--seconds`` have elapsed.  Checking happens between passes and is not
timed: each operation's output is digested, and the first pass's outputs
are saved for the oracles in ``oracles.py``, which run in the parent.

    python3 bench/child.py --workload W --configs DIR --out DIR \
        --seconds S --trace 0|1 [--max-passes N]
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import itertools
import json
import resource
import shutil
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

import numpy as np

import tracing

ROOT = Path(__file__).resolve().parent.parent


def import_program():
    """Import ``schedkf`` from this checkout's ``src`` and nowhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import schedkf
    where = Path(schedkf.__file__).resolve().parent
    if where != src / "schedkf":
        raise SystemExit(f"imported schedkf from {where}, not from {src}")
    return schedkf


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(lib, name):
                return int(getattr(lib, name)())
    return None


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def guarded(fn):
    """Run one program operation; returns (result, error message or None)."""
    try:
        return fn(), None
    except Exception as exc:  # a failing operation is counted, not fatal
        return None, f"{type(exc).__name__}: {exc}"


def cli_call(cli, argv) -> str | None:
    rc, err = guarded(lambda: cli.main(argv))
    if err is None and rc != 0:
        err = f"exit code {rc}"
    return err


class Simulate:
    """``schedkf simulate`` on each config, in-process via ``cli.main``."""

    memory_target = ("schedkf.cli", "monte_carlo")

    def __init__(self, configs):
        from schedkf import cli
        self.cli = cli
        self.configs = configs
        self.out = None
        self.summaries = {}
        self._current = None
        # The output files lack the standard errors the sandwich oracle
        # needs, so the summary ``monte_carlo`` returns to the CLI is kept.
        capture = cli.monte_carlo

        def capturing(*args, **kwargs):
            summary = capture(*args, **kwargs)
            self.summaries[self._current] = summary
            return summary
        cli.monte_carlo = capturing
        cfgs = [json.loads(p.read_text()) for p in configs]
        self.trial_steps = sum(c["trials"] * c["horizon"] for c in cfgs)
        self.slot_updates = sum(c["trials"] * c["horizon"] * len(c["system"]["C"])
                                for c in cfgs)

    def run(self) -> dict:
        errors = {}
        self.summaries = {}
        for path in self.configs:
            self._current = path.stem
            errors[path.stem] = cli_call(self.cli, [
                "simulate", str(path), "--out", str(self.out / path.stem)])
        return errors

    def digests(self) -> dict:
        out = {}
        for name, s in self.summaries.items():
            out[name] = digest(s.mean_P, s.empirical_cov, s.se_P,
                               s.energy_per_step, s.high_rate_per_step,
                               np.array([s.truncated_trials]))
        return out

    def save_first(self, oracle_dir: Path) -> None:
        for name, s in self.summaries.items():
            np.savez(oracle_dir / f"{name}.summary.npz", mean_P=s.mean_P,
                     se_P=s.se_P, empirical_cov=s.empirical_cov,
                     truncated_trials=s.truncated_trials)
            shutil.copy(self.out / name / "effective_config.json",
                        oracle_dir / f"{name}.effective.json")

    def counts(self) -> dict:
        return {"sim.trial_steps": self.trial_steps,
                "sim.slot_updates": self.slot_updates,
                "sim.truncated_trials": sum(s.truncated_trials
                                            for s in self.summaries.values())}


class Analyze:
    """``schedkf analyze`` on each config, in-process via ``cli.main``."""

    memory_target = None

    def __init__(self, configs):
        from schedkf import cli
        self.cli = cli
        self.configs = configs
        self.out = None

    def run(self) -> dict:
        return {p.stem: cli_call(self.cli, ["analyze", str(p), "--out",
                                            str(self.out / p.stem)])
                for p in self.configs}

    def digests(self) -> dict:
        out = {}
        for p in self.configs:
            report = self.out / p.stem / "analysis.json"
            out[p.stem] = (hashlib.sha256(report.read_bytes()).hexdigest()
                           if report.is_file() else None)
        return out

    def save_first(self, oracle_dir: Path) -> None:
        for p in self.configs:
            src = self.out / p.stem
            if (src / "analysis.json").is_file():
                shutil.copy(src / "analysis.json", oracle_dir / f"{p.stem}.analysis.json")
                shutil.copy(src / "effective_config.json",
                            oracle_dir / f"{p.stem}.effective.json")

    def counts(self) -> dict:
        iterations = certified = 0
        for p in self.configs:
            report = self.out / p.stem / "analysis.json"
            if report.is_file():
                data = json.loads(report.read_text())
                iterations += data["iterations"]
                certified += bool(data["sufficient"] and data["sufficient"]["ok"])
        return {"mare.fp_iterations": iterations, "mare.certified": certified}


class TrialLong:
    """One long trial: ``sim.simulate_trial``, ``channel.energy_ledger`` over
    its slot outcomes, then a replay of the delivery bits through
    ``filter.step``.  The replay feeds 0.0 as every received value: the
    covariance recursion depends only on the bits."""

    memory_target = ("schedkf.sim", "simulate_trial")
    OPS = ("simulate_trial", "energy_ledger", "filter_replay")

    def __init__(self, configs):
        from schedkf import channel, cli, sim
        from schedkf import filter as kf
        self.sim, self.channel, self.kf = sim, channel, kf
        (self.path,) = configs
        self.cfg = cli.load_config(self.path)
        self.result = None

    def _pass(self):
        sim, channel, kf = self.sim, self.channel, self.kf
        cfg = self.cfg
        rec = sim.simulate_trial(cfg.system, cfg.scheduler, cfg.horizon,
                                 cfg.master_seed)
        outcomes = itertools.chain.from_iterable(
            rec.slot_outcomes(k) for k in range(1, rec.horizon + 1))
        ledger = channel.energy_ledger(outcomes)
        stats = channel.scheduler_stats(cfg.scheduler)
        state = kf.FilterState.initial(cfg.system)
        covs = np.empty_like(rec.covariances)
        covs[0] = state.P
        high = rec.high_power.tolist()
        arrived = rec.arrived.tolist()
        m = cfg.system.m
        for k in range(rec.horizon):
            slots = [kf.SlotUpdate(index=i,
                                   value=0.0 if high[k][i] or arrived[k][i] else None,
                                   high_power=high[k][i], arrived=arrived[k][i])
                     for i in range(m)]
            state, _ = kf.step(state, cfg.system, slots, stats)
            covs[k + 1] = state.P
        return rec, ledger, covs

    def run(self) -> dict:
        self.result, err = guarded(self._pass)
        return {op: err for op in self.OPS}

    def digests(self) -> dict:
        if self.result is None:
            return {op: None for op in self.OPS}
        rec, ledger, covs = self.result
        return {
            "simulate_trial": digest(rec.covariances, rec.errors, rec.delivered,
                                     rec.high_power, rec.energy),
            "energy_ledger": digest(np.array([ledger.total, ledger.high_count,
                                              ledger.low_count])),
            "filter_replay": digest(covs),
        }

    def save_first(self, oracle_dir: Path) -> None:
        if self.result is None:
            return
        rec, ledger, covs = self.result
        np.savez(oracle_dir / "trial.npz", covariances=rec.covariances,
                 replay_covariances=covs, delivered=rec.delivered,
                 high_power=rec.high_power, energy=rec.energy,
                 eta=self.cfg.scheduler.thresholds,
                 truncated=rec.truncated_at is not None,
                 ledger=np.array([ledger.total, ledger.high_count,
                                  ledger.low_count]))

    def counts(self) -> dict:
        horizon = self.cfg.horizon
        truncated = 0
        if self.result is not None and self.result[0].truncated_at is not None:
            truncated = 1
        return {"sim.trial_steps": horizon,
                "sim.slot_updates": horizon * self.cfg.system.m,
                "sim.truncated_trials": truncated}


KINDS = {"mc-scalar": Simulate, "mc-dense": Simulate,
         "analyze-boundary": Analyze, "trial-long": TrialLong}


class Runner:
    """Repeats passes and records every operation's error and digest.

    Each pass writes into a fresh directory and the previous pass's
    directory is removed afterwards, outside the timed region: rewriting
    existing files makes the file system truncate and discard blocks,
    which a run into a fresh directory does not pay and which slows each
    further pass by a varying amount.
    """

    def __init__(self, workload, program_dir: Path, oracle_dir: Path):
        self.workload = workload
        self.program_dir = program_dir
        self.oracle_dir = oracle_dir
        self.ops = []

    def passes(self, seconds: float, max_passes: int, tracer=None) -> list:
        times = []
        deadline = perf_counter() + seconds
        while not times or (perf_counter() < deadline and len(times) < max_passes):
            index = len(self.ops)
            self.workload.out = self.program_dir / f"pass-{index}"
            t0 = perf_counter()
            if tracer is None:
                errors = self.workload.run()
            else:
                errors = tracer.run_pass(index, self.workload.run)
            times.append(perf_counter() - t0)
            self.record(index, errors)
            previous = self.program_dir / f"pass-{index - 1}"
            if previous.exists():
                shutil.rmtree(previous)
        return times

    def record(self, index: int, errors: dict) -> None:
        digests = self.workload.digests()
        if index == 0:
            self.workload.save_first(self.oracle_dir)
        self.ops.append({op: {"error": err, "digest": digests.get(op)}
                         for op, err in errors.items()})


def measure_allocations(runner: Runner) -> float:
    """Peak traced allocation (numpy buffers included) inside the
    workload's simulation entry point, in MB, over one extra pass."""
    target = runner.workload.memory_target
    if target is None:
        return 0.0
    owner = tracing.resolve(target[0])
    original = getattr(owner, target[1])
    peaks = []

    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            return original(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
    setattr(owner, target[1], measured)
    try:
        runner.passes(0.0, 1)
    finally:
        setattr(owner, target[1], original)
    return max(peaks) / 2**20 if peaks else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(KINDS))
    ap.add_argument("--configs", required=True, type=Path)
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--max-passes", type=int, default=10**6)
    args = ap.parse_args(argv)

    schedkf = import_program()
    oracle_dir = args.out / "oracle"
    oracle_dir.mkdir(parents=True, exist_ok=True)
    configs = sorted(args.configs.glob("*.json"))
    workload = KINDS[args.workload](configs)
    runner = Runner(workload, args.out / "program", oracle_dir)

    result = {"schedkf_file": schedkf.__file__, "blas_threads": blas_threads()}
    untraced = args.seconds / 2 if args.trace else args.seconds
    result["pass_s"] = runner.passes(untraced, args.max_passes)
    result["counts"] = workload.counts()
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            result["traced_pass_s"] = runner.passes(args.seconds / 2,
                                                    args.max_passes, tracer)
        finally:
            tracer.uninstall()
        spans = tracer.arrays()
        np.savez(args.out / "spans.npz", **spans)
        result["spans"] = tracing.summarize(spans)
        result["bytes_materialized_mb"] = measure_allocations(runner)
    result["ops"] = runner.ops
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    (args.out / "child.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
