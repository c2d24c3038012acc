"""In-memory span tracing installed from outside the program.

The tracer replaces module attributes that callers look up at call time
(``schedkf.sim.derive_trial_seed``, ``schedkf.mare.riccati_map``, ...)
with wrappers that record one span per call: name, start, end, parent
span and the pass it belongs to.  Nothing under ``src/`` changes; the
original attributes come back on ``uninstall``.

Self time of a span is its duration minus the durations of its direct
children; a module's self time is the sum over spans named after it.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from time import perf_counter

import numpy as np

# (object whose attribute the caller looks up, attribute, span name).
# The span name is "<callee module>.<function>", which is what self time
# is aggregated by.  ``sym`` is deliberately not wrapped: it is a single
# array expression called several times per Riccati step, and a span
# around it would cost more than the work it measures.
BOUNDARIES = (
    ("schedkf.cli", "load_config", "cli.load_config"),
    ("schedkf.cli", "run_simulate", "cli.run_simulate"),
    ("schedkf.cli", "run_analyze", "cli.run_analyze"),
    ("schedkf.cli", "threshold_for_rate", "stats.threshold_for_rate"),
    ("schedkf.cli", "validate", "model.validate"),
    ("schedkf.cli", "scheduler_stats", "channel.scheduler_stats"),
    ("schedkf.cli", "monte_carlo", "sim.monte_carlo"),
    ("schedkf.cli", "write_summary_csv", "sim.write_summary_csv"),
    ("schedkf.cli", "summary_json_dict", "sim.summary_json_dict"),
    ("schedkf.cli", "analyze", "mare.analyze"),
    ("schedkf.model:LinearSystem", "from_dict", "model.LinearSystem.from_dict"),
    ("schedkf.channel", "component_stats", "stats.component_stats"),
    ("schedkf.channel", "scheduler_stats", "channel.scheduler_stats"),
    ("schedkf.channel", "energy_ledger", "channel.energy_ledger"),
    ("schedkf.sim", "derive_trial_seed", "channel.derive_trial_seed"),
    ("schedkf.sim", "scheduler_stats", "channel.scheduler_stats"),
    ("schedkf.sim", "psd_factor", "linalg.psd_factor"),
    ("schedkf.sim", "simulate_trial", "sim.simulate_trial"),
    ("schedkf.sim", "bound_check", "sim.bound_check"),
    ("schedkf.sim", "riccati_map", "mare.riccati_map"),
    ("schedkf.sim", "time_update", "mare.time_update"),
    ("schedkf.sim:TrialRecord", "slot_outcomes", "sim.TrialRecord.slot_outcomes"),
    ("schedkf.mare", "iterate_fixed_point", "mare.iterate_fixed_point"),
    ("schedkf.mare", "riccati_map", "mare.riccati_map"),
    ("schedkf.mare", "necessary_check", "mare.necessary_check"),
    ("schedkf.mare", "sufficient_check", "mare.sufficient_check"),
    ("schedkf.mare", "optimal_gains", "mare.optimal_gains"),
    ("schedkf.mare", "riccati_envelope", "mare.riccati_envelope"),
    ("schedkf.mare", "min_eig", "linalg.min_eig"),
    ("schedkf.filter", "step", "filter.step"),
    ("schedkf.filter", "predict", "filter.predict"),
    ("schedkf.filter", "innovation_stats", "filter.innovation_stats"),
    ("schedkf.filter", "update_component", "filter.update_component"),
    ("schedkf.filter", "psd_floor", "linalg.psd_floor"),
)

# Layers, in the order metrics are reported; "bench" is the benchmark's
# own code inside a pass (loops, argument building, the filter replay).
MODULES = ("cli", "model", "stats", "channel", "filter", "mare", "sim",
           "linalg", "bench")

PASS_SPAN = "bench.pass"


def resolve(target: str):
    """'pkg.module' or 'pkg.module:Class' -> the module or class (or None)."""
    module, _, cls = target.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls, None) if cls else obj


class Tracer:
    """Span store plus the attribute patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.trace_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._trace = -1
        self._patches: list = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.trace_id.append(self._trace)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def run_pass(self, index: int, fn):
        """Run one pass under a root span; every span inside shares ``index``."""
        self._trace = index
        idx = self._open(self._intern(PASS_SPAN))
        try:
            return fn()
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        nid = self._intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced

    def install(self, boundaries=BOUNDARIES) -> None:
        for target, attr, name in boundaries:
            owner = resolve(target)
            if owner is None or attr not in vars(owner):
                continue  # boundary gone from the program; its metrics read 0
            raw = vars(owner)[attr]
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, self.wrap(name, getattr(owner, attr)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "trace_id": np.frombuffer(self.trace_id, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }


def summarize(spans: dict) -> dict:
    """Per span name: call count, inclusive seconds and self seconds."""
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=dur.size)
    self_s = dur - child
    out = {}
    for nid, name in enumerate(spans["names"]):
        sel = spans["name_id"] == nid
        out[str(name)] = {"calls": int(np.count_nonzero(sel)),
                          "total_s": float(dur[sel].sum()),
                          "self_s": float(self_s[sel].sum())}
    return out


def module_self_seconds(by_name: dict) -> dict:
    """Self seconds per layer; the pass root counts as the benchmark's own."""
    out = {module: 0.0 for module in MODULES}
    for name, row in by_name.items():
        module = "bench" if name == PASS_SPAN else name.split(".", 1)[0]
        out[module] += row["self_s"]
    return out
