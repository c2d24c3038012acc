"""Sensor-side power scheduling and the lossy low-power channel.

Each measurement slot makes a two-level power choice: innovations whose
normalized magnitude strictly exceeds the slot threshold are sent at
high power (always delivered), everything else at low power (delivered
with probability ``arrival_prob``).  Acknowledgements are modeled as
perfect: the estimator always learns the (high_power, arrived) pair.

The decision and the arrival draw are made, for whole batches of trials,
in ``sim._run_batch``; this module holds the scheduler configuration,
its per-slot statistics, the energy accounting and the trial seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .stats import ComponentStats, component_stats, threshold_for_rate

__all__ = [
    "SchedulerConfig", "SlotOutcome", "EnergyLedger", "energy_ledger",
    "scheduler_stats", "derive_trial_seed",
]


@dataclass(frozen=True)
class SchedulerConfig:
    """Per-component thresholds plus the channel and energy model."""

    thresholds: np.ndarray      # one nonnegative threshold per slot
    arrival_prob: float         # low-power delivery probability, in (0, 1)
    energy_high: float = 1.0    # cost of a high-power transmission
    energy_low: float = 0.1     # cost of a low-power transmission

    def __post_init__(self):
        th = np.atleast_1d(np.asarray(self.thresholds, dtype=float))
        if th.ndim != 1 or th.size == 0:
            raise ValueError("thresholds must be a nonempty 1-d array")
        if np.any(th < 0.0) or not np.all(np.isfinite(th)):
            raise ValueError("thresholds must be finite and >= 0")
        if not (0.0 < self.arrival_prob < 1.0):
            raise ValueError(f"arrival_prob must lie in (0, 1), got {self.arrival_prob}")
        if not (0.0 < self.energy_low < self.energy_high):
            raise ValueError(
                "energies must satisfy 0 < energy_low < energy_high, got "
                f"low={self.energy_low}, high={self.energy_high}"
            )
        th.setflags(write=False)
        object.__setattr__(self, "thresholds", th)

    @property
    def m(self) -> int:
        return self.thresholds.size

    @classmethod
    def from_rates(cls, info_rates: Sequence[float], arrival_prob: float,
                   energy_high: float = 1.0, energy_low: float = 0.1,
                   ) -> "SchedulerConfig":
        """Build a config by inverting target information rates into thresholds."""
        th = [threshold_for_rate(r, arrival_prob) for r in info_rates]
        return cls(thresholds=np.asarray(th), arrival_prob=arrival_prob,
                   energy_high=energy_high, energy_low=energy_low)


def scheduler_stats(cfg: SchedulerConfig) -> list[ComponentStats]:
    """Per-slot scheduler statistics for a config."""
    return [component_stats(t, cfg.arrival_prob) for t in cfg.thresholds]


@dataclass(frozen=True)
class SlotOutcome:
    """What happened in one transmission slot."""

    high_power: bool       # scheduler chose the high-power path
    arrived: bool          # low-power arrival draw; meaningful on low-power slots
    innovation: float      # normalized innovation observed at the sensor
    energy: float
    delivered: bool        # the estimator received the value


@dataclass(frozen=True)
class EnergyLedger:
    total: float
    high_count: int
    low_count: int
    high_rate: float    # empirical fraction of high-power sends; NaN when empty


def energy_ledger(outcomes: Iterable[SlotOutcome]) -> EnergyLedger:
    """Totals and the empirical high-power rate over a slot sequence.

    The high-power rate is directly comparable to the ``high_rate``
    statistic predicted from the slot threshold.
    """
    total = 0.0
    high = 0
    low = 0
    for out in outcomes:
        total += out.energy
        if out.high_power:
            high += 1
        else:
            low += 1
    count = high + low
    rate = high / count if count else math.nan
    return EnergyLedger(total=total, high_count=high, low_count=low, high_rate=rate)


def derive_trial_seed(master_seed: int, trial_index: int) -> int:
    """Deterministic per-trial seed: SeedSequence over (master, index).

    Keeps Monte Carlo streams independent across trials while staying
    reproducible from a single master seed.
    """
    ss = np.random.SeedSequence((int(master_seed), int(trial_index)))
    return int(ss.generate_state(1, np.uint64)[0])
