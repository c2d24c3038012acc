"""Sensor-side power scheduling and the lossy low-power channel.

Each measurement slot makes a two-level power choice: innovations whose
normalized magnitude strictly exceeds the slot threshold are sent at
high power (always delivered), everything else at low power (delivered
with probability ``arrival_prob``).  Acknowledgements are modeled as
perfect: the estimator always learns the (high_power, arrived) pair.

The decision and the arrival draw are made, for whole batches of trials,
in ``sim._run_batch``; this module holds the scheduler configuration,
its per-slot statistics, the energy accounting and the trial streams.

Trial streams.  Trial t of a run with master seed s draws from numpy's
``default_rng(derive_trial_seed(s, t))``.  Both seeding steps are numpy's
``SeedSequence`` hash (O'Neill's seed_seq mixing, PCG report
HMC-CS-2014-0905), which is plain uint32 arithmetic whose hash constants
do not depend on the data.  ``_seed_sequence`` runs it for a whole
(rows, words) entropy array at once, bit for bit as numpy does per row.
``_trial_seeds`` hashes a block's trial indices to their seeds in one
call, and ``_hashed_seeds`` hashes those seeds to PCG64's seed words in
one more, handing each to ``default_rng`` as a ``_HashedSeed``, so that
numpy seeds the generator exactly as from the seed itself.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

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
        if not (0.0 < self.energy_low < self.energy_high < math.inf):
            raise ValueError(
                "energies must be finite with 0 < energy_low < energy_high, got "
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


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _chain(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The data-independent hash constants c_j = init * mult**j mod 2**32,
    as the (xor, mult) pairs (c_j, c_{j+1}) of hash calls j = 0..count-1,
    each a (count, 1) uint32 column."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    consts = np.array(out, dtype=np.uint32)[:, None]
    return consts[:-1], consts[1:]


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> 16)


def _seed_sequence(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """``SeedSequence(row).generate_state(n_words)`` for every row.

    ``entropy`` is a (rows, words) uint32 array in numpy's layout: the
    little-endian words of each int, zero taking one word, ints joined in
    order.  All rows must have the same word count, except that entropy
    shorter than the pool hashes as if zero-padded to it, so rows of up
    to four words may share an array.  The arithmetic is on uint32
    arrays, which wrap modulo 2**32 as numpy's C code does.

    The pool is a (4, rows) array.  Where numpy hashes one word into each
    other pool word in turn, that word does not change in between, so
    the hashes for all destinations are taken at once, each with its own
    constant.
    """
    rows, words = entropy.shape
    calls = _POOL * _POOL + _POOL * max(words - _POOL, 0)
    xor, mult = _chain(_INIT_A, _MULT_A, calls)
    pool = np.zeros((_POOL, rows), dtype=np.uint32)
    pool[:words] = entropy[:, :_POOL].T
    pool = _hashmix(pool, xor[:_POOL], mult[:_POOL])
    used = _POOL
    for src in range(_POOL):
        dst = [i for i in range(_POOL) if i != src]
        hashed = _hashmix(pool[src], xor[used:used + 3], mult[used:used + 3])
        pool[dst] = _mix(pool[dst], hashed)
        used += 3
    for src in range(_POOL, words):
        hashed = _hashmix(entropy[:, src], xor[used:used + _POOL],
                          mult[used:used + _POOL])
        pool = _mix(pool, hashed)
        used += _POOL
    xor, mult = _chain(_INIT_B, _MULT_B, n_words)
    state = _hashmix(pool[np.arange(n_words) % _POOL], xor, mult)
    return np.ascontiguousarray(state.T)


def _words(value: int) -> list[int]:
    """numpy's entropy words of one int."""
    if value < 0:
        raise ValueError(f"expected non-negative integer, got {value}")
    words = [value & _MASK32]
    while value >> 32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _split(values: np.ndarray) -> np.ndarray:
    """uint64 values as (rows, 2) uint32 words, low word first."""
    return values.astype("<u8").view("<u4").reshape(-1, 2)


def _join(words: np.ndarray) -> np.ndarray:
    """Pairs of uint32 words as uint64, low word first, as numpy joins them."""
    return words.astype("<u4").view("<u8").astype(np.uint64)


def _trial_seeds(master_seed: int, start: int, stop: int) -> np.ndarray:
    """``derive_trial_seed(master_seed, t)`` for t in start..stop-1, as uint64.

    Indices are grouped by their word count, so that each group's rows
    have the word count numpy gives them.
    """
    head = np.array(_words(operator.index(master_seed)), dtype=np.uint32)
    seeds = np.empty(stop - start, dtype=np.uint64)
    lo = start
    while lo < stop:
        width = len(_words(lo))
        hi = min(stop, 1 << 32 * width)
        if width <= 2:
            index = _split(np.arange(hi - lo, dtype=np.uint64) + np.uint64(lo))[:, :width]
        else:
            index = np.array([_words(t) for t in range(lo, hi)], dtype=np.uint32)
        entropy = np.hstack((np.broadcast_to(head, (hi - lo, head.size)), index))
        seeds[lo - start:hi - start] = _join(_seed_sequence(entropy, 2))[:, 0]
        lo = hi
    return seeds


def derive_trial_seed(master_seed: int, trial_index: int) -> int:
    """Deterministic per-trial seed: SeedSequence over (master, index).

    Keeps Monte Carlo streams independent across trials while staying
    reproducible from a single master seed.  ``_trial_seeds`` computes
    the same seeds for a whole block of indices.
    """
    entropy = (operator.index(master_seed), operator.index(trial_index))
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


class _HashedSeed(ISeedSequence):
    """A seed whose ``SeedSequence`` hash is already taken: the four
    uint64 words PCG64 asks for, so ``default_rng`` of it is
    ``default_rng`` of the seed.  Any other request raises, so a change
    in what numpy asks for fails loudly."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"expected a request for 4 uint64 words, got "
                             f"{n_words} of {np.dtype(dtype)}")
        return self.words


def _hashed_seeds(seeds: np.ndarray) -> list[_HashedSeed]:
    """A uint64 array of seeds, hashed to PCG64's seed words in one call;
    one- and two-word seeds hash as if zero-padded to two words."""
    return [_HashedSeed(words) for words in _join(_seed_sequence(_split(seeds), 8))]
