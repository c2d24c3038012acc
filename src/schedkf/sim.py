"""Closed-loop simulation and Monte Carlo aggregation.

One trial couples the true plant, the sensor-side scheduler, the lossy
channel, and the remote estimator for a fixed horizon.  Trials are
vectorized: ``monte_carlo`` runs them in fixed blocks of ``_BLOCK`` trials
with batched array operations and folds each block into running
aggregates, which keeps tens of thousands of trials affordable in time
and memory while preserving per-trial reproducibility.

The loop is integrated in error coordinates e = x_true - x_estimate.
Innovations, scheduler decisions, gains, and covariances are all exact
functions of e and the noises, so nothing is lost; what is gained is
numerical survival on unstable plants, where the absolute state outgrows
double precision long before the error statistics do (for |A| ~ 1.2 the
measurement noise drops below the ulp of the state near step 190).

Time and slot updates are ``_linalg.time_update`` and
``_linalg.weighted_update``, as in the scalar filter.
The PSD guard ``_linalg.psd_floor`` runs once per step, on the stored
covariance, as in ``filter.step``: one batched Cholesky certifies the
stack, and the eigenvalue repair touches only round-off negative rows.

Randomness protocol (frozen; reordering it breaks reproducibility):
each trial owns one ``numpy`` generator seeded from its trial seed and
consumes, in this order,

    1. n standard normals            -> initial error (x0 - x0_mean)
    2. (horizon, n) standard normals -> process noise
    3. (horizon, m) standard normals -> measurement noise
    4. (horizon, m) uniforms         -> low-power arrival draws

Arrival uniforms are drawn for every slot and simply ignored on
high-power slots, so the stream position never depends on scheduler
decisions.  ``simulate_trial`` is the same engine with a batch of one,
and trial seeds derive from ``derive_trial_seed(master_seed, index)``.
Every row of a batch is computed as it would be alone, and the block
size is a constant, so the summary depends only on the config and the
master seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import _linalg
from ._linalg import innovation_terms, psd_factor, psd_floor, sym, weighted_update
from .channel import SchedulerConfig, SlotOutcome, derive_trial_seed, scheduler_stats
from .mare import DEFAULT_TRACE_CEILING, MareProblem, riccati_map, time_update
from .model import LinearSystem

__all__ = [
    "TrialRecord", "MonteCarloSummary", "BoundCheck",
    "simulate_trial", "monte_carlo", "bound_check",
    "write_summary_csv", "summary_json_dict",
]

@dataclass
class TrialRecord:
    """Everything recorded from one closed-loop trial.

    Step arrays run k = 0..horizon (index 0 is the prior state), slot
    arrays run k = 1..horizon with one column per measurement component.
    ``truncated_at`` is the first step whose covariance trace passed the
    ceiling; entries from that step on are NaN.
    """

    seed: int
    errors: np.ndarray          # (K+1, n) true state minus posterior mean
    covariances: np.ndarray     # (K+1, n, n) reported posterior covariance
    high_power: np.ndarray      # (K, m) bool
    arrived: np.ndarray         # (K, m) bool, meaningful on low-power slots
    delivered: np.ndarray       # (K, m) bool
    innovations: np.ndarray     # (K, m) sensor-side normalized innovations
    energy: np.ndarray          # (K, m)
    truncated_at: Optional[int] = None

    @property
    def horizon(self) -> int:
        return self.innovations.shape[0]

    def step_energy(self) -> np.ndarray:
        """Total transmit energy per step, k = 1..horizon."""
        return self.energy.sum(axis=1)

    def slot_outcomes(self, k: int) -> list[SlotOutcome]:
        """SlotOutcome views for step k (1-based like the slot arrays)."""
        if not 1 <= k <= self.horizon:
            raise IndexError(f"step must lie in 1..{self.horizon}, got {k}")
        row = k - 1
        return [
            SlotOutcome(
                high_power=bool(self.high_power[row, i]),
                arrived=bool(self.arrived[row, i]),
                innovation=float(self.innovations[row, i]),
                energy=float(self.energy[row, i]),
                delivered=bool(self.delivered[row, i]),
            )
            for i in range(self.innovations.shape[1])
        ]


@dataclass
class MonteCarloSummary:
    """Aggregates over independent trials.

    ``mean_P`` averages the filter-reported covariance; ``empirical_cov``
    is the uncentered second moment of the true estimation error, the
    quantity the reported covariance is supposed to track.  ``se_P`` is
    the elementwise standard error of ``mean_P`` and feeds the slack in
    ``bound_check``.
    """

    horizon: int
    trials: int
    master_seed: int
    mean_P: np.ndarray              # (K+1, n, n)
    empirical_cov: np.ndarray       # (K+1, n, n)
    se_P: np.ndarray                # (K+1, n, n)
    mean_energy_per_step: float
    energy_per_step: np.ndarray     # (K,)
    high_power_rate: np.ndarray     # (m,) pooled over steps and trials
    high_rate_per_step: np.ndarray  # (K, m)
    truncated_trials: int = 0


def _trial_noise(seed: int, n: int, m: int, horizon: int):
    rng = np.random.default_rng(seed)
    z0 = rng.standard_normal(n)
    W = rng.standard_normal((horizon, n))
    V = rng.standard_normal((horizon, m))
    U = rng.random((horizon, m))
    return z0, W, V, U


def _run_batch(sys: LinearSystem, cfg: SchedulerConfig, horizon: int,
               seeds: Sequence[int], trace_ceiling: float):
    """Run a batch of closed-loop trials; returns stacked raw arrays."""
    n, m = sys.n, sys.m
    if cfg.m != m:
        raise ValueError(f"scheduler has {cfg.m} thresholds but the system "
                         f"has {m} measurement components")
    N = len(seeds)
    K = horizon
    stats = scheduler_stats(cfg)
    shrink = np.array([s.drop_shrink for s in stats])
    thresholds = cfg.thresholds
    beta = cfg.arrival_prob

    L0 = psd_factor(sys.P0)
    LQ = psd_factor(sys.Q)
    LR = psd_factor(sys.R)

    Z0 = np.empty((N, n))
    W = np.empty((N, K, n))
    V = np.empty((N, K, m))
    U = np.empty((N, K, m))
    for t, seed in enumerate(seeds):
        Z0[t], W[t], V[t], U[t] = _trial_noise(seed, n, m, K)

    w_noise = W @ LQ.T
    v_noise = V @ LR.T

    # e is the estimation error x_true - x_estimate; the slot innovation
    # is c e + v, so the absolute state never has to be formed.
    e = Z0 @ L0.T
    P = np.tile(sys.P0, (N, 1, 1))
    errors = np.empty((N, K + 1, n))
    covs = np.empty((N, K + 1, n, n))
    errors[:, 0] = e
    covs[:, 0] = P
    high = np.empty((N, K, m), dtype=bool)
    arrived = np.empty((N, K, m), dtype=bool)
    innovations = np.empty((N, K, m))

    r_diag = sys.r_diag()
    for k in range(1, K + 1):
        e = np.einsum("ij,tj->ti", sys.A, e) + w_noise[:, k - 1]
        P = _linalg.time_update(P, sys.A, sys.Q)
        for i in range(m):
            c = sys.C[i]
            Pc, s_var = innovation_terms(P, c, r_diag[i])
            z = np.einsum("tj,j->t", e, c) + v_noise[:, k - 1, i]
            eps = z / np.sqrt(s_var)
            gam = np.abs(eps) > thresholds[i]
            arr = U[:, k - 1, i] < beta
            deliv = gam | arr
            P, gain = weighted_update(P, Pc, s_var, np.where(deliv, 1.0, shrink[i]))
            e = e - (deliv * z)[:, None] * gain
            high[:, k - 1, i] = gam
            arrived[:, k - 1, i] = arr
            innovations[:, k - 1, i] = eps
        P = psd_floor(P)
        errors[:, k] = e
        covs[:, k] = P

    delivered = high | arrived
    energy = np.where(high, cfg.energy_high, cfg.energy_low)

    # Truncate trials whose covariance trace passed the ceiling.
    tr = np.einsum("tkii->tk", covs)
    over = tr > trace_ceiling
    truncated_at = np.full(N, -1, dtype=int)
    for t in np.nonzero(over.any(axis=1))[0]:
        k0 = int(np.argmax(over[t]))
        truncated_at[t] = k0
        errors[t, k0:] = np.nan
        covs[t, k0:] = np.nan
        innovations[t, max(k0 - 1, 0):] = np.nan

    return {
        "errors": errors, "covs": covs,
        "high": high, "arrived": arrived, "delivered": delivered,
        "innovations": innovations, "energy": energy,
        "truncated_at": truncated_at,
    }


def simulate_trial(sys: LinearSystem, cfg: SchedulerConfig, horizon: int,
                   seed: int,
                   trace_ceiling: float = DEFAULT_TRACE_CEILING) -> TrialRecord:
    """One closed-loop trial, bit-reproducible from its seed."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    raw = _run_batch(sys, cfg, horizon, [int(seed)], trace_ceiling)
    trunc = int(raw["truncated_at"][0])
    return TrialRecord(
        seed=int(seed),
        errors=raw["errors"][0],
        covariances=raw["covs"][0],
        high_power=raw["high"][0],
        arrived=raw["arrived"][0],
        delivered=raw["delivered"][0],
        innovations=raw["innovations"][0],
        energy=raw["energy"][0],
        truncated_at=None if trunc < 0 else trunc,
    )


def _nanmean_or_nan(arr: np.ndarray) -> float:
    finite = arr[np.isfinite(arr)]
    return float(finite.mean()) if finite.size else math.nan


# Trials per ``_run_batch`` call in ``monte_carlo``.  It is fixed, so the
# summary depends on nothing but the inputs; cache-sized blocks also run
# faster than one batch of every trial.
_BLOCK = 1024


class _Totals:
    """Running per-step aggregates over blocks of trials.

    Within a block, the covariance mean and sum of squared deviations M2
    take two passes; blocks then merge with the pairwise update of Chan,
    Golub & LeVeque (The American Statistician 37(3), 1983), which
    extends Welford's online variance (Technometrics 4(3), 1962):

        delta = mean_b - mean,  mean += delta n_b / n,
        M2 += M2_b + delta^2 n_a n_b / n,   n = n_a + n_b.

    A step counts only the trials still live there (not yet truncated).
    """

    def __init__(self, horizon: int, n: int, m: int):
        K = horizon
        self.count = np.zeros(K + 1, dtype=np.int64)
        self.mean_P = np.zeros((K + 1, n, n))
        self.m2_P = np.zeros((K + 1, n, n))
        self.outer = np.zeros((K + 1, n, n))
        self.energy = np.zeros(K)
        self.high = np.zeros((K, m), dtype=np.int64)
        self.truncated = 0

    def add(self, raw: dict) -> None:
        covs, errors = raw["covs"], raw["errors"]
        trunc = raw["truncated_at"]
        steps = covs.shape[1]
        live = np.arange(steps) < np.where(trunc < 0, steps, trunc)[:, None]
        energy = raw["energy"].sum(axis=2)
        all_live = bool(live.all())
        if not all_live:
            # truncated tails are NaN; zero them so that the sums skip them
            covs = np.where(live[:, :, None, None], covs, 0.0)
            errors = np.where(live[:, :, None], errors, 0.0)
            energy = np.where(live[:, 1:], energy, 0.0)

        n_b = live.sum(axis=0)
        mean_b = covs.sum(axis=0) / np.maximum(n_b, 1)[:, None, None]
        dev = covs - mean_b
        if not all_live:
            dev[~live] = 0.0
        n_ab = self.count + n_b
        w = (n_b / np.maximum(n_ab, 1))[:, None, None]
        delta = mean_b - self.mean_P
        self.mean_P += delta * w
        self.m2_P += (np.einsum("tkij,tkij->kij", dev, dev)
                      + delta * delta * (self.count[:, None, None] * w))
        self.count = n_ab

        self.outer += np.einsum("tki,tkj->kij", errors, errors)
        self.energy += energy.sum(axis=0)
        self.high += (raw["high"] & live[:, 1:, None]).sum(axis=0)
        self.truncated += int(np.count_nonzero(trunc >= 0))

    def summary(self, horizon: int, trials: int,
                master_seed: int) -> MonteCarloSummary:
        # Steps where every trial truncated aggregate to NaN, which is the
        # honest answer there.
        dead = (self.count == 0)[:, None, None]
        n = np.maximum(self.count, 1)[:, None, None]
        slots = np.where(self.count[1:] > 0, self.count[1:], np.nan)
        energy_per_step = self.energy / slots
        return MonteCarloSummary(
            horizon=horizon, trials=trials, master_seed=int(master_seed),
            mean_P=np.where(dead, np.nan, self.mean_P),
            empirical_cov=np.where(dead, np.nan, self.outer / n),
            se_P=np.where(dead, np.nan, np.sqrt(self.m2_P / n) / np.sqrt(n)),
            mean_energy_per_step=_nanmean_or_nan(energy_per_step),
            energy_per_step=energy_per_step,
            high_power_rate=self.high.sum(axis=0) / (self.count[1:].sum() or np.nan),
            high_rate_per_step=self.high / slots[:, None],
            truncated_trials=self.truncated,
        )


def monte_carlo(sys: LinearSystem, cfg: SchedulerConfig, horizon: int,
                trials: int, master_seed: int,
                trace_ceiling: float = DEFAULT_TRACE_CEILING,
                ) -> MonteCarloSummary:
    """Aggregate ``trials`` independent closed-loop runs.

    Trial t equals ``simulate_trial`` at ``derive_trial_seed(master_seed,
    t)``, so the summary is reproducible bit for bit.  Trials run in fixed
    blocks of ``_BLOCK``, in trial order; each block adds to running
    per-step aggregates and is dropped before the next one is built, so
    one block is in memory at a time and peak memory is set by the block
    size, not by the trial count.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")

    seeds = [derive_trial_seed(master_seed, t) for t in range(trials)]
    totals = _Totals(horizon, sys.n, sys.m)
    for lo in range(0, trials, _BLOCK):
        totals.add(_run_batch(sys, cfg, horizon, seeds[lo:lo + _BLOCK],
                              trace_ceiling))
    return totals.summary(horizon, trials, master_seed)


@dataclass
class BoundCheck:
    """Per-step comparison of the averaged covariance against the
    expectation sandwich.

    Step k (1-based) compares mean_P[k] with bounds computed from
    mean_P[k-1]:

        lower:  prod(1 - lam) * (A mean_P[k-1] A' + Q)
        upper:  riccati_map(mean_P[k-1])

    Violations are measured as the most negative eigenvalue beyond a
    slack of ``_SLACK_SIGMAS`` standard errors (scalar inflation of the
    identity); positive magnitudes flag the step.
    """

    lower_trace: np.ndarray      # (K,) trace of the lower bound for step k
    upper_trace: np.ndarray      # (K,)
    lower_violation: np.ndarray  # (K,) max(0, -(min eig beyond slack))
    upper_violation: np.ndarray  # (K,)
    flagged: np.ndarray          # (K,) bool
    slack: np.ndarray            # (K,) scalar slack applied at each step

    @property
    def flagged_fraction(self) -> float:
        if self.flagged.size == 0:
            return 0.0
        return float(np.mean(self.flagged))


# Standard errors of mean_P that bound_check allows before flagging a step.
_SLACK_SIGMAS = 5.0


def bound_check(summary: MonteCarloSummary, problem: MareProblem) -> BoundCheck:
    """Check the expectation sandwich on the averaged reported covariance.

    The lower bound keeps the process noise inside the product with the
    shrink factor: taking expectations of the per-slot update gives
    E[P_{k+1}] >= prod(1 - lam) (A E[P_k] A' + Q), and Jensen on the
    concave composite map gives E[P_{k+1}] <= riccati_map(E[P_k]).
    """
    sysm = problem.system
    shrink_prod = float(np.prod(1.0 - problem.info_rates))
    K = summary.horizon
    n = sysm.n
    eye = np.eye(n)

    lower_trace = np.empty(K)
    upper_trace = np.empty(K)
    lower_violation = np.zeros(K)
    upper_violation = np.zeros(K)
    slack_arr = np.empty(K)
    flagged = np.zeros(K, dtype=bool)

    for k in range(1, K + 1):
        prev = summary.mean_P[k - 1]
        cur = summary.mean_P[k]
        if np.any(np.isnan(prev)) or np.any(np.isnan(cur)):
            lower_trace[k - 1] = np.nan
            upper_trace[k - 1] = np.nan
            slack_arr[k - 1] = np.nan
            flagged[k - 1] = True
            continue
        lower = shrink_prod * time_update(prev, sysm)
        upper = riccati_map(prev, problem)
        lower_trace[k - 1] = float(np.trace(lower))
        upper_trace[k - 1] = float(np.trace(upper))
        # The epsilon term keeps deterministic configurations (every slot
        # delivered) from flagging on pure round-off, where the standard
        # error is identically zero.
        slack = (_SLACK_SIGMAS * float(np.max(summary.se_P[k]))
                 + 1e-12 * (1.0 + abs(float(np.trace(cur)))))
        slack_arr[k - 1] = slack
        lo_eig = float(np.linalg.eigvalsh(sym(cur - lower))[0])
        up_eig = float(np.linalg.eigvalsh(sym(upper - cur))[0])
        lower_violation[k - 1] = max(0.0, -(lo_eig + slack))
        upper_violation[k - 1] = max(0.0, -(up_eig + slack))
        flagged[k - 1] = (lower_violation[k - 1] > 0.0
                          or upper_violation[k - 1] > 0.0)

    return BoundCheck(lower_trace=lower_trace, upper_trace=upper_trace,
                      lower_violation=lower_violation,
                      upper_violation=upper_violation,
                      flagged=flagged, slack=slack_arr)


def write_summary_csv(summary: MonteCarloSummary, problem: MareProblem,
                      path) -> None:
    """One row per step k = 0..horizon.

    Columns: k, trace_mean_P, trace_empirical_cov, lower_bound_trace,
    upper_bound_trace, energy_mean, high_rate_1..m.  Bounds, energy and
    rates describe the transition into step k, so row 0 leaves them NaN.
    """
    m = summary.high_power_rate.size
    check = bound_check(summary, problem)
    header = ["k", "trace_mean_P", "trace_empirical_cov", "lower_bound_trace",
              "upper_bound_trace", "energy_mean"]
    header += [f"high_rate_{i + 1}" for i in range(m)]

    def fmt(v: float) -> str:
        return repr(float(v))

    lines = [",".join(header)]
    for k in range(summary.horizon + 1):
        row = [str(k),
               fmt(np.trace(summary.mean_P[k])),
               fmt(np.trace(summary.empirical_cov[k]))]
        if k == 0:
            row += [fmt(np.nan)] * (3 + m)
        else:
            row += [fmt(check.lower_trace[k - 1]),
                    fmt(check.upper_trace[k - 1]),
                    fmt(summary.energy_per_step[k - 1])]
            row += [fmt(summary.high_rate_per_step[k - 1, i]) for i in range(m)]
        lines.append(",".join(row))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def summary_json_dict(summary: MonteCarloSummary) -> dict:
    """Full-matrix JSON form of a summary (CSV keeps only traces)."""
    return {
        "horizon": summary.horizon,
        "trials": summary.trials,
        "master_seed": summary.master_seed,
        "mean_P": summary.mean_P.tolist(),
        "empirical_cov": summary.empirical_cov.tolist(),
        "mean_energy_per_step": summary.mean_energy_per_step,
        "energy_per_step": summary.energy_per_step.tolist(),
        "high_power_rate": summary.high_power_rate.tolist(),
        "truncated_trials": summary.truncated_trials,
    }
