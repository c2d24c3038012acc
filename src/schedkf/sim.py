"""Closed-loop simulation and Monte Carlo aggregation.

One trial couples the true plant, the sensor-side scheduler, the lossy
channel, and the remote estimator for a fixed horizon.  Trials are
vectorized: ``monte_carlo`` runs every trial simultaneously with batched
array operations, which keeps tens of thousands of trials affordable
while preserving per-trial reproducibility.

The loop is integrated in error coordinates e = x_true - x_estimate.
Innovations, scheduler decisions, gains, and covariances are all exact
functions of e and the noises, so nothing is lost; what is gained is
numerical survival on unstable plants, where the absolute state outgrows
double precision long before the error statistics do (for |A| ~ 1.2 the
measurement noise drops below the ulp of the state near step 190).

Every slot update ends in ``_linalg.psd_floor``, the same PSD guard the
scalar filter's ``update_component`` applies.  One batched Cholesky
certifies the whole stack in the common case; the eigenvalue repair runs
only when that factorization fails, and it touches only the rows whose
smallest eigenvalue is round-off negative.

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
and trial seeds derive from ``derive_trial_seed(master_seed, index)``,
so worker chunking cannot change any result.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ._linalg import psd_factor, psd_floor, sym
from .channel import SchedulerConfig, SlotOutcome, derive_trial_seed, scheduler_stats
from .mare import DEFAULT_TRACE_CEILING, MareProblem, riccati_map, time_update
from .model import LinearSystem

__all__ = [
    "TrialRecord", "MonteCarloSummary", "BoundCheck",
    "simulate_trial", "monte_carlo", "bound_check",
    "write_summary_csv", "summary_json_dict",
]

WORKERS_ENV_VAR = "SCHEDKF_WORKERS"


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
    records: Optional[list] = field(default=None, repr=False)


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
        P = np.einsum("ij,tjk->tik", sys.A, P)
        P = np.einsum("tik,jk->tij", P, sys.A) + sys.Q
        P = sym(P)
        for i in range(m):
            c = sys.C[i]
            Pc = np.einsum("tjk,k->tj", P, c)
            s_var = np.einsum("tj,j->t", Pc, c) + r_diag[i]
            sigma = np.sqrt(s_var)
            z = np.einsum("tj,j->t", e, c) + v_noise[:, k - 1, i]
            eps = z / sigma
            gam = np.abs(eps) > thresholds[i]
            arr = U[:, k - 1, i] < beta
            deliv = gam | arr
            t_fac = np.where(deliv, 1.0, shrink[i])
            gain = Pc / s_var[:, None]
            e = e - (deliv * z)[:, None] * gain
            P = P - t_fac[:, None, None] * (gain[:, :, None] * Pc[:, None, :])
            P = psd_floor(P)
            high[:, k - 1, i] = gam
            arrived[:, k - 1, i] = arr
            innovations[:, k - 1, i] = eps
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


def _make_record(raw: dict, t: int, seed: int) -> TrialRecord:
    trunc = int(raw["truncated_at"][t])
    return TrialRecord(
        seed=seed,
        errors=raw["errors"][t],
        covariances=raw["covs"][t],
        high_power=raw["high"][t],
        arrived=raw["arrived"][t],
        delivered=raw["delivered"][t],
        innovations=raw["innovations"][t],
        energy=raw["energy"][t],
        truncated_at=None if trunc < 0 else trunc,
    )


def simulate_trial(sys: LinearSystem, cfg: SchedulerConfig, horizon: int,
                   seed: int,
                   trace_ceiling: float = DEFAULT_TRACE_CEILING) -> TrialRecord:
    """One closed-loop trial, bit-reproducible from its seed."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    raw = _run_batch(sys, cfg, horizon, [int(seed)], trace_ceiling)
    return _make_record(raw, 0, int(seed))


def _nanmean_or_nan(arr: np.ndarray) -> float:
    finite = arr[np.isfinite(arr)]
    return float(finite.mean()) if finite.size else math.nan


def _worker_chunks(n_trials: int) -> int:
    workers = os.environ.get(WORKERS_ENV_VAR)
    if not workers:
        return 1
    try:
        count = max(1, int(workers))
    except ValueError:
        return 1
    return min(count, n_trials)


def monte_carlo(sys: LinearSystem, cfg: SchedulerConfig, horizon: int,
                trials: int, master_seed: int,
                trace_ceiling: float = DEFAULT_TRACE_CEILING,
                keep_trials: bool = False) -> MonteCarloSummary:
    """Aggregate ``trials`` independent closed-loop runs.

    Per-trial seeds are derived from the master seed, so the summary is
    reproducible bit for bit.  The SCHEDKF_WORKERS environment variable
    only splits the batch into chunks that run one after another; every
    per-trial computation is row-local, so the worker count cannot
    change any number in the summary.  The chunks' arrays are
    concatenated before aggregation, so chunking does not lower peak
    memory (it raises it by the copy).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")

    seeds = [derive_trial_seed(master_seed, t) for t in range(trials)]
    chunks = _worker_chunks(trials)
    if chunks == 1:
        raw = _run_batch(sys, cfg, horizon, seeds, trace_ceiling)
    else:
        size = math.ceil(trials / chunks)
        parts = [_run_batch(sys, cfg, horizon, seeds[lo:lo + size], trace_ceiling)
                 for lo in range(0, trials, size)]
        raw = {key: np.concatenate([p[key] for p in parts]) for key in parts[0]}

    errors = raw["errors"]
    covs = raw["covs"]
    # Truncated trials leave NaN tails; steps where every trial truncated
    # aggregate to NaN, which is the honest answer there.
    with np.errstate(invalid="ignore"), warnings.catch_warnings():
        warnings.filterwarnings("ignore", "Mean of empty slice")
        warnings.filterwarnings("ignore", "Degrees of freedom")
        mean_P = np.nanmean(covs, axis=0)
        std_P = np.nanstd(covs, axis=0, ddof=0)
        counts = np.sum(~np.isnan(covs[:, :, 0, 0]), axis=0)
        se_P = std_P / np.sqrt(np.maximum(counts, 1))[:, None, None]

        outer = errors[:, :, :, None] * errors[:, :, None, :]
        empirical_cov = np.nanmean(outer, axis=0)

        valid = ~np.isnan(errors[:, 1:, 0])
        energy_steps = raw["energy"].sum(axis=2)
        energy_per_step = np.where(valid, energy_steps, np.nan)
        energy_per_step = np.nanmean(energy_per_step, axis=0)
        high = raw["high"].astype(float)
        high = np.where(valid[:, :, None], high, np.nan)
        high_rate_per_step = np.nanmean(high, axis=0)
        high_power_rate = np.nanmean(high, axis=(0, 1))

    truncated = int(np.sum(raw["truncated_at"] >= 0))
    records = None
    if keep_trials:
        records = [_make_record(raw, t, seeds[t]) for t in range(trials)]

    return MonteCarloSummary(
        horizon=horizon, trials=trials, master_seed=int(master_seed),
        mean_P=mean_P, empirical_cov=empirical_cov, se_P=se_P,
        mean_energy_per_step=float(_nanmean_or_nan(energy_per_step)),
        energy_per_step=energy_per_step,
        high_power_rate=high_power_rate,
        high_rate_per_step=high_rate_per_step,
        truncated_trials=truncated,
        records=records,
    )


@dataclass
class BoundCheck:
    """Per-step comparison of the averaged covariance against the
    expectation sandwich.

    Step k (1-based) compares mean_P[k] with bounds computed from
    mean_P[k-1]:

        lower:  prod(1 - lam) * (A mean_P[k-1] A' + Q)
        upper:  riccati_map(mean_P[k-1])

    Violations are measured as the most negative eigenvalue beyond a
    slack of ``slack_sigmas`` standard errors (scalar inflation of the
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


def bound_check(summary: MonteCarloSummary, problem: MareProblem,
                slack_sigmas: float = 5.0) -> BoundCheck:
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
        slack = (slack_sigmas * float(np.max(summary.se_P[k]))
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
