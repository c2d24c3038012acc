"""Closed-loop simulation and Monte Carlo aggregation.

One trial couples the true plant, the sensor-side scheduler, the lossy
channel, and the remote estimator for a fixed horizon.  Trials are
vectorized: ``_run_batch`` steps a block of trials with batched array
operations and yields each step's state of the trials still live there
(it retires a trial where it truncates), and ``monte_carlo`` runs fixed
blocks of ``_BLOCK`` trials, folding every step into running per-step
aggregates as it comes.  Only a block's noise has a horizon axis, which
keeps tens of thousands of trials affordable in time and memory while
preserving per-trial reproducibility.

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
trial t of a run with master seed s consumes numpy's
``default_rng(derive_trial_seed(s, t))`` stream, in this order,

    1. n standard normals            -> initial error (x0 - x0_mean)
    2. (horizon, n) standard normals -> process noise
    3. (horizon, m) standard normals -> measurement noise
    4. (horizon, m) uniforms         -> low-power arrival draws

Arrival uniforms are drawn for every slot and simply ignored on
high-power slots, so the stream position never depends on scheduler
decisions.  The arrival bits U < beta are computed once per block.
``_run_batch`` builds each row's generator with ``default_rng``, as the
protocol reads.  ``monte_carlo`` hands it seeds already hashed: a block's
trial indices go to trial seeds, and those to PCG64's seed words, each in
one vectorized ``SeedSequence`` call (``channel._trial_seeds``,
``channel._hashed_seeds``).  ``simulate_trial`` hands it its int seed and
stacks the steps of the same engine with a batch of one.
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
from .channel import (SchedulerConfig, SlotOutcome, _hashed_seeds, _trial_seeds,
                      scheduler_stats)
from .mare import MareProblem, _past_ceiling, riccati_map, time_update
from .model import LinearSystem, is_diagonal

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
    ``truncated_at`` is the first step whose covariance trace is past the
    ceiling or not finite, where the engine retired the trial (None if
    it never did).  ``errors`` and ``covariances`` are NaN from step
    ``truncated_at`` on; from slot row ``max(truncated_at - 1, 0)`` on,
    ``innovations`` and ``energy`` are NaN, so ``step_energy()`` and an
    energy ledger over the record are NaN there, and ``high_power``,
    ``arrived`` and ``delivered`` are False.  ``monte_carlo`` counts none
    of those slots either.
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


def _run_batch(sys: LinearSystem, cfg: SchedulerConfig, horizon: int,
               seeds: Sequence):
    """Run a batch of closed-loop trials one step at a time.

    ``seeds`` are the trials' seeds, each taken by ``np.random.default_rng``
    as it is: an int, or a ``channel._HashedSeed``.  Yields
    ``(k, e, P, high, arrived, eps)`` for k = 0..horizon: the errors
    (N_k, n) and covariances (N_k, n, n) of the N_k trials live after
    step k, in trial order, and the step's power decisions, arrival bits
    and normalized innovations, each (N_k, m) and None at k = 0.  Nothing
    yielded has a horizon axis; only the block's noise does, and each raw
    draw is freed once transformed.

    A trial is truncated here and nowhere else: at the first step whose
    covariance trace is past the ceiling (``mare._past_ceiling``), its
    row leaves the state, the step's slot arrays and the noise, and is
    not stepped again.  The generator returns once no row is live.
    """
    n, m = sys.n, sys.m
    if cfg.m != m:
        raise ValueError(f"scheduler has {cfg.m} thresholds but the system "
                         f"has {m} measurement components")
    # The slot updates read only diag(R); a full R would be misfiltered.
    if not is_diagonal(sys.R):
        raise ValueError("R must be diagonal; whiten the system first")
    N = len(seeds)
    K = horizon
    # Every row starts at P0, so at step 0 the rows retire together.
    if _past_ceiling(np.einsum("ii", sys.P0)):
        return
    stats = scheduler_stats(cfg)
    shrink = np.array([s.drop_shrink for s in stats])
    thresholds = cfg.thresholds

    L0 = psd_factor(sys.P0)
    LQ = psd_factor(sys.Q)
    LR = psd_factor(sys.R)

    Z0 = np.empty((N, n))
    W = np.empty((N, K, n))
    V = np.empty((N, K, m))
    U = np.empty((N, K, m))
    for t, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        rng.standard_normal(out=Z0[t])
        rng.standard_normal(out=W[t])
        rng.standard_normal(out=V[t])
        rng.random(out=U[t])

    # Stacked matmul and einsum compute every row as it would be alone;
    # a 2-D product over the rows would not.
    w_noise = W @ LQ.T
    del W
    v_noise = V @ LR.T
    del V
    arrived = U < cfg.arrival_prob
    del U

    # e is the estimation error x_true - x_estimate; the slot innovation
    # is c e + v, so the absolute state never has to be formed.
    e = np.einsum("ij,tj->ti", L0, Z0)
    P = np.tile(sys.P0, (N, 1, 1))
    yield 0, e, P, None, None, None

    r_diag = sys.r_diag()
    for k in range(1, K + 1):
        e = np.einsum("ij,tj->ti", sys.A, e) + w_noise[:, k - 1]
        P = _linalg.time_update(P, sys.A, sys.Q)
        arr = arrived[:, k - 1]
        high = np.empty((len(e), m), dtype=bool)
        eps = np.empty((len(e), m))
        for i in range(m):
            c = sys.C[i]
            Pc, s_var = innovation_terms(P, c, r_diag[i])
            z = np.einsum("tj,j->t", e, c) + v_noise[:, k - 1, i]
            eps[:, i] = z / np.sqrt(s_var)
            high[:, i] = np.abs(eps[:, i]) > thresholds[i]
            deliv = high[:, i] | arr[:, i]
            P, gain = weighted_update(P, Pc, s_var, np.where(deliv, 1.0, shrink[i]))
            e = e - (deliv * z)[:, None] * gain
        P = psd_floor(P)
        over = _past_ceiling(np.einsum("tii->t", P))
        if over.any():
            if over.all():
                return
            keep = ~over
            e, P, high, arr, eps = e[keep], P[keep], high[keep], arr[keep], eps[keep]
            w_noise, v_noise, arrived = w_noise[keep], v_noise[keep], arrived[keep]
        yield k, e, P, high, arr, eps


def simulate_trial(sys: LinearSystem, cfg: SchedulerConfig, horizon: int,
                   seed: int) -> TrialRecord:
    """One closed-loop trial, bit-reproducible from its seed: the steps of
    ``_run_batch`` on a batch of one, truncated if they end early."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    n, m, K = sys.n, sys.m, horizon
    errors = np.full((K + 1, n), np.nan)
    covs = np.full((K + 1, n, n), np.nan)
    high = np.zeros((K, m), dtype=bool)
    arrived = np.zeros((K, m), dtype=bool)
    innovations = np.full((K, m), np.nan)
    k = -1  # the last step yielded
    for k, e, P, hi, arr, eps in _run_batch(sys, cfg, K, [int(seed)]):
        errors[k] = e[0]
        covs[k] = P[0]
        if k:
            high[k - 1] = hi[0]
            arrived[k - 1] = arr[0]
            innovations[k - 1] = eps[0]
    energy = np.where(high, cfg.energy_high, cfg.energy_low)
    energy[max(k, 0):] = np.nan
    return TrialRecord(
        seed=int(seed),
        errors=errors,
        covariances=covs,
        high_power=high,
        arrived=arrived,
        delivered=high | arrived,
        innovations=innovations,
        energy=energy,
        truncated_at=k + 1 if k < K else None,
    )


def _nanmean_or_nan(arr: np.ndarray) -> float:
    finite = arr[np.isfinite(arr)]
    return float(finite.mean()) if finite.size else math.nan


# Trials per ``_run_batch`` call in ``monte_carlo``.  It is fixed, so the
# summary depends on nothing but the inputs; cache-sized blocks also run
# faster than one batch of every trial.
_BLOCK = 1024


class _Totals:
    """Running per-step aggregates, folded in one step of one block at a
    time.

    At each step the covariance mean and sum of squared deviations M2 of
    the block's live rows take two passes; they then merge into the
    running ones with the pairwise update of Chan, Golub & LeVeque (The
    American Statistician 37(3), 1983), which extends Welford's online
    variance (Technometrics 4(3), 1962):

        delta = mean_b - mean,  mean += delta n_b / n,
        M2 += M2_b + delta^2 n_a n_b / n,   n = n_a + n_b.

    ``_run_batch`` yields only the rows live at a step, so ``count[k]``
    is the number of trials live at step k.
    """

    def __init__(self, horizon: int, n: int, m: int):
        K = horizon
        self.count = np.zeros(K + 1, dtype=np.int64)
        self.mean_P = np.zeros((K + 1, n, n))
        self.m2_P = np.zeros((K + 1, n, n))
        self.outer = np.zeros((K + 1, n, n))
        self.high = np.zeros((K, m), dtype=np.int64)

    def fold(self, k: int, e: np.ndarray, P: np.ndarray, high) -> None:
        """Fold in step k of one ``_run_batch`` block."""
        n_b = P.shape[0]
        mean_b = P.sum(axis=0) / n_b
        dev = P - mean_b
        n_a = self.count[k]
        n_ab = n_a + n_b
        w = n_b / n_ab
        delta = mean_b - self.mean_P[k]
        self.mean_P[k] += delta * w
        self.m2_P[k] += (np.einsum("tij,tij->ij", dev, dev)
                         + delta * delta * (n_a * w))
        self.count[k] = n_ab
        self.outer[k] += np.einsum("ti,tj->ij", e, e)
        if k:
            self.high[k - 1] += high.sum(axis=0)

    def summary(self, cfg: SchedulerConfig, horizon: int, trials: int,
                master_seed: int) -> MonteCarloSummary:
        # Steps where every trial truncated aggregate to NaN, which is the
        # honest answer there.
        dead = (self.count == 0)[:, None, None]
        n = np.maximum(self.count, 1)[:, None, None]
        slots = np.where(self.count[1:] > 0, self.count[1:], np.nan)
        # each live row spends one slot per component at each step, so the
        # step's energy follows from the integer counts of the two levels
        high = self.high.sum(axis=1)
        low = self.high.shape[1] * self.count[1:] - high
        energy_per_step = (cfg.energy_high * high
                           + cfg.energy_low * low) / slots
        return MonteCarloSummary(
            horizon=horizon, trials=trials, master_seed=int(master_seed),
            mean_P=np.where(dead, np.nan, self.mean_P),
            empirical_cov=np.where(dead, np.nan, self.outer / n),
            se_P=np.where(dead, np.nan, np.sqrt(self.m2_P / n) / np.sqrt(n)),
            mean_energy_per_step=_nanmean_or_nan(energy_per_step),
            energy_per_step=energy_per_step,
            high_power_rate=self.high.sum(axis=0) / (self.count[1:].sum() or np.nan),
            high_rate_per_step=self.high / slots[:, None],
            truncated_trials=trials - int(self.count[horizon]),
        )


def monte_carlo(sys: LinearSystem, cfg: SchedulerConfig, horizon: int,
                trials: int, master_seed: int) -> MonteCarloSummary:
    """Aggregate ``trials`` independent closed-loop runs.

    Trial t equals ``simulate_trial`` at ``derive_trial_seed(master_seed,
    t)``, so the summary is reproducible bit for bit, and a trial stops
    counting where ``_run_batch`` retires it.  Trials run in fixed
    blocks of ``_BLOCK``, in trial order; each block derives its own trial
    seeds from its index range as it starts, and each step of a block
    folds into running per-step aggregates as soon as it is computed.
    Only the block's seeds and noise and one step of its state are ever
    in memory, so peak memory is set by the block size, not by the trial
    count or by a trials x horizon array of results.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")

    totals = _Totals(horizon, sys.n, sys.m)
    for lo in range(0, trials, _BLOCK):
        seeds = _hashed_seeds(_trial_seeds(master_seed, lo, min(lo + _BLOCK, trials)))
        for k, e, P, high, _, _ in _run_batch(sys, cfg, horizon, seeds):
            totals.fold(k, e, P, high)
        # Let the block's last step go before the next block draws noise.
        e = P = high = None
    return totals.summary(cfg, horizon, trials, master_seed)


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
    shrink_prod = float(np.prod(1.0 - problem.info_rates))
    K = summary.horizon
    lower_trace = np.full(K, np.nan)
    upper_trace = np.full(K, np.nan)
    lower_violation = np.zeros(K)
    upper_violation = np.zeros(K)
    slack_arr = np.full(K, np.nan)
    flagged = np.ones(K, dtype=bool)

    # A step with a NaN at either end (every trial truncated) keeps NaN
    # traces and slack and no violation, and is flagged.
    nan_P = np.isnan(summary.mean_P).any(axis=(1, 2))
    ok = np.flatnonzero(~(nan_P[:-1] | nan_P[1:]))
    prev = summary.mean_P[ok]
    cur = summary.mean_P[ok + 1]
    lower = shrink_prod * time_update(prev, problem.system)
    upper = riccati_map(prev, problem)
    lower_trace[ok] = np.trace(lower, axis1=1, axis2=2)
    upper_trace[ok] = np.trace(upper, axis1=1, axis2=2)
    # The epsilon term keeps deterministic configurations (every slot
    # delivered) from flagging on pure round-off, where the standard
    # error is identically zero.
    slack = (_SLACK_SIGMAS * summary.se_P[ok + 1].max(axis=(1, 2))
             + 1e-12 * (1.0 + np.abs(np.trace(cur, axis1=1, axis2=2))))
    slack_arr[ok] = slack
    eigs = np.linalg.eigvalsh(sym(np.concatenate((cur - lower, upper - cur))))
    lo_eig, up_eig = np.split(eigs[:, 0], 2)
    lower_violation[ok] = np.maximum(0.0, -(lo_eig + slack))
    upper_violation[ok] = np.maximum(0.0, -(up_eig + slack))
    flagged[ok] = (lower_violation[ok] > 0.0) | (upper_violation[ok] > 0.0)

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
