"""Closed-loop simulation and Monte Carlo aggregation.

One trial couples the true plant, the sensor-side scheduler, the lossy
channel, and the remote estimator for a fixed horizon.  Trials are
vectorized: ``_run_batch`` steps a batch of trials with batched array
operations and yields each step's state of the trials still live there
(it retires a trial where it truncates), and ``monte_carlo`` runs fixed
blocks of ``_BLOCK`` trials on every usable core (``_run_blocks``: this
process runs its share, and forked children send theirs back over
pipes).  The processes own near-equal shares of the blocks and step
them in aligned rounds, at most ``_BATCH`` blocks to a batch
(``_batches``).  Each step of a batch is reduced into every block's own
``_Totals`` at once as it comes, each block hands its ``_Totals`` back,
and the blocks' ``_Totals`` merge in block order.  Only a batch's noise
has a
horizon axis, which keeps tens of thousands of trials affordable in
time and memory while preserving per-trial reproducibility.  The noise
is drawn ``_CHUNK`` trials at a time straight into its step-major
(``w_noise[k]``) and slot-major (``v_noise[k, i]``, ``arrived[k, i]``)
layout, and a step's decisions and innovations are kept slot-major too,
so every per-step and per-slot slice the loop and the aggregation read
is contiguous.

The loop is integrated in error coordinates e = x_true - x_estimate.
Innovations, scheduler decisions, gains, and covariances are all exact
functions of e and the noises, so nothing is lost; what is gained is
numerical survival on unstable plants, where the absolute state outgrows
double precision long before the error statistics do (for |A| ~ 1.2 the
measurement noise drops below the ulp of the state near step 190).

Time and slot updates are ``_linalg.time_update`` and
``_linalg.weighted_update``, as in the scalar filter.
The PSD guard ``_linalg.psd_floor`` runs at most once per step, on the
stored covariance, as in ``filter.step``: one batched Cholesky certifies
the stack, and the eigenvalue repair touches only round-off negative
rows.  With Q > 0 every stored covariance is at least the all-delivered
posterior (Q^-1 + sum_i c_i c_i'/r_i)^-1 > 0, whatever was delivered, so
the guard runs only on the steps after some live row's stored trace has
passed the bound, decided once per system, below which round-off cannot
reach that margin (``_linalg.guard_idle_trace``); a singular Q gives no
bound and the guard runs at every step.

Randomness protocol (frozen; reordering it breaks reproducibility):
trial t of a run with master seed s consumes numpy's
``default_rng(derive_trial_seed(s, t))`` stream, in this order,

    1. n standard normals            -> initial error (x0 - x0_mean)
    2. (horizon, n) standard normals -> process noise
    3. (horizon, m) standard normals -> measurement noise
    4. (horizon, m) uniforms         -> low-power arrival draws

Arrival uniforms are drawn for every slot and simply ignored on
high-power slots, so the stream position never depends on scheduler
decisions.  Draws 1-3 are consecutive normals, taken by one
``standard_normal`` call per trial: numpy's normal sampler keeps no
state between calls, so that call gives the stream three calls would.
The arrival bits U < beta are computed once per chunk of trials.
``_run_batch`` builds each row's generator with ``default_rng``, as the
protocol reads.  ``monte_carlo`` hands it seeds already hashed: a block's
trial indices go to trial seeds, and those to PCG64's seed words, each in
one vectorized ``SeedSequence`` call (``channel._trial_seeds``,
``channel._hashed_seeds``).  ``simulate_trial`` hands it its int seed and
stacks the steps of the same engine with a batch of one.
Every row of a batch is computed as it would be alone, the block size
is a constant, a block's ``_Totals`` do not depend on the block it was
batched with, and blocks merge in block order wherever they ran, so the
summary depends only on the config and the master seed, not on the core
count.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import operator
import os
import pickle
import signal
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import _linalg
from ._linalg import innovation_terms, psd_factor, psd_floor, sym, weighted_update
from .channel import (SchedulerConfig, SlotOutcome, _hashed_seeds, _trial_seeds,
                      scheduler_stats)
from .mare import MareProblem, _past_ceiling, riccati_map, time_update
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
    innovations: np.ndarray     # (K, m) sensor-side normalized innovations
    energy: np.ndarray          # (K, m)
    truncated_at: Optional[int] = None

    @property
    def horizon(self) -> int:
        return self.innovations.shape[0]

    @property
    def delivered(self) -> np.ndarray:
        """(K, m) bool: the slots the estimator received, high_power | arrived."""
        return self.high_power | self.arrived

    def step_energy(self) -> np.ndarray:
        """Total transmit energy per step, k = 1..horizon."""
        return self.energy.sum(axis=1)

    def slot_outcomes(self, k: int) -> list[SlotOutcome]:
        """SlotOutcome views for step k (1-based like the slot arrays)."""
        if not 1 <= k <= self.horizon:
            raise IndexError(f"step must lie in 1..{self.horizon}, got {k}")
        row = k - 1
        # one row's bits: ``delivered`` would OR the trial's whole arrays
        rows = (self.high_power[row].tolist(), self.arrived[row].tolist(),
                self.innovations[row].tolist(), self.energy[row].tolist())
        return [SlotOutcome(high_power=high, arrived=arrived, innovation=innovation,
                            energy=energy, delivered=high or arrived)
                for high, arrived, innovation, energy in zip(*rows)]


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


# Trials ``_run_batch`` draws and transforms at a time: small buffers, so
# that a batch's noise is allocated once, in its step-major layout.
_CHUNK = 64


def _run_batch(sys: LinearSystem, cfg: SchedulerConfig, horizon: int,
               seeds: Sequence):
    """Run a batch of closed-loop trials one step at a time.

    ``seeds`` are the trials' seeds, each taken by ``np.random.default_rng``
    as it is: an int, or a ``channel._HashedSeed``.  Yields
    ``(k, e, P, high, arrived, eps, live)`` for k = 0..horizon: the errors
    (N_k, n) and covariances (N_k, n, n) of the N_k trials live after
    step k, in trial order, the step's power decisions, arrival bits
    and normalized innovations, each (N_k, m) and None at k = 0, and the
    live trials' positions in ``seeds``, ascending.  The slot arrays are
    transposed views of slot-major (m, N_k) arrays that are never written
    after they are yielded.  Nothing yielded has a horizon axis; only the
    batch's noise does, drawn ``_CHUNK`` trials at a time into small
    buffers and written from there straight into its step-major layout.

    A trial is truncated here and nowhere else: at the first step whose
    covariance trace is past the ceiling (``mare._past_ceiling``), its
    row leaves the state, the step's slot arrays and ``live``, and is
    not stepped again; once a row has left, each step gathers its noise
    through ``live``, so no noise value is copied more than once.  The
    generator returns once no row is live.

    The PSD guard runs on step k only if some live row has had a stored
    trace, at a step before k, that is not <= ``sys``'s idle bound (NaN
    and inf are not).  Below the bound, Q > 0 keeps the next stored
    covariance above the all-delivered posterior with a margin round-off
    cannot close, so the guard would return it bit for bit; a row stays
    guarded once it has passed the bound, since the induction needs every
    earlier stored covariance proved PSD.  The guard leaves proved rows
    alone, so a row is the same in any batch.
    """
    n, m = sys.n, sys.m
    if cfg.m != m:
        raise ValueError(f"scheduler has {cfg.m} thresholds but the system "
                         f"has {m} measurement components")
    r_diag = sys.r_diag()
    N = len(seeds)
    K = horizon
    # Every row starts at P0, so at step 0 the rows retire together.
    trace0 = np.einsum("ii", sys.P0)
    if _past_ceiling(trace0):
        return
    stats = scheduler_stats(cfg)
    shrink = np.array([s.drop_shrink for s in stats])
    thresholds = cfg.thresholds

    L0 = psd_factor(sys.P0)
    LQ = psd_factor(sys.Q)
    LR = psd_factor(sys.R)

    # Stacked matmul and einsum compute every row as it would be alone;
    # a 2-D product over the rows would not.  So the noise is drawn and
    # transformed ``_CHUNK`` trials at a time, each chunk written straight
    # into the step- and slot-major layout.
    # e is the estimation error x_true - x_estimate; the slot innovation
    # is c e + v, so the absolute state never has to be formed.
    e = np.empty((N, n))
    w_noise = np.empty((K, N, n))
    v_noise = np.empty((K, m, N))
    arrived = np.empty((K, m, N), dtype=bool)
    # Draws 1-3 of the protocol are consecutive normals: one call takes them.
    G = np.empty((min(_CHUNK, N), n + K * (n + m)))
    U = np.empty((len(G), K, m))
    for lo in range(0, N, _CHUNK):
        g, u = G[:N - lo], U[:N - lo]
        hi = lo + len(g)
        for row, seed in enumerate(seeds[lo:hi]):
            rng = np.random.default_rng(seed)
            rng.standard_normal(out=g[row])
            rng.random(out=u[row])
        np.less(u.transpose(1, 2, 0), cfg.arrival_prob, out=arrived[:, :, lo:hi])
        e[lo:hi] = np.einsum("ij,tj->ti", L0, g[:, :n])
        w_noise[:, lo:hi] = (g[:, n:n + K * n].reshape(-1, K, n) @ LQ.T).transpose(1, 0, 2)
        v_noise[:, :, lo:hi] = (g[:, n + K * n:].reshape(-1, K, m) @ LR.T).transpose(1, 2, 0)

    P = np.tile(sys.P0, (N, 1, 1))
    # A row needs the PSD guard from the first step after a stored trace
    # of its own was not <= the system's idle bound (NaN and inf are not).
    idle_trace = sys._guard_idle_trace
    guarded = np.full(N, not trace0 <= idle_trace)
    live = np.arange(N)
    yield 0, e, P, None, None, None, live

    for k in range(1, K + 1):
        # A row that overflows is past the ceiling and retires, so it needs
        # no warning; a ``with`` around the yield would silence the caller.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            w, v, arr = w_noise[k - 1], v_noise[k - 1], arrived[k - 1]
            if len(live) < N:
                # each noise value is copied at most once, at its own step
                w, v, arr = w[live], v[:, live], arr[:, live]
            e = np.einsum("ij,tj->ti", sys.A, e) + w
            P = _linalg.time_update(P, sys.A, sys.Q)
            high = np.empty((m, len(e)), dtype=bool)
            eps = np.empty((m, len(e)))
            for i in range(m):
                c = sys.C[i]
                Pc, s_var = innovation_terms(P, c, r_diag[i])
                z = np.einsum("tj,j->t", e, c) + v[i]
                eps[i] = z / np.sqrt(s_var)
                high[i] = np.abs(eps[i]) > thresholds[i]
                deliv = high[i] | arr[i]
                P, gain = weighted_update(P, Pc, s_var, np.where(deliv, 1.0, shrink[i]))
                e = e - (deliv * z)[:, None] * gain
            if guarded.any():
                P = psd_floor(P)
            trace = np.einsum("tii->t", P)
            over = _past_ceiling(trace)
            guarded |= ~(trace <= idle_trace)
        if over.any():
            if over.all():
                return
            keep = ~over
            e, P, guarded, live = e[keep], P[keep], guarded[keep], live[keep]
            # ``compress`` keeps the slot-major arrays C-contiguous
            high, arr, eps = (a.compress(keep, axis=-1) for a in (high, arr, eps))
        yield k, e, P, high.T, arr.T, eps.T, live


def simulate_trial(sys: LinearSystem, cfg: SchedulerConfig, horizon: int,
                   seed: int) -> TrialRecord:
    """One closed-loop trial, bit-reproducible from its seed: the steps of
    ``_run_batch`` on a batch of one, truncated if they end early."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    seed = operator.index(seed)  # a float raises, as in ``default_rng``
    n, m, K = sys.n, sys.m, horizon
    errors = np.full((K + 1, n), np.nan)
    covs = np.full((K + 1, n, n), np.nan)
    high = np.zeros((K, m), dtype=bool)
    arrived = np.zeros((K, m), dtype=bool)
    innovations = np.full((K, m), np.nan)
    k = -1  # the last step yielded
    for k, e, P, hi, arr, eps, _ in _run_batch(sys, cfg, K, [seed]):
        errors[k] = e[0]
        covs[k] = P[0]
        if k:
            high[k - 1] = hi[0]
            arrived[k - 1] = arr[0]
            innovations[k - 1] = eps[0]
    energy = np.where(high, cfg.energy_high, cfg.energy_low)
    energy[max(k, 0):] = np.nan
    return TrialRecord(
        seed=seed,
        errors=errors,
        covariances=covs,
        high_power=high,
        arrived=arrived,
        innovations=innovations,
        energy=energy,
        truncated_at=k + 1 if k < K else None,
    )


# Trials per block in ``monte_carlo``: the unit of aggregation and of
# work sharing.  It is fixed, so the summary depends on nothing but the
# inputs; small blocks also split a run evenly across the cores.
_BLOCK = 256


class _Totals:
    """Per-step aggregates of one block, or of the run so far.

    Row k of ``count``, ``mean_P``, ``m2_P`` and ``outer`` holds the
    number of trials live at step k, their covariance mean and sum of
    squared deviations M2, and their sum of e e'; row k - 1 of ``high``
    holds their high-power counts per component.  A block's ``_Totals``
    (``_block_partials``) merges into the run's with the pairwise update
    of Chan, Golub & LeVeque (The American Statistician 37(3), 1983),
    which extends Welford's online variance (Technometrics 4(3), 1962):

        delta = mean_b - mean,  mean += delta n_b / n,
        M2 += M2_b + delta^2 n_a n_b / n,   n = n_a + n_b.

    ``_Totals(horizon, n, m, blocks)`` holds a batch's blocks at once,
    each field with a leading block axis, and its item b is block b's
    ``_Totals``, a view.
    """

    def __init__(self, horizon: int, n: int, m: int, *batch: int):
        K = horizon
        self.count = np.zeros((*batch, K + 1), dtype=np.int64)
        self.mean_P = np.zeros((*batch, K + 1, n, n))
        self.m2_P = np.zeros((*batch, K + 1, n, n))
        self.outer = np.zeros((*batch, K + 1, n, n))
        self.high = np.zeros((*batch, K, m), dtype=np.int64)

    def __getitem__(self, b: int) -> _Totals:
        block = object.__new__(_Totals)
        block.__dict__.update((name, value[b]) for name, value in vars(self).items())
        return block

    def merge(self, block: _Totals) -> None:
        """Merge one block's ``_Totals``.  Merged in block order, the
        totals do not depend on where the blocks ran."""
        # Rows only retire, so the block's live steps are a prefix, and
        # its rows past that prefix are zero.
        steps = np.count_nonzero(block.count)
        n_a, n_b = self.count[:steps], block.count[:steps]
        n_ab = n_a + n_b
        w = (n_b / n_ab)[:, None, None]
        delta = block.mean_P[:steps] - self.mean_P[:steps]
        self.mean_P[:steps] += delta * w
        self.m2_P[:steps] += block.m2_P[:steps] + delta * delta * (n_a[:, None, None] * w)
        self.count[:steps] = n_ab
        self.outer += block.outer
        self.high += block.high

    def summary(self, cfg: SchedulerConfig, horizon: int, trials: int,
                master_seed: int) -> MonteCarloSummary:
        # Steps where every trial truncated aggregate to NaN, which is the
        # honest answer there.
        dead = (self.count == 0)[:, None, None]
        n = np.maximum(self.count, 1)[:, None, None]
        live = self.count[1:] > 0
        slots = np.where(live, self.count[1:], np.nan)
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
            mean_energy_per_step=(float(energy_per_step[live].mean())
                                  if live.any() else math.nan),
            energy_per_step=energy_per_step,
            high_power_rate=self.high.sum(axis=0) / (self.count[1:].sum() or np.nan),
            high_rate_per_step=self.high / slots[:, None],
            truncated_trials=trials - int(self.count[horizon]),
        )


def _block_partials(sys: LinearSystem, cfg: SchedulerConfig, horizon: int,
                    master_seed: int, blocks: Sequence[range]) -> list[_Totals]:
    """Run the trials in the index ranges ``blocks`` as one ``_run_batch``
    batch and return each block's ``_Totals``.  Each step k it yields
    fills row k of ``count``, ``mean_P``, ``m2_P`` and ``outer`` and row
    k - 1 of ``high`` of every block with a live row, from that block's
    live rows, a contiguous slice of the batch, as it would from a batch
    of the block alone; one ``np.add.reduceat`` per field reduces every
    block at once.  Rows past a block's last step stay zero."""
    batch = _Totals(horizon, sys.n, sys.m, len(blocks))
    seeds = _hashed_seeds(np.concatenate(
        [_trial_seeds(master_seed, block.start, block.stop) for block in blocks]))
    starts = [0, *itertools.accumulate(len(block) for block in blocks)]
    n_live = None
    for k, e, P, high, _, _, live in _run_batch(sys, cfg, horizon, seeds):
        if len(live) != n_live:
            # rows only retire, so the blocks' bounds move only with the count
            n_live = len(live)
            bounds = live.searchsorted(starts)
            # reduceat gives a zero-width segment its first row, not 0, so
            # only the blocks with a live row are reduced
            held = np.flatnonzero(np.diff(bounds))
            lo = bounds[held]
            count = bounds[held + 1] - lo
        mean = np.add.reduceat(P, lo) / count[:, None, None]
        dev = P - np.repeat(mean, count, axis=0)
        # e e' component-major, the rows along the contiguous axis: n^2
        # long inner loops in place of a short one per row
        et = np.ascontiguousarray(e.T)
        batch.count[held, k] = count
        batch.mean_P[held, k] = mean
        batch.m2_P[held, k] = np.add.reduceat(dev * dev, lo)
        batch.outer[held, k] = np.add.reduceat(et[:, None] * et, lo, axis=-1).transpose(2, 0, 1)
        if k:
            # counted in int64, whatever dtype reduceat would pick for bool
            batch.high[held, k - 1] = np.add.reduceat(high.astype(np.int64), lo)
    return [batch[b] for b in range(len(blocks))]


def _usable_cores() -> int:
    """Cores this process may run on: its CPU affinity where the platform
    has one (so ``taskset`` limits it), else the machine's count.
    ``_run_blocks`` runs the blocks on at most this many processes."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# The most blocks a process steps as one ``_run_batch`` batch: a wider
# batch spreads each step's fixed numpy cost over more rows.
_BATCH = 8


def _batches(blocks: int, workers: int, j: int) -> list[range]:
    """Process j's batches, in order, where ``workers`` processes W run
    ``blocks`` blocks B.  Process j owns blocks j, j + W, ...  The run
    takes the fewest rounds R = ceil(B / (W _BATCH)) that keep a batch
    within ``_BATCH`` blocks, and every process steps the same
    S = ceil(B / (W R)) of its own blocks per batch (its last batch may
    hold fewer), so the t-th batch of every process lies in the blocks
    [t S W, (t + 1) S W), and the processes' block counts differ by at
    most one."""
    rounds = -(-blocks // (workers * _BATCH))
    size = -(-blocks // (workers * rounds))
    owned = range(j, blocks, workers)
    return [owned[lo:lo + size] for lo in range(0, len(owned), size)]


def _run_blocks(task, blocks: int, consume) -> None:
    """``consume`` the result of each block i in range(blocks), in block
    order, on W = min(blocks, usable cores) processes, or on one where
    there is no ``os.fork``.  ``task(batch)`` runs the blocks of the
    range ``batch`` together and returns their results in order.  This
    process forks W - 1 children and owns blocks 0, W, 2W, ...; child j
    owns blocks j, j + W, ...  Each process runs its own blocks in the
    batches ``_batches`` gives it, the same count of them per batch in
    every process, so that each process's t-th batch is done at about
    the same time.  A child pickles each result into its own pipe as its
    batch is done, and those results are read here in block order, while
    this process keeps the later results of its own batch until their
    turn.  Where a child ends without sending a block (the block raised,
    or the child was killed), the block runs here alone: it gives the
    same result, or raises the same error with this process's traceback.
    Leaving, on success or on an error, closes the pipes and kills and
    reaps every child."""
    workers = min(blocks, _usable_cores()) if hasattr(os, "fork") else 1
    pipes, children = [], []
    try:
        for j in range(1, workers):
            read, write = os.pipe()
            pipes.append(open(read, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _child(task, _batches(blocks, workers, j), write)
            finally:
                # else a dead child's pipe would never reach EOF
                os.close(write)
            children.append(pid)
        own = iter(_batches(blocks, workers, 0))
        held = {}
        for i in range(blocks):
            result = held.pop(i, None)
            if result is None and i % workers:
                # a child killed mid-write leaves a truncated pickle
                with contextlib.suppress(EOFError, pickle.UnpicklingError):
                    result = pickle.load(pipes[i % workers - 1])
            if result is None:
                # this process's next batch, or alone a block its child
                # did not send
                batch = range(i, i + 1) if i % workers else next(own)
                result, *later = task(batch)
                held.update(zip(batch[1:], later))
            consume(result)
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _child(task, batches: Sequence[range], write: int) -> None:
    """A forked child's whole run: ``task`` on each of ``batches`` in
    turn, pickling each block's result into the pipe ``write`` with one
    flush per block, then exit, also on an error, without returning into
    the frames it was forked from."""
    try:
        with open(write, "wb") as pipe:
            for batch in batches:
                for result in task(batch):
                    pickle.dump(result, pipe, pickle.HIGHEST_PROTOCOL)
                    pipe.flush()
    finally:
        os._exit(0)


def monte_carlo(sys: LinearSystem, cfg: SchedulerConfig, horizon: int,
                trials: int, master_seed: int) -> MonteCarloSummary:
    """Aggregate ``trials`` independent closed-loop runs.

    Trial t equals ``simulate_trial`` at ``derive_trial_seed(master_seed,
    t)``, so the summary is reproducible bit for bit, and a trial stops
    counting where ``_run_batch`` retires it.  Trials run in fixed
    blocks of ``_BLOCK``, in trial order; each block derives its own trial
    seeds from its index range as it starts, reduces each of its steps
    into its ``_Totals`` as soon as it is computed, and hands that back.
    Each process steps its blocks in batches of at most ``_BATCH``, and
    only the batch's seeds and noise and one step of its state are ever
    in memory, so a process's peak memory is set by the block size, not
    by the trial count or by a trials x horizon array of results.

    ``_run_blocks`` runs the blocks on one process per usable core: this
    one and forked children, whose ``_Totals`` come back over pipes.  The
    processes' shares differ by at most one block, and their batches
    are aligned (``_batches``), so they finish at about the same time.
    Every block's ``_Totals`` merges here in block order, so the summary
    does not depend on the core count, bit for bit, and this process
    holds one batch at a time: the one it runs, its held results, or the
    block it merges.
    What a block raises before its first draw (a negative or non-integer
    seed, a slot-count mismatch) is raised here, before any child is
    forked.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    # A block of no trials raises what every block raises before its
    # first draw.
    next(_run_batch(sys, cfg, horizon, _trial_seeds(master_seed, 0, 0)), None)

    def batch(indices: range) -> list[_Totals]:
        return _block_partials(sys, cfg, horizon, master_seed,
                               [range(i * _BLOCK, min((i + 1) * _BLOCK, trials))
                                for i in indices])

    totals = _Totals(horizon, sys.n, sys.m)
    _run_blocks(batch, len(range(0, trials, _BLOCK)), totals.merge)
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
