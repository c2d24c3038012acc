"""Closed-loop engine: reproducibility, consistency, the streamed
Monte Carlo summary, and the sandwich."""

import contextlib
import copy
import dataclasses
import functools
import itertools
import multiprocessing
import os
import signal
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from schedkf import (
    FilterState,
    LinearSystem,
    MareProblem,
    SchedulerConfig,
    SlotUpdate,
    bound_check,
    component_stats,
    derive_trial_seed,
    monte_carlo,
    scheduler_stats,
    simulate_trial,
    step,
)
from schedkf import sim
from schedkf._linalg import psd_factor, psd_floor
from schedkf.channel import _hashed_seeds, _trial_seeds
from schedkf.mare import _past_ceiling, riccati_map, time_update
from test_filter import random_observable_system
from test_model import unit_noise

EXAMPLE = LinearSystem(A=[[1.2]], C=[[1.0], [1.0]], Q=[[1.0]],
                     R=[[0.1, 0.0], [0.0, 1.0]], x0_mean=[0.0], P0=[[1.0]])


# The worked example on faster-growing plants, whose covariance traces
# pass the fixed 1e12 ceiling within the tests' horizons, and on one that
# overflows to NaN in its first step.
FAST = dataclasses.replace(EXAMPLE, A=[[4.0]])
DIVERGING = dataclasses.replace(EXAMPLE, A=[[3.0]])
OVERFLOWING = dataclasses.replace(EXAMPLE, A=[[1e200]])
SLOW_RATES = SchedulerConfig.from_rates([0.1, 0.1], arrival_prob=0.05)


def example_cfg(threshold=1.0, beta=0.5):
    return SchedulerConfig(thresholds=[threshold, threshold], arrival_prob=beta)


OP_LEVEL_SYSTEM = LinearSystem(A=[[0.9, 0.1], [0.0, 0.8]],
                               C=[[1.0, 0.0], [0.3, 1.0]], Q=0.2 * np.eye(2),
                               R=np.diag([0.4, 0.7]), x0_mean=[1.0, -0.5],
                               P0=np.eye(2))
OP_LEVEL_CFG = SchedulerConfig(thresholds=[0.8, 1.5], arrival_prob=0.4)
DENSE_N3_M2 = random_observable_system(np.random.default_rng(7), 3, 2)
UNSTABLE_N3_M2 = random_observable_system(np.random.default_rng(5), 3, 2,
                                          spectral_radius=3.0)


@hst.composite
def stable_scheduled_systems(draw):
    """A stable observable system (n in 1..5, m in 1..3) and a scheduler."""
    n = draw(hst.integers(1, 5))
    m = draw(hst.integers(1, 3))
    rho = draw(hst.floats(0.3, 0.95))
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    sysm = random_observable_system(rng, n, m, spectral_radius=rho)
    cfg = SchedulerConfig(thresholds=rng.uniform(0.3, 2.0, size=m),
                          arrival_prob=float(rng.uniform(0.1, 0.9)))
    return sysm, cfg


@hst.composite
def definite_q_systems(draw):
    """An observable system with Q > 0 (n in 1..5, m in 1..3, spectral
    radius 0.3..2, so stable or unstable, lambda_min(Q) from 1e-6 to 1)
    and a scheduler."""
    return definite_q_system(draw(hst.integers(1, 5)), draw(hst.integers(1, 3)),
                             draw(hst.floats(0.3, 2.0)), draw(hst.floats(-6.0, 0.0)),
                             draw(hst.integers(0, 2**32 - 1)))


def definite_q_system(n, m, rho, q_exp, seed):
    """The ``definite_q_systems`` case with lambda_min(Q) = 10**q_exp and
    ``seed`` for its random parts."""
    q_min = 10.0 ** q_exp
    rng = np.random.default_rng(seed)
    sysm = random_observable_system(rng, n, m, spectral_radius=rho)
    U = np.linalg.qr(rng.standard_normal((n, n)))[0]
    w = q_min * 10.0 ** rng.uniform(0.0, 2.0, size=n)
    w[0] = q_min
    cfg = SchedulerConfig(thresholds=rng.uniform(0.3, 2.0, size=m),
                          arrival_prob=float(rng.uniform(0.1, 0.9)))
    return dataclasses.replace(sysm, Q=(U * w) @ U.T), cfg


def with_idle_trace(sysm, bound):
    """``sysm`` with its idle bound replaced: at -inf the engine runs the
    PSD guard at every step, at inf never."""
    forced = copy.copy(sysm)
    object.__setattr__(forced, "_guard_idle_trace", bound)
    return forced


def block_steps(sysm, cfg, horizon, trials, master_seed):
    """Every ``(k, e, P, high, arrived, eps)`` of trials 0..trials-1 run
    as one ``_run_batch`` block."""
    seeds = _hashed_seeds(_trial_seeds(master_seed, 0, trials))
    return list(sim._run_batch(sysm, cfg, horizon, seeds))


def same_steps(got, want):
    """Whether two runs yielded the same steps, bit for bit."""
    return len(got) == len(want) and all(
        np.array_equal(x, y) for a, b in zip(got, want) for x, y in zip(a, b))


def assert_no_child():
    """No child of this process is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def deadline(seconds):
    """Fail the test, rather than hang it, if the block inside does not
    return within ``seconds``."""
    def expire(signum, frame):
        pytest.fail(f"the call did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


BLOCK_PARTIALS = sim._block_partials


def killed_outside_caller(caller, marker, sysm, cfg, horizon, master_seed, blocks):
    """``sim._block_partials``, except that a process other than ``caller``
    creates the file ``marker`` and sends itself SIGKILL at the batch
    holding the block that starts at trial 24.  It is defined at module
    level, so that a runner that pickles its task, as a process pool
    does, can send it."""
    if os.getpid() != caller and any(block.start == 24 for block in blocks):
        marker.touch()
        os.kill(os.getpid(), signal.SIGKILL)
    return BLOCK_PARTIALS(sysm, cfg, horizon, master_seed, blocks)


def trial_records(sysm, cfg, horizon, trials, master_seed):
    """The records of trials 0..trials-1 of ``monte_carlo``, one
    ``simulate_trial`` each."""
    return [simulate_trial(sysm, cfg, horizon, derive_trial_seed(master_seed, t))
            for t in range(trials)]


class TestDeterminism:
    def test_same_seed_bitwise_identical(self):
        a = simulate_trial(EXAMPLE, example_cfg(), 200, seed=5)
        b = simulate_trial(EXAMPLE, example_cfg(), 200, seed=5)
        assert np.array_equal(a.errors, b.errors)
        assert np.array_equal(a.covariances, b.covariances)
        assert np.array_equal(a.innovations, b.innovations)
        assert np.array_equal(a.high_power, b.high_power)
        assert np.array_equal(a.arrived, b.arrived)

    def test_monte_carlo_bitwise_reproducible(self):
        s1 = monte_carlo(EXAMPLE, example_cfg(), 50, trials=40, master_seed=11)
        s2 = monte_carlo(EXAMPLE, example_cfg(), 50, trials=40, master_seed=11)
        assert np.array_equal(s1.mean_P, s2.mean_P)
        assert np.array_equal(s1.empirical_cov, s2.empirical_cov)
        assert s1.mean_energy_per_step == s2.mean_energy_per_step

    def test_single_trial_summary_matches_record(self):
        summ = monte_carlo(EXAMPLE, example_cfg(), 60, trials=1, master_seed=3)
        rec = simulate_trial(EXAMPLE, example_cfg(), 60,
                             seed=derive_trial_seed(3, 0))
        assert np.array_equal(summ.mean_P, rec.covariances)
        outer = rec.errors[:, :, None] * rec.errors[:, None, :]
        assert np.array_equal(summ.empirical_cov, outer)
        assert np.array_equal(summ.energy_per_step, rec.step_energy())

    def test_batch_rows_equal_single_trials(self):
        # every row of a block is computed as it would be alone, a row
        # leaves the block at the step where its trial truncates,
        # monte_carlo's pre-hashed block seeds give the rows of
        # simulate_trial(derive_trial_seed(8, t)), and on UNSTABLE_N3_M2 the
        # rows pass the idle bound at different steps (or never), so the
        # block runs the PSD guard on steps where a batch of one skips it
        seeds = [derive_trial_seed(8, t) for t in range(6)]
        hashed = _hashed_seeds(_trial_seeds(8, 0, 6))
        for sysm, cfg, horizon, retiring, crossings in (
                (DENSE_N3_M2, OP_LEVEL_CFG, 30, 0, 1),
                (DIVERGING, SLOW_RATES, 40, 2, 1),
                (UNSTABLE_N3_M2, OP_LEVEL_CFG, 30, 0, 2)):
            records = [simulate_trial(sysm, cfg, horizon, seed) for seed in seeds]
            stop = [horizon + 1 if r.truncated_at is None else r.truncated_at
                    for r in records]
            # the case is the one intended: rows retire at that many steps
            # and first pass the idle bound at that many steps (or never)
            assert len({s for s in stop if s <= horizon}) >= retiring
            passed = [np.flatnonzero(~(np.einsum("kii->k", r.covariances)
                                       <= sysm._guard_idle_trace))
                      for r in records]
            assert len({p[0] if p.size else None for p in passed}) >= crossings
            for block in (seeds, hashed):
                steps = 0
                for k, e, P, high, arrived, eps, rows in sim._run_batch(
                        sysm, cfg, horizon, block):
                    live = [rec for rec, s in zip(records, stop) if k < s]
                    assert len(e) == len(P) == len(live)
                    # the batch positions of the live rows
                    assert rows.tolist() == [t for t, s in enumerate(stop) if k < s]
                    for t, rec in enumerate(live):
                        assert np.array_equal(e[t], rec.errors[k])
                        assert np.array_equal(P[t], rec.covariances[k])
                        if k:
                            assert np.array_equal(high[t], rec.high_power[k - 1])
                            assert np.array_equal(arrived[t], rec.arrived[k - 1])
                            assert np.array_equal(eps[t], rec.innovations[k - 1])
                    steps += 1
                assert steps == min(max(stop), horizon + 1)

    def test_trial_order_invariance_within_epsilon(self):
        # aggregation uses pairwise summation, so permuting the trials can
        # move the summary only at round-off level
        summ = monte_carlo(EXAMPLE, example_cfg(), 50, trials=64, master_seed=6)
        covs = np.stack([r.covariances
                         for r in trial_records(EXAMPLE, example_cfg(), 50, 64, 6)])
        rng = np.random.default_rng(0)
        for _ in range(3):
            perm = rng.permutation(64)
            reordered = covs[perm].mean(axis=0)
            assert np.max(np.abs(reordered - summ.mean_P)) <= 1e-13


SUMMARY_FIELDS = ("mean_P", "se_P", "empirical_cov", "energy_per_step",
                  "high_rate_per_step", "high_power_rate")
# every summary field that a change of core count must leave bit-identical
BIT_FIELDS = SUMMARY_FIELDS + ("mean_energy_per_step", "truncated_trials")


def full_array_summary(records):
    """Independent oracle: NaN-aware reductions over the stacked records."""
    covs = np.stack([r.covariances for r in records])
    errors = np.stack([r.errors for r in records])
    count = np.sum(~np.isnan(covs[:, :, 0, 0]), axis=0)
    valid = ~np.isnan(errors[:, 1:, 0])
    energy = np.where(valid, np.stack([r.step_energy() for r in records]), np.nan)
    high = np.where(valid[:, :, None],
                    np.stack([r.high_power for r in records]).astype(float), np.nan)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return {
            "mean_P": np.nanmean(covs, axis=0),
            "se_P": (np.nanstd(covs, axis=0, ddof=0)
                     / np.sqrt(np.maximum(count, 1))[:, None, None]),
            "empirical_cov": np.nanmean(errors[:, :, :, None]
                                        * errors[:, :, None, :], axis=0),
            "energy_per_step": np.nanmean(energy, axis=0),
            "high_rate_per_step": np.nanmean(high, axis=0),
            "high_power_rate": np.nanmean(high, axis=(0, 1)),
        }


class TestStreamedSummary:
    # Rates far below the critical ones on fast-growing plants: trials
    # pass the covariance ceiling at different steps.  With A = 4 one
    # trial survives at horizon 40; at horizon 60 all truncate, so the
    # last steps have no live trial anywhere.  The dense system truncates
    # every trial by step 27.
    CFG = SchedulerConfig.from_rates([0.1, 0.1], arrival_prob=0.02)

    @pytest.mark.parametrize("sysm, horizon", [
        pytest.param(FAST, 40, id="40"),
        pytest.param(FAST, 60, id="60"),
        pytest.param(UNSTABLE_N3_M2, 40, id="dense-n3-m2"),
    ])
    def test_matches_full_array_oracle(self, monkeypatch, sysm, horizon):
        trials, block = 37, 8
        default = monte_carlo(sysm, self.CFG, horizon, trials=trials,
                              master_seed=4)
        monkeypatch.setattr(sim, "_BLOCK", block)
        summ = monte_carlo(sysm, self.CFG, horizon, trials=trials,
                           master_seed=4)
        records = trial_records(sysm, self.CFG, horizon, trials, 4)

        # the case is the one intended: uneven last block, truncation
        # inside a block, and a step dead in one block but live in another
        stop = np.array([horizon + 1 if r.truncated_at is None
                         else r.truncated_at for r in records])
        live = np.arange(horizon + 1) < stop[:, None]
        per_block = np.stack([live[lo:lo + block].sum(axis=0)
                              for lo in range(0, trials, block)])
        assert trials % block != 0
        assert np.any((per_block > 0) & (per_block < 8))
        assert np.any((per_block == 0).any(axis=0) & (per_block > 0).any(axis=0))

        want = full_array_summary(records)
        for key in SUMMARY_FIELDS:
            np.testing.assert_allclose(getattr(summ, key), want[key], rtol=1e-13,
                                       atol=0.0, equal_nan=True, err_msg=key)
            np.testing.assert_allclose(getattr(summ, key), getattr(default, key),
                                       rtol=1e-13, atol=0.0, equal_nan=True,
                                       err_msg=key)
        assert np.array_equal(summ.high_rate_per_step, default.high_rate_per_step,
                              equal_nan=True)
        assert summ.truncated_trials == default.truncated_trials == np.sum(stop <= horizon)
        if np.all(stop <= horizon):
            assert np.isnan(summ.mean_P[-1]).all()
            assert np.isnan(summ.se_P[-1]).all()

    # The last case's id predates the block runner: block 0 always runs in
    # the caller now, so there the slow block is block 1, a child's first.
    @pytest.mark.parametrize("sysm, cfg, horizon, slow_child", [
        pytest.param(FAST, CFG, 40, False, id="40"),
        pytest.param(FAST, CFG, 60, False, id="60"),
        pytest.param(UNSTABLE_N3_M2, CFG, 40, False, id="dense-n3-m2"),
        pytest.param(OVERFLOWING, CFG, 20, False, id="overflowing"),
        pytest.param(DENSE_N3_M2, OP_LEVEL_CFG, 40, False, id="stable-dense-n3-m2"),
        pytest.param(DENSE_N3_M2, OP_LEVEL_CFG, 40, True,
                     id="stable-dense-n3-m2-block-0-finishes-last"),
    ])
    def test_core_count_does_not_change_results(self, monkeypatch, sysm, cfg,
                                                 horizon, slow_child):
        # five blocks of 8 run in one process, or in it and 1 or 2 forked
        # children; the summary is the same bit for bit, also when block 1
        # sleeps in its child, so that blocks finish out of block order: with
        # 3 cores block 2 finishes before it and waits in its own pipe
        trials = 37
        monkeypatch.setattr(sim, "_BLOCK", 8)
        if slow_child:
            real = sim._run_batch
            block_1 = _hashed_seeds(_trial_seeds(4, 8, 9))[0].words
            caller = os.getpid()

            def slow(sysm, cfg, horizon, seeds):
                if (os.getpid() != caller and len(seeds)
                        and np.array_equal(seeds[0].words, block_1)):
                    time.sleep(0.5)
                return real(sysm, cfg, horizon, seeds)

            monkeypatch.setattr(sim, "_run_batch", slow)
        summaries = []
        for cores in (1, 2, 3):
            monkeypatch.setattr(sim, "_usable_cores", lambda cores=cores: cores)
            summaries.append(monte_carlo(sysm, cfg, horizon, trials=trials,
                                         master_seed=4))
        want = full_array_summary(trial_records(sysm, cfg, horizon, trials, 4))
        for summ in summaries[1:]:
            for key in BIT_FIELDS:
                assert np.array_equal(getattr(summ, key), getattr(summaries[0], key),
                                      equal_nan=True), key
        for key in SUMMARY_FIELDS:
            np.testing.assert_allclose(getattr(summaries[0], key), want[key],
                                       rtol=1e-13, atol=0.0, equal_nan=True,
                                       err_msg=key)

    @pytest.mark.parametrize("sysm", [FAST, UNSTABLE_N3_M2], ids=["scalar", "dense-n3-m2"])
    def test_block_totals_are_the_same_alone_and_in_a_batch(self, sysm):
        # each step, a block's live rows are one contiguous slice of its
        # batch, so its _Totals are the same bits alone as in a batch of
        # eight, in either order; the last block is the uneven last block
        # of 37 trials in blocks of 5
        horizon, trials, size = 40, 37, 5
        cfg = SchedulerConfig(thresholds=[2.2, 2.2], arrival_prob=0.02)
        blocks = [range(lo, min(lo + size, trials)) for lo in range(0, trials, size)]
        assert len(blocks) <= sim._BATCH
        records = trial_records(sysm, cfg, horizon, trials, 4)
        alone = [sim._block_partials(sysm, cfg, horizon, 4, [block])[0]
                 for block in blocks]
        # the case is the one intended: rows retire at different steps in
        # one block, blocks stop stepping at different steps, at some step
        # a block with no live row lies between two with live rows, and at
        # some step a block counts more than one high-power slot
        stops = [[horizon + 1 if records[t].truncated_at is None
                  else records[t].truncated_at for t in block] for block in blocks]
        assert any(len(set(stop)) > 1 for stop in stops)
        assert len({max(stop) for stop in stops}) > 1
        live = np.stack([block.count > 0 for block in alone])
        assert any(not live[b, k] and live[:b, k].any() and live[b + 1:, k].any()
                   for b in range(len(blocks)) for k in range(horizon + 1))
        assert max(block.high.max() for block in alone) > 1
        for order in (1, -1):
            together = sim._block_partials(sysm, cfg, horizon, 4, blocks[::order])
            for got, want in zip(together, alone[::order]):
                for name in ("count", "mean_P", "m2_P", "outer", "high"):
                    assert np.array_equal(getattr(got, name), getattr(want, name)), name

    @staticmethod
    def op_level_peak(trials):
        """The caller's traced peak over one ``monte_carlo`` call."""
        tracemalloc.start()
        try:
            monte_carlo(OP_LEVEL_SYSTEM, OP_LEVEL_CFG, 100, trials=trials,
                        master_seed=9)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # The two peak tests below compare calls of whole batches of
    # ``_BATCH`` blocks with a call of many more; only the larger ones
    # would fork, so both are pinned to one core.
    def test_peak_memory_is_set_by_the_block(self, monkeypatch):
        monkeypatch.setattr(sim, "_BLOCK", 64)
        monkeypatch.setattr(sim, "_usable_cores", lambda: 1)
        assert (self.op_level_peak(4 * sim._BATCH * 64)
                <= 1.15 * self.op_level_peak(sim._BATCH * 64))

    def test_pool_caller_peak_is_set_by_the_window(self, monkeypatch):
        # with 2 cores the caller runs every other block, a batch at a time,
        # and reads each of its child's blocks from the pipe only as it
        # merges it, so the caller's peak must not grow with the blocks.
        # The peak can depend on timing, so the smaller count takes its
        # highest peak of three calls, about as many block merges as the
        # larger one.
        monkeypatch.setattr(sim, "_BLOCK", 64)
        monkeypatch.setattr(sim, "_usable_cores", lambda: 2)
        self.op_level_peak(3 * 64)  # the first call's one-time allocations
        few = max(self.op_level_peak(16 * 64) for _ in range(3))
        assert self.op_level_peak(64 * 64) <= 1.15 * few

    def test_peak_memory_does_not_grow_with_trials(self, monkeypatch):
        # with tiny blocks, anything kept per trial (such as a list of
        # every trial's seed) would dominate the peak
        monkeypatch.setattr(sim, "_BLOCK", 8)
        monkeypatch.setattr(sim, "_usable_cores", lambda: 1)
        # fill the interpreter's bounded tuple freelists first: tuples
        # parked there stay allocated, and tracemalloc would count them
        filler = [tuple(range(size)) for size in range(1, 21) for _ in range(2000)]
        del filler

        def run(trials):
            monte_carlo(EXAMPLE, example_cfg(), 2, trials=trials, master_seed=9)

        def peak(trials):
            tracemalloc.start()
            try:
                run(trials)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # a first call in a fresh interpreter also makes the one-time
        # allocations of the code it reaches, and numpy keeps a few freed
        # small buffers of each size for reuse, which a first call of many
        # blocks fills further (by 8.8 kB here); warm up at both sizes to
        # keep them out of both peaks.  The base is two whole batches,
        # since one batch's peak lies below the steady state of a run of
        # many
        few, many = 2 * sim._BATCH * 8, 8 * 512
        run(few)
        run(many)
        assert peak(many) <= 1.15 * peak(few)

    def test_block_peak_is_set_by_its_noise(self, monkeypatch):
        # a batch keeps its noise and one step of state; nothing else in
        # it has a horizon axis, and retiring rows copies no more than it
        # (with m = 3, an extra copy of the (K, m, N) slot arrays would show).
        # On one core the 512 trials are one batch, all traced here
        monkeypatch.setattr(sim, "_usable_cores", lambda: 1)
        trials, horizon = 512, 200
        for m, radius, cfg, truncated in (
                (1, 0.95, SchedulerConfig(thresholds=[1.0], arrival_prob=0.5), 0),
                (1, 3.0, SchedulerConfig.from_rates([0.1], arrival_prob=0.02), trials),
                (3, 0.95, SchedulerConfig(thresholds=[1.0] * 3, arrival_prob=0.5), 0)):
            sysm = random_observable_system(np.random.default_rng(3), 4, m,
                                            spectral_radius=radius)
            noise_bytes = trials * horizon * (sysm.n + 2 * sysm.m) * 8
            tracemalloc.start()
            try:
                summ = monte_carlo(sysm, cfg, horizon, trials=trials, master_seed=5)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert summ.truncated_trials == truncated
            assert peak <= 1.5 * noise_bytes


class TestBlockPool:
    """The block runner: the caller and the children it forks, one process
    per usable core."""

    @pytest.mark.parametrize("make_system, cfg, seed, error, message", [
        (lambda: EXAMPLE, SchedulerConfig(thresholds=[1.0], arrival_prob=0.5), 1,
         ValueError, "scheduler has 1 thresholds"),
        # built inside the call, where it stops at construction
        (lambda: dataclasses.replace(EXAMPLE, R=[[1.0, 0.5], [0.5, 1.0]]),
         example_cfg(), 1, ValueError, "R must be diagonal"),
        (lambda: EXAMPLE, example_cfg(), -1, ValueError, "expected non-negative integer"),
        (lambda: EXAMPLE, example_cfg(), 1.5, TypeError,
         "cannot be interpreted as an integer"),
    ], ids=["slot-count", "correlated-R", "negative-seed", "float-seed"])
    def test_pre_draw_errors_raised_before_any_worker_starts(
            self, monkeypatch, make_system, cfg, seed, error, message):
        def no_fork():
            raise AssertionError("a child was forked for an invalid experiment")

        monkeypatch.setattr(sim, "_BLOCK", 8)
        monkeypatch.setattr(sim, "_usable_cores", lambda: 2)
        monkeypatch.setattr(os, "fork", no_fork)
        with pytest.raises(error, match=message) as raised:
            monte_carlo(make_system(), cfg, 10, trials=40, master_seed=seed)
        # the type and message a block itself raises
        with pytest.raises(error) as alone:
            sim._block_partials(make_system(), cfg, 10, seed, [range(0, 8)])
        assert str(raised.value) == str(alone.value)

    def test_one_process_forks_nothing(self, monkeypatch):
        # one usable core, or one block, runs every block in the caller
        def no_fork():
            raise AssertionError("a child was forked")

        monkeypatch.setattr(sim, "_BLOCK", 8)
        monkeypatch.setattr(os, "fork", no_fork)
        for cores, trials in ((1, 40), (2, 8)):
            monkeypatch.setattr(sim, "_usable_cores", lambda cores=cores: cores)
            monte_carlo(EXAMPLE, example_cfg(), 10, trials=trials, master_seed=3)

    def test_batches_cover_every_block_once_in_aligned_rounds(self):
        for blocks, workers in itertools.product(range(1, 41), range(1, 5)):
            batches = [sim._batches(blocks, workers, j) for j in range(workers)]
            for j, own in enumerate(batches):
                assert [i for batch in own for i in batch] == list(range(j, blocks, workers))
                assert all(0 < len(batch) <= sim._BATCH for batch in own)
            counts = [sum(map(len, own)) for own in batches]
            assert max(counts) - min(counts) <= 1
            # the t-th batches of all processes fill one window of blocks,
            # the windows in order, so every block runs exactly once
            rounds = [sorted(i for own in batches if t < len(own) for i in own[t])
                      for t in range(max(map(len, batches)))]
            assert [i for window in rounds for i in window] == list(range(blocks))

    def test_worker_exception_reaches_caller(self, monkeypatch):
        # block 2 (trials 16..23) runs in the caller, second in its batch
        # (0, 2, 4, 6), and block 3 (24..31) in the child, second in its
        # batch (1, 3, 5, 7); either one's exception ends the call with its own type
        # and message, raised in the caller, which reruns alone each block
        # its child did not send, and no child is left
        real = sim._run_batch
        monkeypatch.setattr(sim, "_BLOCK", 8)
        monkeypatch.setattr(sim, "_usable_cores", lambda: 2)
        for block in (2, 3):
            first = _hashed_seeds(_trial_seeds(4, 8 * block, 8 * block + 1))[0].words
            raised_in = []

            def failing(sysm, cfg, horizon, seeds, block=block, first=first,
                        raised_in=raised_in):
                if any(np.array_equal(seed.words, first) for seed in seeds):
                    raised_in.append(os.getpid())
                    raise RuntimeError(f"block {block} failed")
                return real(sysm, cfg, horizon, seeds)

            monkeypatch.setattr(sim, "_run_batch", failing)
            with deadline(30), pytest.raises(RuntimeError, match=f"^block {block} failed$"):
                monte_carlo(EXAMPLE, example_cfg(), 10, trials=64, master_seed=4)
            assert raised_in == [os.getpid()]
            assert_no_child()

    def test_caller_error_terminates_pool(self, monkeypatch):
        # the caller's merge of block 1, read from the child, fails with
        # later blocks still to come; the error ends the call with its own
        # type and message, and no child is left
        merge = sim._Totals.merge
        calls = itertools.count(1)

        def failing(totals, block):
            if next(calls) == 2:
                raise RuntimeError("merge of block 1 failed")
            merge(totals, block)

        monkeypatch.setattr(sim, "_BLOCK", 8)
        monkeypatch.setattr(sim, "_usable_cores", lambda: 2)
        monkeypatch.setattr(sim._Totals, "merge", failing)
        with deadline(30), pytest.raises(RuntimeError, match="^merge of block 1 failed$"):
            monte_carlo(EXAMPLE, example_cfg(), 10, trials=64, master_seed=4)
        assert_no_child()

    def test_killed_child_gives_the_one_core_bits(self, monkeypatch, tmp_path):
        # a child killed from outside (SIGKILL, as the OOM killer sends)
        # while it runs the batch (1, 3, 5, 7) that holds block 3 (trials
        # 24..31): the caller runs the child's unsent blocks itself, to
        # the bits of one core, and reaps the child
        monkeypatch.setattr(sim, "_BLOCK", 8)
        monkeypatch.setattr(sim, "_usable_cores", lambda: 1)
        want = monte_carlo(EXAMPLE, example_cfg(), 10, trials=64, master_seed=4)
        marker = tmp_path / "killed"
        monkeypatch.setattr(sim, "_block_partials",
                            functools.partial(killed_outside_caller, os.getpid(), marker))
        monkeypatch.setattr(sim, "_usable_cores", lambda: 2)
        with deadline(30):
            got = monte_carlo(EXAMPLE, example_cfg(), 10, trials=64, master_seed=4)
        assert marker.exists()  # the child was killed, not ended otherwise
        for key in BIT_FIELDS:
            assert np.array_equal(getattr(got, key), getattr(want, key),
                                  equal_nan=True), key
        assert_no_child()

    def test_daemonic_caller_gives_same_bits(self, monkeypatch):
        # multiprocessing lets a pool worker, a daemonic process, start no
        # children of its own; the runner forks there as anywhere, to the
        # same bits
        monkeypatch.setattr(sim, "_BLOCK", 8)
        monkeypatch.setattr(sim, "_usable_cores", lambda: 2)
        args = (EXAMPLE, example_cfg(), 20, 40, 3)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            inside = pool.apply(monte_carlo, args)
            pool.close()
            pool.join()
        here = monte_carlo(*args)
        for key in BIT_FIELDS:
            assert np.array_equal(getattr(inside, key), getattr(here, key),
                                  equal_nan=True), key


class TestEngineConsistency:
    @settings(max_examples=40, deadline=None)
    @given(case=stable_scheduled_systems(), seed=hst.integers(0, 2**31 - 1))
    @example(case=(OP_LEVEL_SYSTEM, OP_LEVEL_CFG), seed=99)
    @example(case=(OP_LEVEL_SYSTEM, OP_LEVEL_CFG), seed=2**32)
    @example(case=(OP_LEVEL_SYSTEM, OP_LEVEL_CFG), seed=2**64 + 3)
    def test_matches_op_level_composition(self, case, seed):
        # Rebuild one trial with a test-local Kalman recursion in absolute
        # coordinates (stable plant, so that route is safe), written out
        # here in numpy, and compare against the error-space engine.
        sysm, cfg = case
        n, m = sysm.n, sysm.m
        K = 80
        rec = simulate_trial(sysm, cfg, K, seed)

        # the frozen randomness protocol, drawn from numpy itself
        rng = np.random.default_rng(seed)
        z0 = rng.standard_normal(n)
        W = rng.standard_normal((K, n))
        V = rng.standard_normal((K, m))
        U = rng.random((K, m))
        L0, LQ, LR = psd_factor(sysm.P0), psd_factor(sysm.Q), psd_factor(sysm.R)
        x = sysm.x0_mean + L0 @ z0
        xh, Ph = sysm.x0_mean.copy(), sysm.P0.copy()
        stats = scheduler_stats(cfg)
        for k in range(1, K + 1):
            x = sysm.A @ x + LQ @ W[k - 1]
            y = sysm.C @ x + LR @ V[k - 1]
            xh = sysm.A @ xh
            Ph = sysm.A @ Ph @ sysm.A.T + sysm.Q
            for i in range(m):
                c = sysm.C[i]
                s = c @ Ph @ c + sysm.R[i, i]
                gain = Ph @ c / s
                eps = (float(y[i]) - c @ xh) / np.sqrt(s)
                high = abs(eps) > cfg.thresholds[i]
                arrived = bool(U[k - 1, i] < cfg.arrival_prob)
                assert high == rec.high_power[k - 1, i]
                assert arrived == rec.arrived[k - 1, i]
                assert eps == pytest.approx(rec.innovations[k - 1, i], abs=1e-9)
                # three-branch weight: delivered slots update the mean and
                # take the full correction, silent ones shrink by drop_shrink
                delivered = high or arrived
                if delivered:
                    xh = xh + gain * (float(y[i]) - c @ xh)
                t = 1.0 if delivered else stats[i].drop_shrink
                Ph = Ph - t * np.outer(gain, c @ Ph)
                Ph = 0.5 * (Ph + Ph.T)
            assert np.max(np.abs((x - xh) - rec.errors[k])) <= 1e-10
            assert np.max(np.abs(Ph - rec.covariances[k])) <= 1e-10

    @pytest.mark.parametrize("sysm, cfg", [
        (EXAMPLE, SchedulerConfig.from_rates([0.6, 0.6], arrival_prob=0.5)),
        (DENSE_N3_M2, OP_LEVEL_CFG),
    ], ids=["scalar-example", "dense-n3-m2"])
    def test_filter_step_replays_engine_covariances_exactly(self, sysm, cfg):
        # The covariance recursion depends only on the delivery bits, so
        # replaying them through filter.step with 0.0 as every received
        # value must reproduce the engine's covariances bit for bit.
        rec = simulate_trial(sysm, cfg, 600, seed=31)
        assert rec.truncated_at is None
        stats = scheduler_stats(cfg)
        state = FilterState.initial(sysm)
        assert np.array_equal(state.P, rec.covariances[0])
        for k in range(rec.horizon):
            slots = [SlotUpdate(i, 0.0 if rec.delivered[k, i] else None,
                                bool(rec.high_power[k, i]),
                                bool(rec.arrived[k, i]))
                     for i in range(sysm.m)]
            state, _ = step(state, sysm, slots, stats)
            assert np.array_equal(state.P, rec.covariances[k + 1]), k

    def test_whiten_leaves_trajectories_invariant(self):
        cfg = example_cfg(threshold=1.0)
        r1 = simulate_trial(EXAMPLE, cfg, 500, seed=77)
        r2 = simulate_trial(unit_noise(EXAMPLE), cfg, 500, seed=77)
        assert np.array_equal(r1.high_power, r2.high_power)
        assert np.array_equal(r1.arrived, r2.arrived)
        assert np.max(np.abs(r1.covariances - r2.covariances)) <= 1e-9
        assert np.max(np.abs(r1.errors - r2.errors)) <= 1e-9

    def test_near_noiseless_error_decays(self):
        sysm = LinearSystem(A=[[0.9]], C=[[1.0]], Q=[[0.0]], R=[[1e-8]],
                            x0_mean=[0.0], P0=[[1.0]])
        cfg = SchedulerConfig(thresholds=[0.0], arrival_prob=0.5)
        rec = simulate_trial(sysm, cfg, 200, seed=8)
        assert abs(rec.errors[-1, 0]) < 1e-3
        assert rec.covariances[-1, 0, 0] < 1e-7

    def test_worked_example_trace_bounded(self):
        cfg = SchedulerConfig.from_rates([0.6, 0.6], arrival_prob=0.5)
        rec = simulate_trial(EXAMPLE, cfg, 10_000, seed=123)
        assert rec.truncated_at is None
        traces = np.einsum("kii->k", rec.covariances)
        assert np.isfinite(traces).all()
        assert traces.max() < 50.0

    def test_covariance_psd_and_symmetric_along_path(self):
        rec = simulate_trial(EXAMPLE, example_cfg(), 300, seed=4)
        for P in rec.covariances[::25]:
            assert np.max(np.abs(P - P.T)) <= 1e-12
            assert np.linalg.eigvalsh(P)[0] >= -1e-10


# Q = diag(0, 1) and A = diag(0.5, 0.9) in coordinates turned by 0.5 rad:
# no idle bound, and the unexcited mode's variance decays into round-off,
# where the guard repairs rows.
_TURN = np.array([[np.cos(0.5), -np.sin(0.5)], [np.sin(0.5), np.cos(0.5)]])
SINGULAR_Q = LinearSystem(A=_TURN @ np.diag([0.5, 0.9]) @ _TURN.T,
                          C=[[1.0, 0.3]], Q=_TURN @ np.diag([0.0, 1.0]) @ _TURN.T,
                          R=[[0.5]], x0_mean=[0.0, 0.0], P0=np.eye(2))
# lambda_min(Q) = 1e-13: a bound of about 0.17, below which the stored
# covariances have eigenvalues of a few 1e-13.
TINY_Q = LinearSystem(A=[[0.9, 0.3], [0.0, 0.6]], C=[[1.0, 0.5]],
                      Q=np.diag([1e-13, 3e-13]), R=[[0.5]], x0_mean=[0.0, 0.0],
                      P0=1e-3 * np.eye(2))
ONE_SLOT_CFG = SchedulerConfig(thresholds=[1.0], arrival_prob=0.5)


class TestIdleGuard:
    """With Q > 0 every stored covariance is at least the all-delivered
    posterior P_min = (Q^-1 + sum_i c_i c_i'/r_i)^-1, so the engine skips
    the PSD guard while a row's stored traces stay at or below the
    system's idle bound (``_linalg.guard_idle_trace``)."""

    @settings(max_examples=300, deadline=None)
    @given(case=definite_q_systems(), master_seed=hst.integers(0, 2**31 - 1))
    # every row passes the idle bound 37.7 at step 2; row 0 reaches trace
    # 1e11 at step 19, where eigvalsh reads P - P_min at -8.0e-6, the
    # round-off of a step from that trace, and row 2 retires at step 22
    @example(case=definite_q_system(5, 1, 2.0, -6.0, 148), master_seed=0)
    def test_stored_covariances_are_at_least_p_min(self, case, master_seed):
        """P >= P_min holds in exact arithmetic.  A row whose stored
        traces have all stayed <= t* (the idle bound) keeps it to
        1e-9 lambda_min(P_min), the margin that lets the engine skip the
        guard there.  Any other row's step starts from A P' A' + Q, P' its
        previous covariance, whose trace is at most
        tau = |A|_F^2 tr P' + tr Q: the step's round-off
        (``guard_idle_trace`` bounds each stage's error by a multiple of
        eps tau) and eigvalsh's backward error (a few n eps tr P) may take
        P - P_min below 0 by that much, so such rows are held to
        n eps tau.  Over 800 systems at this strategy's edge (n 3..5,
        rho(A) 1.5..2, lambda_min(Q) 1e-6..1e-4) the lowest reading was
        -0.02 n eps tau."""
        sysm, cfg = case
        n = sysm.n
        r = sysm.r_diag()
        p_min = np.linalg.inv(np.linalg.inv(sysm.Q) + (sysm.C.T / r) @ sysm.C)
        low = np.linalg.eigvalsh(p_min)[0]
        # the lemma's inverse-free bound; for n == 1 it equals low
        mu = 1.0 / (1.0 / np.linalg.eigvalsh(sysm.Q)[0]
                    + np.sum(sysm.C ** 2 / r[:, None]))
        assert mu <= low * (1.0 + 1e-12)
        # which rows each step retires, so that rows can be followed
        retired = []

        def recording(trace):
            retired.append(_past_ceiling(trace))
            return retired[-1]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sim, "_past_ceiling", recording)
            steps = block_steps(sysm, cfg, 60, 8, master_seed)
        t_star = sysm._guard_idle_trace
        u = np.finfo(float).eps
        prev = np.full(8, np.trace(sysm.P0))
        proved = prev <= t_star
        for (k, _, P, *_), over in zip(steps[1:], retired[1:]):
            prev, proved = prev[~over], proved[~over]
            tau = np.sum(sysm.A ** 2) * prev + np.trace(sysm.Q)
            floor = 1e-9 * low + np.where(proved, 0.0, n * u * tau)
            assert (np.linalg.eigvalsh(P - p_min)[:, 0] >= -floor).all(), k
            prev = np.einsum("tii->t", P)
            proved &= prev <= t_star

    @settings(max_examples=150, deadline=None)
    @given(case=definite_q_systems(), master_seed=hst.integers(0, 2**31 - 1))
    def test_skipping_the_guard_changes_no_bit(self, case, master_seed):
        sysm, cfg = case
        guarded = with_idle_trace(sysm, -np.inf)
        assert same_steps(block_steps(sysm, cfg, 60, 8, master_seed),
                          block_steps(guarded, cfg, 60, 8, master_seed))

    @pytest.mark.parametrize("sysm, cfg", [
        (SINGULAR_Q, ONE_SLOT_CFG),
        (TINY_Q, ONE_SLOT_CFG),
        (UNSTABLE_N3_M2, OP_LEVEL_CFG),
    ], ids=["singular-q", "tiny-q", "unstable-n3-m2"])
    def test_skipping_the_guard_changes_no_bit_at_the_edges(self, sysm, cfg):
        got = block_steps(sysm, cfg, 200, 16, 4)
        # the case is the one intended
        bound = sysm._guard_idle_trace
        top = max(np.einsum("tii->t", P).max() for _, _, P, *_ in got)
        if sysm is SINGULAR_Q:
            assert bound == -np.inf
            # here the guard changes bits, so skipping it would show
            unguarded = with_idle_trace(sysm, np.inf)
            assert not same_steps(got, block_steps(unguarded, cfg, 200, 16, 4))
        elif sysm is TINY_Q:
            assert 0.0 < bound < 1.0 and top <= bound
        else:
            assert np.trace(sysm.P0) <= bound < top
        guarded = with_idle_trace(sysm, -np.inf)
        assert same_steps(got, block_steps(guarded, cfg, 200, 16, 4))

    @staticmethod
    def guard_calls(monkeypatch, sysm, cfg, horizon, trials):
        """The ``psd_floor`` calls a block makes at each step k, and the
        traces of the covariances it yields."""
        calls = []
        monkeypatch.setattr(sim, "psd_floor",
                            lambda P: calls.append(None) or psd_floor(P))
        per_step, traces = [], []
        seeds = _hashed_seeds(_trial_seeds(8, 0, trials))
        for _, _, P, *_ in sim._run_batch(sysm, cfg, horizon, seeds):
            per_step.append(len(calls) - sum(per_step))
            traces.append(np.einsum("tii->t", P))
        return np.array(per_step), traces

    def test_guard_idle_on_stable_system_with_definite_q(self, monkeypatch):
        calls, _ = self.guard_calls(monkeypatch, DENSE_N3_M2, OP_LEVEL_CFG, 200, 16)
        assert len(calls) == 201 and calls.sum() == 0

    def test_guard_runs_every_step_with_singular_q(self, monkeypatch):
        calls, _ = self.guard_calls(monkeypatch, SINGULAR_Q, ONE_SLOT_CFG, 200, 16)
        assert calls.tolist() == [0] + [1] * 200

    def test_guard_runs_after_a_row_passes_the_bound(self, monkeypatch):
        # one of these rows passes the bound mid-run and none retires, so
        # the guard runs at every step after that row's first pass
        calls, traces = self.guard_calls(monkeypatch, UNSTABLE_N3_M2,
                                         OP_LEVEL_CFG, 30, 6)
        assert all(len(tr) == 6 for tr in traces)
        passed = [k for k, tr in enumerate(traces)
                  if not (tr <= UNSTABLE_N3_M2._guard_idle_trace).all()]
        assert 0 < passed[0] < 29
        assert calls.tolist() == [int(k > passed[0]) for k in range(31)]

    def test_bound_is_minus_inf_where_nothing_is_proved(self):
        for sysm in (SINGULAR_Q, OVERFLOWING):
            assert sysm._guard_idle_trace == -np.inf
        # with A = 0 every step starts from Q, whatever P was
        assert dataclasses.replace(TINY_Q, A=np.zeros((2, 2)))._guard_idle_trace == np.inf


class TestTruncation:
    def test_divergent_trial_is_flagged_and_nan_padded(self):
        rec = simulate_trial(DIVERGING, SLOW_RATES, 400, seed=2)
        assert rec.truncated_at is not None
        k0 = rec.truncated_at
        assert np.isnan(rec.covariances[k0:]).all()
        assert np.isfinite(rec.covariances[:k0]).all()
        summ = monte_carlo(DIVERGING, SLOW_RATES, 400, trials=5, master_seed=2)
        assert summ.truncated_trials == 5

    def test_overflow_to_nan_truncates_at_step_one(self):
        # A = 1e200 overflows the covariance to NaN in one step; a NaN
        # trace is past the ceiling, so the trial truncates there and no
        # slot of it is counted
        cfg = SchedulerConfig.from_rates([0.6, 0.6], arrival_prob=0.5)
        rec = simulate_trial(OVERFLOWING, cfg, 20, seed=1)
        assert rec.truncated_at == 1
        assert np.isnan(rec.covariances[1:]).all()
        assert np.isnan(rec.innovations).all() and np.isnan(rec.step_energy()).all()
        assert not (rec.high_power | rec.arrived | rec.delivered).any()
        summ = monte_carlo(OVERFLOWING, cfg, 20, trials=10, master_seed=1)
        assert summ.truncated_trials == 10
        assert np.isnan(summ.energy_per_step).all()
        assert np.isnan(summ.high_rate_per_step).all()

    def test_block_stops_stepping_once_every_row_retires(self, monkeypatch):
        # every row of the overflowing plant retires at step 1, so the
        # block makes that one time update and yields step 0 alone
        calls = []
        real = sim._linalg.time_update

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(sim._linalg, "time_update", counted)
        cfg = SchedulerConfig.from_rates([0.6, 0.6], arrival_prob=0.5)
        seeds = [derive_trial_seed(1, t) for t in range(8)]
        steps = [k for k, *_ in sim._run_batch(OVERFLOWING, cfg, 50, seeds)]
        assert steps == [0]
        assert len(calls) == 1

    def test_yielded_steps_are_not_reused(self):
        # the slot arrays are kept slot-major and yielded transposed:
        # every step must stay as it was yielded after later steps ran,
        # also across the steps where rows retire
        sysm, cfg, horizon, trials = UNSTABLE_N3_M2, TestStreamedSummary.CFG, 40, 37
        listed = block_steps(sysm, cfg, horizon, trials, 4)
        seeds = _hashed_seeds(_trial_seeds(4, 0, trials))
        copied = [copy.deepcopy(step)
                  for step in sim._run_batch(sysm, cfg, horizon, seeds)]
        assert same_steps(listed, copied)
        assert len({len(P) for _, _, P, *_ in listed}) > 2
        for k, e, P, *slots, live in listed[1:]:
            assert live.shape == (len(P),)
            for a in slots:
                assert a.shape == (len(P), sysm.m)

    def test_error_state_holds_between_steps(self):
        # the engine silences overflow only inside a step: while the
        # generator is suspended, the caller's numpy error state holds
        before = np.geterr()
        for _ in sim._run_batch(EXAMPLE, example_cfg(), 3, [1, 2]):
            assert np.geterr() == before

    def test_ceiling_at_p0_truncates_at_step_zero(self):
        # P0 past the ceiling retires every row before any step is taken
        sysm = dataclasses.replace(EXAMPLE, P0=[[1e13]])
        rec = simulate_trial(sysm, example_cfg(), 10, seed=1)
        assert rec.truncated_at == 0
        assert np.isnan(rec.covariances).all() and np.isnan(rec.energy).all()
        summ = monte_carlo(sysm, example_cfg(), 10, trials=5, master_seed=1)
        assert summ.truncated_trials == 5
        assert np.isnan(summ.mean_P).all()


class TestStatisticalBehavior:
    def test_high_power_rate_tracks_prediction(self):
        cfg = example_cfg(threshold=1.0)
        summ = monte_carlo(EXAMPLE, cfg, 250, trials=400, master_seed=17)
        mu = component_stats(1.0, 0.5).high_rate
        se = np.sqrt(mu * (1 - mu) / (250 * 400))
        for rate in summ.high_power_rate:
            assert abs(rate - mu) <= 4 * se

    def test_pooled_innovations_are_nearly_standard_normal(self):
        cfg = example_cfg(threshold=1.0)
        eps = np.concatenate([r.innovations.ravel()
                              for r in trial_records(EXAMPLE, cfg, 100, 200, 29)])
        assert eps.size >= 10_000
        assert abs(eps.mean()) < 0.05
        assert abs(eps.var() - 1.0) < 0.1

    def test_reported_covariance_tracks_empirical(self):
        # the estimator is exact only under the Gaussian approximation of
        # the predicted density, so this is a loose-factor consistency
        # check, not an equality
        cfg = SchedulerConfig.from_rates([0.6, 0.6], arrival_prob=0.5)
        summ = monte_carlo(EXAMPLE, cfg, 150, trials=5000, master_seed=31)
        for k in (50, 100, 150):
            ratio = summ.empirical_cov[k][0, 0] / summ.mean_P[k][0, 0]
            assert 0.7 < ratio < 1.4

    def test_energy_accounting(self):
        cfg = example_cfg(threshold=1.0)
        summ = monte_carlo(EXAMPLE, cfg, 100, trials=100, master_seed=5)
        mu = component_stats(1.0, 0.5).high_rate
        expected = 2 * (mu * cfg.energy_high + (1 - mu) * cfg.energy_low)
        assert summ.mean_energy_per_step == pytest.approx(expected, rel=0.05)


def per_step_bound_check(summary, problem):
    """Reference for ``bound_check``: the sandwich one step at a time, as
    (lower_trace, upper_trace, lower_violation, upper_violation, flagged,
    slack) per step."""
    shrink_prod = float(np.prod(1.0 - problem.info_rates))
    rows = []
    for k in range(1, summary.horizon + 1):
        prev, cur = summary.mean_P[k - 1], summary.mean_P[k]
        if np.isnan(prev).any() or np.isnan(cur).any():
            rows.append((np.nan, np.nan, 0.0, 0.0, True, np.nan))
            continue
        lower = shrink_prod * time_update(prev, problem.system)
        upper = riccati_map(prev, problem)
        slack = (sim._SLACK_SIGMAS * float(np.max(summary.se_P[k]))
                 + 1e-12 * (1.0 + abs(float(np.trace(cur)))))
        lo = max(0.0, -(float(np.linalg.eigvalsh(sim.sym(cur - lower))[0]) + slack))
        up = max(0.0, -(float(np.linalg.eigvalsh(sim.sym(upper - cur))[0]) + slack))
        rows.append((float(np.trace(lower)), float(np.trace(upper)), lo, up,
                     lo > 0.0 or up > 0.0, slack))
    return [np.array(col) for col in zip(*rows)]


class TestBoundCheck:
    @pytest.mark.parametrize("sysm, cfg, truncates", [
        (DENSE_N3_M2, OP_LEVEL_CFG, False),
        (DIVERGING, SLOW_RATES, True),
    ], ids=["dense-n3-m2", "scalar-all-truncated"])
    def test_stacked_steps_equal_per_step_reference(self, sysm, cfg, truncates):
        # the stacked time update, Riccati map and eigvalsh compute each
        # step as the one-step calls do, bit for bit; steps with a NaN end
        # (every trial truncated) stay NaN, unviolated and flagged
        summ = monte_carlo(sysm, cfg, 120, trials=12, master_seed=3)
        prob = MareProblem(system=sysm, info_rates=[st.info_rate for st in
                                                    scheduler_stats(cfg)])
        chk = bound_check(summ, prob)
        want = per_step_bound_check(summ, prob)
        fields = ("lower_trace", "upper_trace", "lower_violation",
                  "upper_violation", "flagged", "slack")
        for name, ref in zip(fields, want):
            got = getattr(chk, name)
            assert got.dtype == ref.dtype, name
            assert np.array_equal(got, ref, equal_nan=True), name
        if truncates:
            assert np.isnan(chk.slack).any() and np.isfinite(chk.slack).any()

    def test_sandwich_holds_on_worked_example(self):
        prob = MareProblem(system=EXAMPLE, info_rates=[0.6, 0.6])
        cfg = SchedulerConfig.from_rates([0.6, 0.6], arrival_prob=0.5)
        summ = monte_carlo(EXAMPLE, cfg, 100, trials=2000, master_seed=41)
        chk = bound_check(summ, prob)
        assert chk.flagged_fraction <= 0.01
        assert np.all(chk.lower_trace[np.isfinite(chk.lower_trace)] >= 0.0)

    def test_deterministic_full_rate_bounds_are_tight(self):
        # zero thresholds deliver every slot: the covariance recursion is
        # deterministic, so the upper bound is an equality and must not flag
        cfg = SchedulerConfig(thresholds=[0.0, 0.0], arrival_prob=0.5)
        prob = MareProblem(system=EXAMPLE, info_rates=[1.0, 1.0])
        summ = monte_carlo(EXAMPLE, cfg, 60, trials=20, master_seed=13)
        chk = bound_check(summ, prob)
        assert not chk.flagged.any()
        for k in range(1, 20):
            want = riccati_map(summ.mean_P[k - 1], prob)
            assert np.max(np.abs(summ.mean_P[k] - want)) <= 1e-10

    def test_no_information_limit_follows_time_update(self):
        # rate-zero analysis of a channel that essentially never delivers:
        # the mean covariance follows the pure time update, so both bounds
        # collapse onto it (the lower bound is tight)
        sysm = LinearSystem(A=[[0.9]], C=[[1.0]], Q=[[1.0]], R=[[1.0]],
                            x0_mean=[0.0], P0=[[1.0]])
        cfg = SchedulerConfig(thresholds=[40.0], arrival_prob=1e-9)
        prob = MareProblem(system=sysm, info_rates=[0.0])
        summ = monte_carlo(sysm, cfg, 50, trials=30, master_seed=7)
        chk = bound_check(summ, prob)
        assert not chk.flagged.any()
        for k in range(1, 51):
            want = time_update(summ.mean_P[k - 1], sysm)
            assert np.max(np.abs(summ.mean_P[k] - want)) <= 1e-9
            assert chk.lower_trace[k - 1] == pytest.approx(
                float(np.trace(summ.mean_P[k])), rel=1e-9)


class TestRecordShape:
    def test_slot_outcomes_view(self):
        rec = simulate_trial(EXAMPLE, example_cfg(), 10, seed=1)
        outs = rec.slot_outcomes(3)
        assert len(outs) == 2
        for i, out in enumerate(outs):
            assert out.high_power == bool(rec.high_power[2, i])
            assert out.energy in (example_cfg().energy_high, example_cfg().energy_low)
            assert out.delivered == (out.high_power or out.arrived)
        with pytest.raises(IndexError):
            rec.slot_outcomes(0)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            simulate_trial(EXAMPLE, example_cfg(), 0, seed=1)
        with pytest.raises(ValueError):
            monte_carlo(EXAMPLE, example_cfg(), 10, trials=0, master_seed=1)
        bad_cfg = SchedulerConfig(thresholds=[1.0], arrival_prob=0.5)
        with pytest.raises(ValueError):
            simulate_trial(EXAMPLE, bad_cfg, 10, seed=1)

    def test_non_diagonal_r_rejected_before_any_draw(self, monkeypatch):
        # the slot updates read only diag(R), so a full R would be drawn
        # in full but filtered as if diagonal; it stops where the system
        # is built, so neither engine can be handed one
        def no_draws(*args, **kwargs):
            raise AssertionError("noise drawn for a non-diagonal R")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        with pytest.raises(ValueError, match="R must be diagonal"):
            LinearSystem(A=[[0.9]], C=[[1.0], [1.0]], Q=[[1.0]],
                         R=[[1.0, 0.95], [0.95, 1.0]], x0_mean=[0.0], P0=[[1.0]])
        with pytest.raises(ValueError, match="R must be diagonal"):
            LinearSystem.from_dict({**EXAMPLE.to_dict(),
                                    "R": [[0.1, 0.05], [0.05, 1.0]]})
