"""Closed-loop engine: reproducibility, consistency, the streamed
Monte Carlo summary, and the sandwich."""

import dataclasses
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
    whiten,
)
from schedkf import sim
from schedkf._linalg import psd_factor
from schedkf.channel import _hashed_seeds, _trial_seeds
from schedkf.mare import riccati_map, time_update
from test_filter import random_observable_system

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
        # leaves the block at the step where its trial truncates, and
        # monte_carlo's pre-hashed block seeds give the rows of
        # simulate_trial(derive_trial_seed(8, t))
        seeds = [derive_trial_seed(8, t) for t in range(6)]
        hashed = _hashed_seeds(_trial_seeds(8, 0, 6))
        for sysm, cfg, horizon, retiring in ((DENSE_N3_M2, OP_LEVEL_CFG, 30, 0),
                                             (DIVERGING, SLOW_RATES, 40, 2)):
            records = [simulate_trial(sysm, cfg, horizon, seed) for seed in seeds]
            stop = [horizon + 1 if r.truncated_at is None else r.truncated_at
                    for r in records]
            # the case is the one intended: rows retire at that many steps
            assert len({s for s in stop if s <= horizon}) >= retiring
            for block in (seeds, hashed):
                steps = 0
                for k, e, P, high, arrived, eps in sim._run_batch(
                        sysm, cfg, horizon, block):
                    live = [rec for rec, s in zip(records, stop) if k < s]
                    assert len(e) == len(P) == len(live)
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
        pytest.param(random_observable_system(np.random.default_rng(5), 3, 2,
                                              spectral_radius=3.0),
                     40, id="dense-n3-m2"),
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

    def test_peak_memory_is_set_by_the_block(self, monkeypatch):
        monkeypatch.setattr(sim, "_BLOCK", 64)

        def peak(trials):
            tracemalloc.start()
            try:
                monte_carlo(OP_LEVEL_SYSTEM, OP_LEVEL_CFG, 100, trials=trials,
                            master_seed=9)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(16 * 64) <= 1.15 * peak(64)

    def test_peak_memory_does_not_grow_with_trials(self, monkeypatch):
        # with tiny blocks, anything kept per trial (such as a list of
        # every trial's seed) would dominate the peak
        monkeypatch.setattr(sim, "_BLOCK", 8)
        # fill the interpreter's bounded tuple freelists first: tuples
        # parked there stay allocated, and tracemalloc would count them
        filler = [tuple(range(size)) for size in range(1, 21) for _ in range(2000)]
        del filler

        def peak(trials):
            tracemalloc.start()
            try:
                monte_carlo(EXAMPLE, example_cfg(), 2, trials=trials,
                            master_seed=9)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(8 * 512) <= 1.15 * peak(8)

    def test_block_peak_is_set_by_its_noise(self):
        # a block keeps its noise and one step of state; nothing else in
        # it has a horizon axis, and retiring rows copies no more than it
        trials, horizon = 512, 200
        for radius, cfg, truncated in (
                (0.95, SchedulerConfig(thresholds=[1.0], arrival_prob=0.5), 0),
                (3.0, SchedulerConfig.from_rates([0.1], arrival_prob=0.02), trials)):
            sysm = random_observable_system(np.random.default_rng(3), 4, 1,
                                            spectral_radius=radius)
            noise_bytes = trials * horizon * (sysm.n + 2 * sysm.m) * 8
            tracemalloc.start()
            try:
                summ = monte_carlo(sysm, cfg, horizon, trials=trials, master_seed=5)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert summ.truncated_trials == truncated
            assert peak <= 2.5 * noise_bytes


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
        r2 = simulate_trial(whiten(EXAMPLE), cfg, 500, seed=77)
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
        with pytest.warns(RuntimeWarning):
            rec = simulate_trial(OVERFLOWING, cfg, 20, seed=1)
        assert rec.truncated_at == 1
        assert np.isnan(rec.covariances[1:]).all()
        assert np.isnan(rec.innovations).all() and np.isnan(rec.step_energy()).all()
        assert not (rec.high_power | rec.arrived | rec.delivered).any()
        with pytest.warns(RuntimeWarning):
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
        with pytest.warns(RuntimeWarning):
            steps = [k for k, *_ in sim._run_batch(OVERFLOWING, cfg, 50, seeds)]
        assert steps == [0]
        assert len(calls) == 1

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
        # in full but filtered as if diagonal
        sysm = LinearSystem(A=[[0.9]], C=[[1.0], [1.0]], Q=[[1.0]],
                            R=[[1.0, 0.95], [0.95, 1.0]], x0_mean=[0.0],
                            P0=[[1.0]])
        cfg = SchedulerConfig(thresholds=[0.0, 0.0], arrival_prob=0.5)

        def no_draws(*args, **kwargs):
            raise AssertionError("noise drawn for a non-diagonal R")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        with pytest.raises(ValueError, match="R must be diagonal"):
            simulate_trial(sysm, cfg, 50, seed=1)
        with pytest.raises(ValueError, match="R must be diagonal"):
            monte_carlo(sysm, cfg, 50, trials=20, master_seed=1)
