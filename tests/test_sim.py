"""Closed-loop engine: reproducibility, consistency, and the sandwich."""

import os

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
    innovation_stats,
    monte_carlo,
    predict,
    riccati_map,
    schedule,
    scheduler_stats,
    simulate_trial,
    time_update,
    update_component,
    whiten,
)
from schedkf._linalg import psd_factor
from schedkf.sim import _trial_noise
from test_filter import random_observable_system

EXAMPLE = LinearSystem(A=[[1.2]], C=[[1.0], [1.0]], Q=[[1.0]],
                     R=[[0.1, 0.0], [0.0, 1.0]], x0_mean=[0.0], P0=[[1.0]])


def example_cfg(threshold=1.0, beta=0.5):
    return SchedulerConfig(thresholds=[threshold, threshold], arrival_prob=beta)


OP_LEVEL_SYSTEM = LinearSystem(A=[[0.9, 0.1], [0.0, 0.8]],
                               C=[[1.0, 0.0], [0.3, 1.0]], Q=0.2 * np.eye(2),
                               R=np.diag([0.4, 0.7]), x0_mean=[1.0, -0.5],
                               P0=np.eye(2))
OP_LEVEL_CFG = SchedulerConfig(thresholds=[0.8, 1.5], arrival_prob=0.4)


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


class TestDeterminism:
    def test_same_seed_bitwise_identical(self):
        a = simulate_trial(EXAMPLE, example_cfg(), 200, seed=5)
        b = simulate_trial(EXAMPLE, example_cfg(), 200, seed=5)
        assert np.array_equal(a.errors, b.errors)
        assert np.array_equal(a.covariances, b.covariances)
        assert np.array_equal(a.innovations, b.innovations)
        assert np.array_equal(a.high_power, b.high_power)

    def test_monte_carlo_bitwise_reproducible(self):
        s1 = monte_carlo(EXAMPLE, example_cfg(), 50, trials=40, master_seed=11)
        s2 = monte_carlo(EXAMPLE, example_cfg(), 50, trials=40, master_seed=11)
        assert np.array_equal(s1.mean_P, s2.mean_P)
        assert np.array_equal(s1.empirical_cov, s2.empirical_cov)
        assert s1.mean_energy_per_step == s2.mean_energy_per_step

    def test_single_trial_summary_matches_record(self):
        summ = monte_carlo(EXAMPLE, example_cfg(), 60, trials=1, master_seed=3,
                           keep_trials=True)
        rec = simulate_trial(EXAMPLE, example_cfg(), 60,
                             seed=derive_trial_seed(3, 0))
        assert np.array_equal(summ.records[0].covariances, rec.covariances)
        assert np.array_equal(summ.mean_P, rec.covariances)
        outer = rec.errors[:, :, None] * rec.errors[:, None, :]
        assert np.array_equal(summ.empirical_cov, outer)
        assert np.array_equal(summ.energy_per_step, rec.step_energy())

    def test_trial_order_invariance_within_epsilon(self):
        # aggregation uses pairwise summation, so permuting the trials can
        # move the summary only at round-off level
        summ = monte_carlo(EXAMPLE, example_cfg(), 50, trials=64, master_seed=6,
                           keep_trials=True)
        covs = np.stack([r.covariances for r in summ.records])
        rng = np.random.default_rng(0)
        for _ in range(3):
            perm = rng.permutation(64)
            reordered = covs[perm].mean(axis=0)
            assert np.max(np.abs(reordered - summ.mean_P)) <= 1e-13

    def test_worker_count_does_not_change_results(self):
        try:
            os.environ["SCHEDKF_WORKERS"] = "1"
            s1 = monte_carlo(EXAMPLE, example_cfg(), 40, trials=37, master_seed=21)
            os.environ["SCHEDKF_WORKERS"] = "4"
            s4 = monte_carlo(EXAMPLE, example_cfg(), 40, trials=37, master_seed=21)
        finally:
            os.environ.pop("SCHEDKF_WORKERS", None)
        assert np.array_equal(s1.mean_P, s4.mean_P)
        assert np.array_equal(s1.high_rate_per_step, s4.high_rate_per_step)


class TestEngineConsistency:
    @settings(max_examples=40, deadline=None)
    @given(case=stable_scheduled_systems(), seed=hst.integers(0, 2**31 - 1))
    @example(case=(OP_LEVEL_SYSTEM, OP_LEVEL_CFG), seed=99)
    def test_matches_op_level_composition(self, case, seed):
        # Rebuild one trial with the public filter/channel operations in
        # absolute coordinates (stable plant, so that route is safe) and
        # compare against the error-space engine.
        sysm, cfg = case
        n, m = sysm.n, sysm.m
        K = 80
        rec = simulate_trial(sysm, cfg, K, seed)

        z0, W, V, U = _trial_noise(seed, n, m, K)
        L0, LQ, LR = psd_factor(sysm.P0), psd_factor(sysm.Q), psd_factor(sysm.R)
        x = sysm.x0_mean + L0 @ z0
        st = FilterState.initial(sysm)
        stats = scheduler_stats(cfg)
        for k in range(1, K + 1):
            x = sysm.A @ x + LQ @ W[k - 1]
            y = sysm.C @ x + LR @ V[k - 1]
            st = predict(st, sysm)
            for i in range(m):
                z_pred, sigma = innovation_stats(st, sysm, i)
                high, eps = schedule(float(y[i]), z_pred, sigma,
                                     cfg.thresholds[i])
                arrived = bool(U[k - 1, i] < cfg.arrival_prob)
                assert high == rec.high_power[k - 1, i]
                assert arrived == rec.arrived[k - 1, i]
                assert eps == pytest.approx(rec.innovations[k - 1, i], abs=1e-9)
                value = float(y[i]) if (high or arrived) else None
                st = update_component(st, sysm, SlotUpdate(i, value, high,
                                                           arrived), stats[i])
            assert np.max(np.abs((x - st.x) - rec.errors[k])) <= 1e-10
            assert np.max(np.abs(st.P - rec.covariances[k])) <= 1e-10

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
        cfg = SchedulerConfig.from_rates([0.1, 0.1], arrival_prob=0.05)
        rec = simulate_trial(EXAMPLE, cfg, 400, seed=2, trace_ceiling=1e3)
        assert rec.truncated_at is not None
        k0 = rec.truncated_at
        assert np.isnan(rec.covariances[k0:]).all()
        assert np.isfinite(rec.covariances[:k0]).all()
        summ = monte_carlo(EXAMPLE, cfg, 400, trials=5, master_seed=2,
                           trace_ceiling=1e3)
        assert summ.truncated_trials == 5


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
        summ = monte_carlo(EXAMPLE, cfg, 100, trials=200, master_seed=29,
                           keep_trials=True)
        eps = np.concatenate([r.innovations.ravel() for r in summ.records])
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


class TestBoundCheck:
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
