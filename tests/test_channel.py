"""Scheduler decision rule, channel statistics, and energy accounting."""

import math
import warnings

import numpy as np
import pytest

from schedkf import (
    LinearSystem,
    SchedulerConfig,
    component_stats,
    derive_trial_seed,
    energy_ledger,
    simulate_trial,
)
from schedkf import monte_carlo
from schedkf.channel import EnergyLedger, SlotOutcome, _hashed_seeds, _trial_seeds

# Plants for checking the power decision and the arrival draw where they
# are made: in the closed-loop engine behind ``simulate_trial``.
PLANT = LinearSystem(A=[[0.9]], C=[[1.0], [0.5]], Q=[[1.0]],
                     R=[[0.5, 0.0], [0.0, 1.0]], x0_mean=[0.0], P0=[[1.0]])
ONE_SLOT = LinearSystem(A=[[0.9]], C=[[1.0]], Q=[[1.0]], R=[[0.5]],
                        x0_mean=[0.0], P0=[[1.0]])


class TestSchedule:
    """The power decision high = |innovation| > threshold."""

    def test_zero_threshold_fires_on_anything(self):
        cfg = SchedulerConfig(thresholds=[0.0, 0.0], arrival_prob=0.3)
        rec = simulate_trial(PLANT, cfg, 500, seed=3)
        assert np.all(rec.innovations != 0.0)
        assert rec.high_power.all()
        assert rec.delivered.all()

    def test_tie_goes_low_power(self):
        # The first slot's innovation comes before any decision, so a rerun
        # with the threshold set to exactly its magnitude makes a tie there.
        probe = simulate_trial(PLANT, SchedulerConfig([0.0, 0.0], 0.5), 1, seed=11)
        eps = abs(float(probe.innovations[0, 0]))
        tie = simulate_trial(PLANT, SchedulerConfig([eps, 0.0], 0.5), 1, seed=11)
        assert abs(float(tie.innovations[0, 0])) == eps
        assert not tie.high_power[0, 0]
        below = simulate_trial(PLANT, SchedulerConfig([np.nextafter(eps, 0.0), 0.0],
                                                      0.5), 1, seed=11)
        assert below.high_power[0, 0]


class TestTransmit:
    """The arrival draw: certain at high power, U < arrival_prob otherwise."""

    def test_high_power_always_delivers(self):
        # With arrival_prob 0.01 nearly every high-power slot draws a losing
        # uniform; its covariance must still take the full update.
        rec = simulate_trial(ONE_SLOT, SchedulerConfig([1.0], 0.01), 2000, seed=5)
        lost = rec.high_power[:, 0] & ~rec.arrived[:, 0]
        assert lost.sum() > 100
        assert rec.delivered[lost, 0].all()
        prior = 0.81 * rec.covariances[:-1, 0, 0] + 1.0
        full = prior - prior**2 / (prior + 0.5)
        np.testing.assert_allclose(rec.covariances[1:, 0, 0][lost], full[lost],
                                   rtol=1e-12, atol=0.0)

    def test_low_power_rate_matches_binomial(self):
        beta = 0.37
        rec = simulate_trial(PLANT, SchedulerConfig([1.0, 1.0], beta), 5000,
                             seed=42)
        low = ~rec.high_power
        n = int(low.sum())
        se = math.sqrt(beta * (1 - beta) / n)
        assert abs(rec.arrived[low].mean() - beta) <= 3 * se
        assert np.array_equal(rec.delivered, rec.high_power | rec.arrived)


class TestSchedulerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SchedulerConfig(thresholds=[-1.0], arrival_prob=0.5)
        with pytest.raises(ValueError):
            SchedulerConfig(thresholds=[1.0], arrival_prob=1.5)
        with pytest.raises(ValueError):
            SchedulerConfig(thresholds=[1.0], arrival_prob=0.5,
                            energy_high=0.1, energy_low=0.5)
        for high, low in [(math.inf, 0.1), (math.nan, 0.1), (1.0, math.nan)]:
            with pytest.raises(ValueError, match="finite"):
                SchedulerConfig(thresholds=[1.0], arrival_prob=0.5,
                                energy_high=high, energy_low=low)

    def test_from_rates_round_trip(self):
        cfg = SchedulerConfig.from_rates([0.6, 0.8], arrival_prob=0.5)
        got = [component_stats(t, 0.5).info_rate for t in cfg.thresholds]
        assert got[0] == pytest.approx(0.6, abs=1e-9)
        assert got[1] == pytest.approx(0.8, abs=1e-9)


def _outcomes_from_innovations(eps: np.ndarray, threshold: float,
                               e_high: float = 1.0, e_low: float = 0.1):
    outs = []
    for e in eps:
        high = abs(e) > threshold
        outs.append(SlotOutcome(high_power=bool(high), arrived=bool(high),
                                innovation=float(e),
                                energy=e_high if high else e_low,
                                delivered=bool(high)))
    return outs


class TestEnergyLedger:
    def test_empty(self):
        led = energy_ledger([])
        assert led == EnergyLedger(0.0, 0, 0, led.high_rate)
        assert math.isnan(led.high_rate)

    def test_all_high(self):
        outs = _outcomes_from_innovations(np.full(10, 5.0), threshold=1.0)
        led = energy_ledger(outs)
        assert led.total == pytest.approx(10 * 1.0)
        assert led.high_count == 10 and led.low_count == 0
        assert led.high_rate == 1.0

    def test_long_run_rate_matches_predicted(self):
        # standard normal innovations with threshold 1: the high-power rate
        # must land within binomial 3 sigma of 2*q_tail(1) = 0.3173...
        rng = np.random.default_rng(7)
        n = 200_000
        outs = _outcomes_from_innovations(rng.standard_normal(n), threshold=1.0)
        led = energy_ledger(outs)
        mu = component_stats(1.0, 0.5).high_rate
        se = math.sqrt(mu * (1 - mu) / n)
        assert abs(led.high_rate - mu) <= 3 * se
        assert led.total == pytest.approx(led.high_count * 1.0 + led.low_count * 0.1)


class TestSeedDerivation:
    def test_deterministic_and_distinct(self):
        a = derive_trial_seed(123, 0)
        assert a == derive_trial_seed(123, 0)
        seeds = {derive_trial_seed(123, i) for i in range(1000)}
        assert len(seeds) == 1000
        assert derive_trial_seed(124, 0) != a

    MASTERS = (0, 1, 2**31 - 1, 2**32, 2**32 + 7, 2**64 + 3, 2**96 + 5)

    @staticmethod
    def numpy_seed(master, t):
        return int(np.random.SeedSequence((master, t)).generate_state(1, np.uint64)[0])

    @pytest.mark.parametrize("master", MASTERS)
    def test_block_hash_matches_numpy(self, master):
        # 600 indices per master seed, 4 200 pairs over all of them; the
        # ranges near 2**32 and 2**64 cross to a wider index
        ranges = [(0, 590), (2**32 - 5, 2**32 + 5)]
        if master == 2**64 + 3:
            ranges[1] = (2**64 - 5, 2**64 + 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for lo, hi in ranges:
                block = _trial_seeds(master, lo, hi)
                assert block.dtype == np.uint64
                want = [self.numpy_seed(master, t) for t in range(lo, hi)]
                assert block.tolist() == want
                assert [derive_trial_seed(master, t) for t in range(lo, hi)] == want

    SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1)

    def test_streams_start_where_default_rng_does(self):
        seeds = np.array(self.SEEDS, dtype=np.uint64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed, hashed in zip(self.SEEDS, _hashed_seeds(seeds), strict=True):
                rng = np.random.default_rng(hashed)
                want = np.random.default_rng(int(seed))
                assert rng.bit_generator.state == want.bit_generator.state
                assert np.array_equal(rng.standard_normal(5),
                                      want.standard_normal(5))

    @pytest.mark.parametrize("n_words, dtype", [(4, np.uint32), (8, np.uint32),
                                                (2, np.uint64), (1, np.uint64)])
    def test_hashed_seed_refuses_other_requests(self, n_words, dtype):
        (hashed,) = _hashed_seeds(np.array([5], dtype=np.uint64))
        assert np.array_equal(hashed.generate_state(4, np.uint64),
                              np.random.SeedSequence(5).generate_state(4, np.uint64))
        with pytest.raises(ValueError, match="4 uint64 words"):
            hashed.generate_state(n_words, dtype)

    def test_negative_seeds_raise_as_numpy_does(self):
        for master, t in [(-1, 0), (0, -1)]:
            with pytest.raises(ValueError):
                np.random.SeedSequence((master, t))
            with pytest.raises(ValueError):
                derive_trial_seed(master, t)
        with pytest.raises(ValueError):
            np.random.default_rng(-1)
        with pytest.raises(ValueError):
            simulate_trial(PLANT, SchedulerConfig([1.0, 1.0], 0.5), 5, seed=-1)
        with pytest.raises(ValueError):
            monte_carlo(PLANT, SchedulerConfig([1.0, 1.0], 0.5), 5, trials=3,
                        master_seed=-1)
        # a float seed is not truncated to an int: numpy raises TypeError
        for master, t in [(1.5, 0), (0, 2.7)]:
            with pytest.raises(TypeError):
                np.random.SeedSequence((master, t))
            with pytest.raises(TypeError):
                derive_trial_seed(master, t)
        with pytest.raises(TypeError):
            np.random.default_rng(1.5)
        with pytest.raises(TypeError):
            simulate_trial(PLANT, SchedulerConfig([1.0, 1.0], 0.5), 5, seed=1.5)
        with pytest.raises(TypeError):
            monte_carlo(PLANT, SchedulerConfig([1.0, 1.0], 0.5), 5, trials=3,
                        master_seed=1.5)
        # numpy integers are integers
        assert derive_trial_seed(np.int64(1), np.uint32(2)) == derive_trial_seed(1, 2)
