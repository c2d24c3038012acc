"""Scheduler statistics against quadrature and sampling oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.integrate import quad

from schedkf import component_stats, threshold_for_rate
from schedkf.stats import q_tail

# Frozen from the adaptive-quadrature oracle below (see test_q_tail_matches_quadrature).
Q_AT_ONE = 0.15865525393145707


def q_quadrature(x: float) -> float:
    """Independent tail oracle: adaptive quadrature of the normal density.

    Integrates to x + 40 instead of infinity; the remainder is smaller
    than the tail by a factor beyond anything double precision can see.
    """
    val, _ = quad(lambda t: math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi),
                  x, x + 40.0, epsabs=0.0, epsrel=1e-13, limit=200)
    return val


def truncated_second_moment(th: float) -> float:
    """E[z^2 | |z| <= th] for standard normal z, by quadrature."""
    num, _ = quad(lambda t: t * t * math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi),
                  -th, th)
    mass, _ = quad(lambda t: math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi),
                   -th, th)
    return num / mass


def test_q_tail_at_zero():
    assert q_tail(0.0) == pytest.approx(0.5, abs=1e-15)


def test_q_tail_reflection():
    x = 1.3
    assert q_tail(x) + q_tail(-x) == pytest.approx(1.0, abs=1e-14)


def test_q_tail_matches_quadrature():
    for x in (-3.0, -1.0, 0.0, 0.5, 1.0, 2.0, 4.0, 8.0):
        assert q_tail(x) == pytest.approx(q_quadrature(x), rel=1e-12)
    assert q_tail(1.0) == pytest.approx(Q_AT_ONE, rel=1e-13)


def test_component_stats_zero_threshold():
    st = component_stats(0.0, 0.3)
    assert st.high_rate == pytest.approx(1.0, abs=1e-15)
    assert st.info_rate == pytest.approx(1.0, abs=1e-15)
    assert st.drop_shrink == 1.0  # defined by continuity at 0


def test_component_stats_frozen_values():
    # Frozen from the quadrature oracle composed with the closed forms.
    st = component_stats(1.0, 0.5)
    assert st.high_rate == pytest.approx(0.31731050786291415, rel=1e-12)
    assert st.drop_shrink == pytest.approx(0.7088749052272068, rel=1e-12)
    assert st.low_info == pytest.approx(0.8544374526136034, rel=1e-12)
    assert st.info_rate == pytest.approx(0.9006259784506004, rel=1e-12)


def test_drop_shrink_is_truncated_variance_deficit():
    # drop_shrink = 1 - Var(z | |z| <= th), checked against quadrature.
    for th in (0.25, 0.7, 1.0, 1.8, 3.0):
        st = component_stats(th, 0.5)
        assert st.drop_shrink == pytest.approx(1.0 - truncated_second_moment(th),
                                               rel=1e-10)


def test_large_threshold_limit():
    st = component_stats(8.0, 0.37)
    assert st.high_rate < 1e-14
    assert st.drop_shrink < 1e-12
    assert st.info_rate == pytest.approx(0.37, abs=1e-12)


def test_continuity_near_zero():
    assert component_stats(1e-8, 0.5).drop_shrink == pytest.approx(1.0, abs=1e-8)


def test_ranges_and_monotonicity():
    grid = np.linspace(0.01, 6.0, 120)
    for beta in (0.1, 0.5, 0.9):
        stats = [component_stats(t, beta) for t in grid]
        for st in stats:
            for v in (st.high_rate, st.drop_shrink, st.low_info, st.info_rate):
                assert 0.0 <= v <= 1.0
        rates = [st.info_rate for st in stats]
        shrinks = [st.drop_shrink for st in stats]
        assert all(a > b for a, b in zip(rates, rates[1:]))
        assert all(a > b for a, b in zip(shrinks, shrinks[1:]))


def test_rate_increases_with_arrival_prob():
    for th in (0.5, 1.5, 3.0):
        rates = [component_stats(th, b).info_rate for b in np.linspace(0.05, 0.95, 19)]
        assert all(a < b for a, b in zip(rates, rates[1:]))


def test_drop_shrink_complements_truncated_sample_variance():
    # Rejection-sample standard normals into [-th, th]; the sample second
    # moment plus drop_shrink must reconstruct 1 within 3 standard errors.
    rng = np.random.default_rng(1234)
    for th in (0.8, 1.5):
        z = rng.standard_normal(400_000)
        kept = z[np.abs(z) <= th]
        m2 = np.mean(kept ** 2)
        se = np.std(kept ** 2, ddof=1) / math.sqrt(kept.size)
        nu = component_stats(th, 0.5).drop_shrink
        assert abs(nu + m2 - 1.0) <= 3.0 * se


def test_invalid_arguments():
    with pytest.raises(ValueError):
        component_stats(-0.1, 0.5)
    with pytest.raises(ValueError):
        component_stats(1.0, 0.0)
    with pytest.raises(ValueError):
        component_stats(1.0, 1.0)
    with pytest.raises(ValueError):
        component_stats(math.inf, 0.5)


class TestThresholdForRate:
    def test_rate_one_gives_zero_threshold(self):
        assert threshold_for_rate(1.0, 0.4) == 0.0

    def test_round_trip(self):
        lam = component_stats(1.7, 0.3).info_rate
        assert threshold_for_rate(lam, 0.3) == pytest.approx(1.7, abs=1e-8)

    def test_achieved_rate_tolerance(self):
        for target, beta in ((0.9, 0.5), (0.61, 0.6), (0.1001, 0.1)):
            th = threshold_for_rate(target, beta)
            assert abs(component_stats(th, beta).info_rate - target) <= 1e-10

    def test_rate_near_arrival_prob_needs_large_threshold(self):
        assert threshold_for_rate(0.3 + 1e-6, 0.3) > 5.0

    def test_range_errors(self):
        with pytest.raises(ValueError):
            threshold_for_rate(0.3, 0.3)       # at the open lower end
        with pytest.raises(ValueError):
            threshold_for_rate(0.2, 0.3)       # below the reachable range
        with pytest.raises(ValueError):
            threshold_for_rate(1.1, 0.3)
        with pytest.raises(ValueError):
            threshold_for_rate(0.5, 1.0)


@hst.composite
def rate_targets(draw):
    beta = draw(hst.floats(0.05, 0.95))
    return beta, draw(hst.floats(beta, 1.0, exclude_min=True))


@settings(max_examples=200, deadline=None)
@given(case=rate_targets())
def test_threshold_for_rate_round_trips(case):
    beta, lam = case
    th = threshold_for_rate(lam, beta)
    assert abs(component_stats(th, beta).info_rate - lam) <= 1e-10
