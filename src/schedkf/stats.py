"""Gaussian-tail arithmetic for the innovation scheduler.

Four per-component statistics drive both the energy accounting and the
stability theory:

* ``high_rate``    expected fraction of slots sent at high power,
                   2 * q_tail(threshold)
* ``drop_shrink``  covariance shrink weight applied when a low-power slot
                   is lost; equals one minus the variance of a standard
                   normal truncated to [-threshold, threshold]
* ``low_info``     expected shrink weight given the low-power path,
                   arrival_prob + (1 - arrival_prob) * drop_shrink
* ``info_rate``    overall expected shrink weight,
                   high_rate + (1 - high_rate) * low_info

``info_rate`` is the normalized average information received per slot;
it decreases from 1 (threshold 0) to ``arrival_prob`` (threshold -> inf)
and is the quantity the stability conditions are expressed in.

erf and erfc come from the standard library's ``math`` module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["q_tail", "ComponentStats", "component_stats", "threshold_for_rate"]

_SQRT2 = math.sqrt(2.0)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)

# threshold_for_rate returns a threshold whose rate is this close to the
# target.
RATE_TOL = 1e-10


def q_tail(x: float) -> float:
    """Standard normal tail probability P(Z > x)."""
    return 0.5 * math.erfc(x / _SQRT2)


def _drop_shrink(threshold: float) -> float:
    # sqrt(2/pi) * t * exp(-t^2/2) / (1 - 2*q_tail(t)); the denominator is
    # erf(t/sqrt(2)), which avoids cancellation for small thresholds.
    if threshold == 0.0:
        return 1.0  # limit value; removes the 0/0 at zero threshold
    t = float(threshold)
    return _SQRT_2_OVER_PI * t * math.exp(-0.5 * t * t) / math.erf(t / _SQRT2)


@dataclass(frozen=True)
class ComponentStats:
    threshold: float
    arrival_prob: float
    high_rate: float
    drop_shrink: float
    low_info: float
    info_rate: float


def component_stats(threshold: float, arrival_prob: float) -> ComponentStats:
    """Evaluate the four scheduler statistics for one measurement slot.

    ``threshold`` is the innovation magnitude above which the sensor uses
    high power; ``arrival_prob`` is the delivery probability of a
    low-power transmission.  All four outputs lie in [0, 1].
    """
    if not (threshold >= 0.0 and math.isfinite(threshold)):
        raise ValueError(f"threshold must be finite and >= 0, got {threshold}")
    if not (0.0 < arrival_prob < 1.0):
        raise ValueError(f"arrival_prob must lie in (0, 1), got {arrival_prob}")
    mu = 2.0 * q_tail(threshold)
    nu = _drop_shrink(threshold)
    xi = arrival_prob + (1.0 - arrival_prob) * nu
    lam = mu + (1.0 - mu) * xi
    return ComponentStats(threshold=float(threshold), arrival_prob=float(arrival_prob),
                          high_rate=mu, drop_shrink=nu, low_info=xi, info_rate=lam)


def threshold_for_rate(info_rate: float, arrival_prob: float) -> float:
    """Invert the threshold -> info_rate map by bisection.

    The map is strictly decreasing with range (arrival_prob, 1], so any
    target in that interval has a unique preimage.  Returns a threshold
    whose achieved rate is within ``RATE_TOL`` of the target.
    """
    if not (0.0 < arrival_prob < 1.0):
        raise ValueError(f"arrival_prob must lie in (0, 1), got {arrival_prob}")
    if not (arrival_prob < info_rate <= 1.0):
        raise ValueError(
            f"info_rate must lie in (arrival_prob, 1] = ({arrival_prob}, 1], "
            f"got {info_rate}"
        )
    if info_rate == 1.0:
        return 0.0

    def rate(th: float) -> float:
        return component_stats(th, arrival_prob).info_rate

    lo, hi = 0.0, 1.0
    while rate(hi) > info_rate and hi < 64.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        r = rate(mid)
        if abs(r - info_rate) <= RATE_TOL:
            return mid
        if r > info_rate:
            lo = mid
        else:
            hi = mid
    mid = 0.5 * (lo + hi)
    if abs(rate(mid) - info_rate) <= RATE_TOL:
        return mid
    raise RuntimeError(
        f"bisection failed to reach |rate - target| <= {RATE_TOL} for "
        f"target {info_rate}, arrival_prob {arrival_prob}"
    )
