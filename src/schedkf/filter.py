"""Remote MMSE estimator: time prediction plus per-slot sequential updates.

Every step processes the measurement vector one component at a time, in
index order.  Each slot ends in one of three ways and the covariance
correction P <- P - t * K c P picks its weight accordingly:

* delivered at high power          t = 1, mean updated
* delivered at low power           t = 1, mean updated
* lost low-power packet            t = drop_shrink, mean unchanged

The lost-packet branch still shrinks the covariance because the
scheduler's silence reveals that the normalized innovation stayed inside
[-threshold, threshold]; ``drop_shrink`` is exactly the variance deficit
of that truncation.  All of this is exact under the running assumption
that the predicted conditional density is Gaussian.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._linalg import psd_floor, sym
from .model import LinearSystem
from .stats import ComponentStats

__all__ = [
    "FilterState", "SlotUpdate", "SlotTrace",
    "predict", "innovation_stats", "update_component", "step",
]


@dataclass(frozen=True)
class FilterState:
    """Posterior mean and covariance at time index k."""

    x: np.ndarray
    P: np.ndarray
    k: int = 0

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        P = np.atleast_2d(np.asarray(self.P, dtype=float))
        if P.shape != (x.size, x.size):
            raise ValueError(f"P must be {x.size}x{x.size}, got shape {P.shape}")
        if self.k < 0:
            raise ValueError(f"time index must be >= 0, got {self.k}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "P", P)

    @classmethod
    def initial(cls, sys: LinearSystem) -> "FilterState":
        return cls(x=sys.x0_mean.copy(), P=sys.P0.copy(), k=0)


@dataclass(frozen=True)
class SlotUpdate:
    """Estimator-side view of one slot: acknowledgement bits plus the
    received value when there is one.

    ``value`` must be present exactly when the slot was delivered, i.e.
    when high_power or arrived is set.
    """

    index: int
    value: Optional[float]
    high_power: bool
    arrived: bool

    @property
    def delivered(self) -> bool:
        return self.high_power or self.arrived


@dataclass(frozen=True)
class SlotTrace:
    """Per-slot intermediates: innovation scale, normalized innovation
    (None when the value never arrived), and the gain vector."""

    sigma: float
    innovation: Optional[float]
    gain: np.ndarray


def predict(state: FilterState, sys: LinearSystem) -> FilterState:
    """Time update: x <- A x, P <- A P A' + Q."""
    x = sys.A @ state.x
    P = sym(sys.A @ state.P @ sys.A.T + sys.Q)
    return FilterState(x=x, P=P, k=state.k + 1)


def innovation_stats(state: FilterState, sys: LinearSystem,
                     index: int) -> tuple[float, float]:
    """Predicted measurement component and its standard deviation.

    The variance c P c' + R_i is positive because R_i > 0, so the
    normalized innovation is always well defined.
    """
    c = sys.C[index]
    z_pred = float(c @ state.x)
    var = float(c @ state.P @ c + sys.R[index, index])
    return z_pred, float(np.sqrt(var))


def update_component(state: FilterState, sys: LinearSystem, slot: SlotUpdate,
                     stats_i: ComponentStats) -> FilterState:
    """One sequential measurement update with the three-branch weighting."""
    delivered = slot.delivered
    if delivered and slot.value is None:
        raise ValueError("slot marked delivered but carries no value")
    if not delivered and slot.value is not None:
        raise ValueError("slot carries a value but was not delivered")

    c = sys.C[slot.index]
    Pc = state.P @ c
    s_var = float(c @ Pc + sys.R[slot.index, slot.index])
    gain = Pc / s_var

    x = state.x
    if delivered:
        x = x + gain * (slot.value - float(c @ x))

    t = 1.0 if delivered else stats_i.drop_shrink
    P = psd_floor(state.P - t * np.outer(gain, Pc))
    return FilterState(x=x, P=P, k=state.k)


def step(state: FilterState, sys: LinearSystem, slots: Sequence[SlotUpdate],
         stats: Sequence[ComponentStats],
         ) -> tuple[FilterState, list[SlotTrace]]:
    """Full filter cycle: predict, then all m slot updates in index order.

    The result depends on the slot order; it is fixed to 0..m-1 to match
    the round-robin transmission protocol.
    """
    if len(slots) != sys.m or len(stats) != sys.m:
        raise ValueError(f"expected {sys.m} slots and stats, got "
                         f"{len(slots)} and {len(stats)}")
    st = predict(state, sys)
    traces: list[SlotTrace] = []
    for i, slot in enumerate(slots):
        if slot.index != i:
            raise ValueError(f"slots must be ordered 0..m-1; slot {i} has "
                             f"index {slot.index}")
        z_pred, sigma = innovation_stats(st, sys, i)
        c = sys.C[i]
        gain = st.P @ c / (sigma * sigma)
        innov = None
        if slot.value is not None:
            innov = (slot.value - z_pred) / sigma
        traces.append(SlotTrace(sigma=sigma, innovation=innov, gain=gain))
        st = update_component(st, sys, slot, stats[i])
    return st, traces
