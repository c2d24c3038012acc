"""Remote MMSE estimator: one cycle of time prediction plus per-slot
sequential updates, ``step``.

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

The time update and the correction are ``_linalg.time_update`` and
``_linalg.weighted_update``, shared with the engine and the Riccati
operator; ``step`` computes each slot's terms once and runs the PSD floor
once, after the slots, at every step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._linalg import innovation_terms, psd_floor, time_update, weighted_update
from .model import LinearSystem
from .stats import ComponentStats

__all__ = ["FilterState", "SlotUpdate", "step"]


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


def step(state: FilterState, sys: LinearSystem, slots: Sequence[SlotUpdate],
         stats: Sequence[ComponentStats],
         ) -> tuple[FilterState, np.ndarray]:
    """Full filter cycle: x <- A x, P <- A P A' + Q, all m slot updates in
    index order, then the PSD floor on the stored covariance.  The floor
    runs at every step: the engine skips it where Q > 0 and a trace bound
    prove it idle from a stored covariance it made itself, but a caller's
    ``state`` carries no such proof.

    Returns the new state and the (m,) normalized innovations
    (value - c x) / sqrt(c'Pc + r) at each slot's own prior, NaN where
    the value never arrived.  The result depends on the slot order; it
    is fixed to 0..m-1 to match the round-robin transmission protocol.
    """
    if len(slots) != sys.m or len(stats) != sys.m:
        raise ValueError(f"expected {sys.m} slots and stats, got "
                         f"{len(slots)} and {len(stats)}")
    r = sys.r_diag()
    x = sys.A @ state.x
    P = time_update(state.P, sys.A, sys.Q)
    innov = np.full(sys.m, np.nan)
    for i, slot in enumerate(slots):
        if slot.index != i:
            raise ValueError(f"slots must be ordered 0..m-1; slot {i} has "
                             f"index {slot.index}")
        delivered = slot.delivered
        if delivered != (slot.value is not None):
            raise ValueError(f"slot {i} must carry a value exactly when "
                             f"delivered (delivered={delivered})")
        c = sys.C[i]
        Pc, s_var = innovation_terms(P, c, r[i])
        P, gain = weighted_update(P, Pc, s_var, 1.0 if delivered else
                                  stats[i].drop_shrink)
        if delivered:
            resid = slot.value - float(c @ x)
            innov[i] = resid / float(np.sqrt(s_var))
            x = x + gain * resid
    return FilterState(x=x, P=psd_floor(P), k=state.k + 1), innov
