"""Power-scheduled sequential Kalman filtering over packet-dropping links.

The package couples seven modules:

* ``model``    plant definition (R diagonal) and structural checks
* ``stats``    Gaussian-tail statistics of the innovation scheduler
* ``filter``   the sequential remote estimator: one ``step`` per cycle,
               with three-branch slot updates
* ``channel``  sensor-side power decisions and the lossy channel
* ``mare``     the composite modified Riccati operator and the
               necessary / sufficient mean-square stability checks
* ``sim``      seeded closed-loop Monte Carlo and the expectation
               sandwich diagnostics
* ``cli``      the ``schedkf`` command-line front end
"""

from .channel import SchedulerConfig, derive_trial_seed, energy_ledger, scheduler_stats
from .filter import FilterState, SlotUpdate, step
from .mare import (
    MareProblem,
    analyze,
    iterate_fixed_point,
    mixture_weights,
    necessary_check,
    partial_update,
    sufficient_check,
)
from .model import LinearSystem, validate
from .sim import bound_check, monte_carlo, simulate_trial, write_summary_csv
from .stats import component_stats, threshold_for_rate

__version__ = "0.1.0"

# Inputs and entry points.  Result types and the Riccati operator's
# building blocks are exported by their modules.
__all__ = [
    "LinearSystem", "validate",
    "component_stats", "threshold_for_rate",
    "SchedulerConfig", "scheduler_stats", "energy_ledger", "derive_trial_seed",
    "FilterState", "SlotUpdate", "step",
    "MareProblem", "partial_update", "mixture_weights",
    "iterate_fixed_point", "necessary_check", "sufficient_check", "analyze",
    "simulate_trial", "monte_carlo", "bound_check", "write_summary_csv",
    "__version__",
]
