"""Power-scheduled sequential Kalman filtering over packet-dropping links.

The package couples seven modules:

* ``model``    plant definition, structural checks, measurement whitening
* ``stats``    Gaussian-tail statistics of the innovation scheduler
* ``filter``   the sequential remote estimator with three-branch updates
* ``channel``  sensor-side power decisions and the lossy channel
* ``mare``     the composite modified Riccati operator and the
               necessary / sufficient mean-square stability checks
* ``sim``      seeded closed-loop Monte Carlo and the expectation
               sandwich diagnostics
* ``cli``      the ``schedkf`` command-line front end
"""

from .channel import (
    EnergyLedger,
    SchedulerConfig,
    SlotOutcome,
    derive_trial_seed,
    energy_ledger,
    scheduler_stats,
)
from .filter import (
    FilterState,
    SlotTrace,
    SlotUpdate,
    innovation_stats,
    predict,
    step,
    update_component,
)
from .mare import (
    Certificate,
    FixedPointResult,
    MareProblem,
    MareReport,
    NecessaryCheck,
    SufficientCheck,
    analyze,
    cascade_envelope,
    gain_envelope,
    iterate_fixed_point,
    linear_part,
    mixture_weights,
    necessary_check,
    optimal_gains,
    partial_update,
    riccati_envelope,
    riccati_map,
    sufficient_check,
    time_update,
    update_cascade,
)
from .model import LinearSystem, ValidationReport, validate, whiten
from .sim import (
    BoundCheck,
    MonteCarloSummary,
    TrialRecord,
    bound_check,
    monte_carlo,
    simulate_trial,
    write_summary_csv,
)
from .stats import ComponentStats, component_stats, q_tail, threshold_for_rate

__version__ = "0.1.0"

__all__ = [
    "ComponentStats", "component_stats", "q_tail", "threshold_for_rate",
    "LinearSystem", "ValidationReport", "validate", "whiten",
    "FilterState", "SlotUpdate", "SlotTrace",
    "predict", "innovation_stats", "update_component", "step",
    "SchedulerConfig", "SlotOutcome", "EnergyLedger",
    "energy_ledger", "scheduler_stats", "derive_trial_seed",
    "MareProblem", "MareReport", "FixedPointResult", "NecessaryCheck",
    "Certificate", "SufficientCheck",
    "time_update", "partial_update", "update_cascade", "riccati_map",
    "gain_envelope", "mixture_weights", "cascade_envelope",
    "riccati_envelope", "optimal_gains", "linear_part",
    "iterate_fixed_point", "necessary_check", "sufficient_check", "analyze",
    "TrialRecord", "MonteCarloSummary", "BoundCheck",
    "simulate_trial", "monte_carlo", "bound_check", "write_summary_csv",
    "__version__",
]
