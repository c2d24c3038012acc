# %%
"""
Does the averaged covariance respect its theoretical envelope?

Averaged over the scheduling and packet-loss randomness, the reported
covariance at step k+1 is squeezed between a damped time update of the
step-k average and the composite Riccati map applied to it.  A seeded
Monte Carlo run makes that sandwich observable: this script aggregates
a few thousand trials, checks every step against both bounds with a
standard-error slack, and prints a compact table.

The same numbers land in summary.csv when run through the CLI.
"""

import numpy as np

from schedkf import (
    LinearSystem,
    MareProblem,
    SchedulerConfig,
    bound_check,
    monte_carlo,
)


def main():
    system = LinearSystem(
        A=[[1.2]],
        C=[[1.0], [1.0]],
        Q=[[1.0]],
        R=[[0.1, 0.0], [0.0, 1.0]],
        x0_mean=[0.0],
        P0=[[1.0]],
    )
    rates = [0.6, 0.6]
    cfg = SchedulerConfig.from_rates(rates, arrival_prob=0.5)
    prob = MareProblem(system=system, info_rates=rates)

    summary = monte_carlo(system, cfg, horizon=120, trials=4000,
                          master_seed=42)
    check = bound_check(summary, prob)

    print(f"{'k':>4} {'lower':>9} {'mean P':>9} {'upper':>9} {'flag':>5}")
    for k in (1, 2, 3, 5, 10, 20, 40, 80, 120):
        print(f"{k:4d} {check.lower_trace[k - 1]:9.4f} "
              f"{np.trace(summary.mean_P[k]):9.4f} "
              f"{check.upper_trace[k - 1]:9.4f} "
              f"{str(bool(check.flagged[k - 1])):>5}")

    print(f"\nflagged steps: {int(check.flagged.sum())} of "
          f"{check.flagged.size}")
    print(f"empirical error second moment at the horizon: "
          f"{summary.empirical_cov[-1][0, 0]:.4f} "
          f"(reported average {summary.mean_P[-1][0, 0]:.4f})")
    print(f"mean transmit energy per step: {summary.mean_energy_per_step:.3f}")


if __name__ == "__main__":
    main()
