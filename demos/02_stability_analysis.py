# %%
"""
When does the scheduled filter stay bounded in the mean?

The expected covariance is governed by a composite Riccati map: a time
update followed by one rate-weighted partial update per measurement
slot.  Iterating that map from zero either climbs to a finite fixed
point or grows without bound, and two tests bracket the stable region:

* necessary:  prod(1 - rate_i) <= 1 / spectral_radius(A)^2
* sufficient: a gain tuple plus a matrix that strictly dominates its
  own envelope image (a Lyapunov-style certificate)

With Q > 0 a failed necessary test settles divergence without any
iteration.  Otherwise the solver iterates until the optimal gains make
the affine envelope contract, then jumps to the fixed point by policy
iteration, so each row below takes a few dozen steps at most.  The
contraction factor of the certificate gains says how far the rate sits
from the stability boundary (1 is on it).

This script sweeps the per-slot information rate for the scalar example
plant and shows where each test flips.
"""

import numpy as np

from schedkf import (
    LinearSystem,
    MareProblem,
    iterate_fixed_point,
    necessary_check,
    sufficient_check,
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

    print(f"{'rate':>6} {'necessary':>10} {'iteration':>12} {'steps':>6} "
          f"{'fixed point':>12} {'certificate':>12} {'contraction':>12}")
    for rate in (0.05, 0.10, 0.15, 0.20, 0.30, 0.45, 0.60, 0.80, 1.00):
        prob = MareProblem(system=system, info_rates=[rate, rate])
        nec = necessary_check(prob)
        fp = iterate_fixed_point(prob)
        suf = sufficient_check(prob, fixed_point=fp)
        value = f"{fp.fixed_point[0, 0]:.4f}" if fp.converged else "-"
        rho = f"{suf.certificate.contraction:.4f}" if suf.ok else "-"
        print(f"{rate:6.2f} {str(nec.ok):>10} {fp.status:>12} "
              f"{fp.iterations:>6} {value:>12} {str(suf.ok):>12} {rho:>12}")

    # The necessary test says rates below 1 - sqrt(1/1.44)/... cannot work:
    # prod(1-rate)^2 <= 1/1.44 here means rate >= 1 - (1/1.2)
    critical = 1.0 - np.sqrt(1.0 / 1.44)
    print(f"\nnecessary-condition boundary at rate {critical:.4f} per slot")

    # Certificates come with explicit witnesses worth inspecting.
    prob = MareProblem(system=system, info_rates=[0.6, 0.6])
    cert = sufficient_check(prob).certificate
    print(f"certificate at rate 0.6: matrix {cert.matrix[0, 0]:.6f}, "
          f"margin {cert.margin:.2e}, gains "
          f"{[g.round(4).tolist() for g in cert.gains]}")


if __name__ == "__main__":
    main()
