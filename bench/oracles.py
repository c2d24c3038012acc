"""Correctness oracles, independent of the program under test.

Nothing here imports ``schedkf``: the scheduler statistics, the Riccati
map and the filter's covariance recursion are re-derived in a few lines
of numpy, and the classical cases are checked against closed forms and
``scipy.linalg.solve_discrete_are``.

Each check returns a list of ``Failure``; an empty list means the output
passed.  ``KNOWN_DEFECTS`` names the failure kinds the program is known
to produce today; they still count as failed operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_discrete_are
from scipy.special import erf, erfc

# Failure kind -> the open problem that explains it.
KNOWN_DEFECTS = {
    "stable-not-converged": (
        "value iteration stops at max_iter on a problem whose fixed point is "
        "finite and labels it diverged or undetermined"),
}

SANDWICH_SIGMAS = 5.0
CONSISTENCY_BAND = (0.7, 1.4)
RATE_TOL = 1e-8
FIXED_POINT_RTOL = 1e-6
RECURSION_RTOL = 1e-9


@dataclass(frozen=True)
class Failure:
    kind: str
    message: str

    @property
    def known(self) -> bool:
        return self.kind in KNOWN_DEFECTS


def _sym(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.T)


def _min_eig(M: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(_sym(M))[0])


def drop_shrink(eta: float) -> float:
    """1 - Var(Z | |Z| <= eta) for a standard normal Z."""
    if eta == 0.0:
        return 1.0
    return math.sqrt(2.0 / math.pi) * eta * math.exp(-0.5 * eta * eta) / float(
        erf(eta / math.sqrt(2.0)))


def info_rate(eta: float, beta: float) -> float:
    """Expected shrink weight of one slot with threshold eta."""
    high = float(erfc(eta / math.sqrt(2.0)))
    low = beta + (1.0 - beta) * drop_shrink(eta)
    return high + (1.0 - high) * low


def system_arrays(system: dict):
    A = np.asarray(system["A"], dtype=float)
    C = np.asarray(system["C"], dtype=float)
    Q = np.asarray(system["Q"], dtype=float)
    r = np.diag(np.asarray(system["R"], dtype=float)).copy()
    return A, C, Q, r


def riccati_step(X, A, C, Q, r, rates) -> np.ndarray:
    """Time update, then one rate-weighted rank-one shrink per slot."""
    P = _sym(A @ X @ A.T + Q)
    for c, ri, lam in zip(C, r, rates):
        Pc = P @ c
        P = _sym(P - lam * np.outer(Pc, Pc) / (c @ Pc + ri))
    return P


def iterate_map(A, C, Q, r, rates, max_iter=50_000, tol=1e-11):
    """Value iteration from 0; the fixed point, or None if it did not settle."""
    X = np.zeros_like(A)
    for _ in range(max_iter):
        Xn = riccati_step(X, A, C, Q, r, rates)
        if not np.all(np.isfinite(Xn)) or np.trace(Xn) > 1e12:
            return None
        if np.max(np.abs(Xn - X)) <= tol * (1.0 + np.max(np.abs(Xn))):
            return Xn
        X = Xn
    return None


def scalar_fixed_point(a, q, r, lam):
    """Positive root of X = H - lam H^2 / (H + r), H = a^2 X + q, or None.

    Substituting X = (H - q) / a^2 gives
    (1 - a^2 (1 - lam)) H^2 + (r - q - a^2 r) H - q r = 0, which has one
    positive root exactly when lam exceeds the critical rate 1 - 1/a^2.
    """
    alpha = 1.0 - a * a * (1.0 - lam)
    if alpha <= 0.0:
        return None
    b = r - q - a * a * r
    H = (-b + math.sqrt(b * b + 4.0 * alpha * q * r)) / (2.0 * alpha)
    return (H - q) / (a * a)


def kalman_posterior(A, C, Q, r) -> np.ndarray:
    """Steady-state posterior covariance of the classical Kalman filter."""
    R = np.diag(r)
    P = solve_discrete_are(A.T, C.T, Q, R)
    S = C @ P @ C.T + R
    return _sym(P - P @ C.T @ np.linalg.solve(S, C @ P))


def _rel_err(X, ref) -> float:
    return float(np.max(np.abs(X - ref)) / (1.0 + np.max(np.abs(ref))))


def check_rates(config: dict, effective: dict) -> tuple[np.ndarray, list]:
    """Rates achieved by the program's thresholds vs the requested targets."""
    sched = effective["scheduler"]
    rates = np.array([info_rate(float(e), float(sched["beta"]))
                      for e in sched["eta"]])
    target = np.asarray(config["scheduler"]["lambda_target"], dtype=float)
    worst = float(np.max(np.abs(rates - target)))
    fails = []
    if worst > RATE_TOL:
        fails.append(Failure("threshold-inversion",
                             f"achieved rate off target by {worst:.2e}"))
    return rates, fails


@dataclass
class AnalysisVerdict:
    failures: list
    stable: bool | None       # None: the oracle could not decide
    certified: bool


def check_analysis(config: dict, effective: dict, report: dict,
                   kind: str) -> AnalysisVerdict:
    """Judge one ``analysis.json`` against the problem's oracle.

    ``kind`` is 'scalar', 'rate-one', 'interior' or 'below-bound'.
    """
    A, C, Q, r = system_arrays(config["system"])
    rates, fails = check_rates(config, effective)
    rho = float(np.max(np.abs(np.linalg.eigvals(A))))
    necessary = bool(np.prod(1.0 - rates) <= 1.0 / (rho * rho))
    if report["necessary"]["ok"] != necessary:
        fails.append(Failure("necessary-check",
                             f"reported {report['necessary']['ok']}, "
                             f"oracle {necessary}"))

    reference = None
    if kind == "scalar":
        reference = scalar_fixed_point(float(A[0, 0]), float(Q[0, 0]),
                                       float(r[0]), float(rates[0]))
        reference = None if reference is None else np.array([[reference]])
        stable = reference is not None
    elif kind == "rate-one":
        reference = kalman_posterior(A, C, Q, r)
        stable = True
    elif not necessary:
        stable = False
    else:
        reference = iterate_map(A, C, Q, r, rates)
        stable = True if reference is not None else None

    status = report["status"]
    X = None if report["fixed_point"] is None else np.asarray(report["fixed_point"])
    if stable is True and status != "converged":
        fails.append(Failure("stable-not-converged",
                             f"finite fixed point exists but status is {status!r} "
                             f"after {report['iterations']} iterations"))
    if stable is False and status == "converged":
        fails.append(Failure("unstable-converged",
                             "no finite fixed point exists but status is 'converged'"))
    if status == "converged":
        resid = _rel_err(riccati_step(X, A, C, Q, r, rates), X)
        if resid > FIXED_POINT_RTOL:
            fails.append(Failure("fixed-point-residual",
                                 f"|map(X) - X| relative {resid:.2e}"))
        if reference is not None and _rel_err(X, reference) > FIXED_POINT_RTOL:
            fails.append(Failure("fixed-point-value",
                                 f"off the oracle by {_rel_err(X, reference):.2e}"))
    certified = bool(report["sufficient"] and report["sufficient"]["ok"])
    if certified and stable is False:
        fails.append(Failure("false-certificate",
                             "certificate reported for an unstable problem"))
    return AnalysisVerdict(failures=fails, stable=stable, certified=certified)


def check_monte_carlo(config: dict, effective: dict, summary: dict) -> list:
    """Expectation sandwich at every step, truncation and consistency.

    Step k compares the averaged reported covariance M_k with
    prod(1 - rate) (A M_{k-1} A' + Q) from below and with the Riccati map
    of M_{k-1} from above, each within SANDWICH_SIGMAS standard errors.
    """
    A, C, Q, r = system_arrays(config["system"])
    rates, fails = check_rates(config, effective)
    mean_P = summary["mean_P"]
    se_P = summary["se_P"]
    emp = summary["empirical_cov"]
    if int(summary["truncated_trials"]) != 0:
        fails.append(Failure("truncated",
                             f"{int(summary['truncated_trials'])} trials truncated"))
    ratio = float(np.trace(emp[-1]) / np.trace(mean_P[-1]))
    lo, hi = CONSISTENCY_BAND
    if not lo < ratio < hi:
        fails.append(Failure("consistency",
                             f"tr(empirical_cov)/tr(mean_P) = {ratio:.3f} at the "
                             f"last step, outside ({lo}, {hi})"))
    shrink = float(np.prod(1.0 - rates))
    bad = []
    for k in range(1, mean_P.shape[0]):
        prev, cur = mean_P[k - 1], mean_P[k]
        slack = (SANDWICH_SIGMAS * float(np.max(se_P[k]))
                 + 1e-12 * (1.0 + abs(float(np.trace(cur)))))
        lower = shrink * (A @ prev @ A.T + Q)
        upper = riccati_step(prev, A, C, Q, r, rates)
        if _min_eig(cur - lower) < -slack or _min_eig(upper - cur) < -slack:
            bad.append(k)
    if bad:
        fails.append(Failure("sandwich",
                             f"{len(bad)} steps outside the sandwich, first k={bad[0]}"))
    return fails


def covariance_recursion(system: dict, eta, delivered: np.ndarray) -> np.ndarray:
    """The filter's covariance sequence driven by recorded delivery bits."""
    A, C, Q, r = system_arrays(system)
    shrink = [drop_shrink(float(e)) for e in eta]
    K = delivered.shape[0]
    P = np.asarray(system["P0"], dtype=float)
    out = np.empty((K + 1,) + P.shape)
    out[0] = P
    for k in range(K):
        P = _sym(A @ P @ A.T + Q)
        for i, c in enumerate(C):
            Pc = P @ c
            t = 1.0 if delivered[k, i] else shrink[i]
            P = _sym(P - t * np.outer(Pc, Pc) / (c @ Pc + r[i]))
        out[k + 1] = P
    return out


def check_trial(config: dict, trial: dict) -> dict:
    """Failures per operation of one trial-long pass."""
    reference = covariance_recursion(config["system"], trial["eta"],
                                     trial["delivered"])
    out = {}
    for op, covs in (("simulate_trial", trial["covariances"]),
                     ("filter_replay", trial["replay_covariances"])):
        err = _rel_err(covs, reference)
        out[op] = [] if err <= RECURSION_RTOL else [Failure(
            "covariance-recursion", f"relative error {err:.2e}")]
        if op == "simulate_trial" and trial["truncated"]:
            out[op].append(Failure("truncated", "trial hit the trace ceiling"))
    high = trial["high_power"]
    energy = trial["energy"].ravel()
    expect = {"total": math.fsum(energy),
              "high_count": int(high.sum()),
              "low_count": int(high.size - high.sum())}
    # A running sum of N terms may drift by N ulps from the exact sum.
    rel_tol = energy.size * np.finfo(float).eps
    got = trial["ledger"]
    fails = [Failure("energy-ledger", f"{key}: {got[key]} vs {value}")
             for key, value in expect.items()
             if not math.isclose(got[key], value, rel_tol=rel_tol)]
    out["energy_ledger"] = fails
    return out
