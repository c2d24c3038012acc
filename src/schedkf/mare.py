"""Composite modified Riccati operator and its stability certificates.

With per-slot information rates lam_1..lam_m, the expected covariance
recursion is governed by the composite map

    riccati_map(X) = partial_update_m(... partial_update_1(time_update(X)))

where time_update(X) = A X A' + Q and each partial update shrinks by a
rate-weighted rank-one correction.  A fixed point of this map is the
steady-state proxy for the expected error covariance.

Two checks bracket mean-square stability:

* necessary:   prod(1 - lam_i) <= 1 / spectral_radius(A)^2
* sufficient:  existence of gains and a matrix Pt > 0 with
               Pt > riccati_envelope(gains, Pt)

The envelope functions (gain_envelope, cascade_envelope,
riccati_envelope) are affine in their matrix argument, touch the
composite map from above, and coincide with it at the optimal gains.
Like the map, the cascade envelope is the composition of the per-slot
gain_envelope in slot order; mixture_weights are the coefficients of
that composition unrolled into one sum over the slots.
At fixed gains the envelope is X -> linear_part(X) + riccati_envelope(0)
with a completely positive linear part, so both questions reduce to
linear algebra on its matrix over the n(n+1)/2 coordinates of symmetric
matrices: the affine fixed point exists and is the limit of the
envelope iteration exactly when the spectral radius rho of that matrix
is below one, which one solve and a Cholesky factorization decide.

iterate_fixed_point uses this for policy iteration (Hewer, IEEE TAC
1971): value iteration until the optimal gains at the iterate make
rho < 1, then alternate "solve the affine fixed point at the gains" and
"reset the gains to the optimal ones there", which converges
quadratically from above.  sufficient_check solves the same system with
the constant raised by I, which yields Pt > 0 with Pt - envelope(Pt) = I
exactly when rho < 1; rho is reported as the contraction factor, whose
gap below 1 measures how far the certificate gains are from the
stability boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import _linalg
from ._linalg import innovation_terms, min_eig, sym, weighted_update
from .model import LinearSystem, _check_spd

__all__ = [
    "MareProblem", "FixedPointResult", "NecessaryCheck", "Certificate",
    "SufficientCheck", "MareReport",
    "time_update", "partial_update", "update_cascade", "riccati_map",
    "gain_envelope", "mixture_weights", "cascade_envelope",
    "riccati_envelope", "optimal_gains", "linear_part",
    "iterate_fixed_point", "necessary_check", "sufficient_check", "analyze",
]

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 100_000
DEFAULT_TRACE_CEILING = 1e12


def _past_ceiling(trace):
    """Where a covariance trace is not <= DEFAULT_TRACE_CEILING (NaN and
    inf are past it): the one divergence test, applied by
    ``iterate_fixed_point`` and by ``sim._run_batch``, which truncates
    the trials it finds there."""
    return np.logical_not(trace <= DEFAULT_TRACE_CEILING)


@dataclass(frozen=True)
class MareProblem:
    """A system plus one information rate per measurement slot."""

    system: LinearSystem
    info_rates: np.ndarray

    def __post_init__(self):
        rates = np.atleast_1d(np.asarray(self.info_rates, dtype=float))
        if rates.shape != (self.system.m,):
            raise ValueError(
                f"need one info rate per measurement slot ({self.system.m}), "
                f"got shape {rates.shape}"
            )
        if not np.all((rates >= 0.0) & (rates <= 1.0)):
            raise ValueError("info rates must lie in [0, 1]")
        rates.setflags(write=False)
        object.__setattr__(self, "info_rates", rates)

    @property
    def m(self) -> int:
        return self.info_rates.size

    @property
    def n(self) -> int:
        return self.system.n


def time_update(X: np.ndarray, sys: LinearSystem) -> np.ndarray:
    """A X A' + Q, symmetrized (``_linalg.time_update``)."""
    return _linalg.time_update(X, sys.A, sys.Q)


def partial_update(X: np.ndarray, rate: float, c: np.ndarray,
                   r: float) -> np.ndarray:
    """Rate-weighted scalar-measurement update:
    X - rate * (X c')(c X) / (c X c' + r)."""
    Xc, s = innovation_terms(X, c, r)
    return weighted_update(X, Xc, s, rate)[0]


def _cascade(X: np.ndarray, problem: MareProblem,
             ) -> tuple[np.ndarray, list[np.ndarray]]:
    """All m partial updates applied to X in slot order, with each slot's
    gain (X_i c')/(c X_i c' + r) at its running value X_i."""
    r = problem.system.r_diag()
    gains: list[np.ndarray] = []
    for i, rate in enumerate(problem.info_rates):
        Xc, s = innovation_terms(X, problem.system.C[i], r[i])
        X, gain = weighted_update(X, Xc, s, rate)
        gains.append(gain)
    return X, gains


def update_cascade(X: np.ndarray, problem: MareProblem) -> np.ndarray:
    """All m partial updates applied in slot order."""
    return _cascade(X, problem)[0]


def riccati_map(X: np.ndarray, problem: MareProblem) -> np.ndarray:
    """One application of the composite map: cascade after time update."""
    return update_cascade(time_update(X, problem.system), problem)


def gain_envelope(L: np.ndarray, X: np.ndarray, rate: float, c: np.ndarray,
                  r: float) -> np.ndarray:
    """Affine-in-X envelope of one partial update at a fixed gain:

        (1 - rate) X + rate (E X E' + r L L'),   E = I + L c,

    for one (n, n) matrix X or a stack (..., n, n).  Minimized over L at
    L = -Xc'(cXc'+r)^{-1}, where it equals partial_update(X).
    """
    E = np.eye(X.shape[-1]) + np.outer(L, c)
    return sym((1.0 - rate) * X + rate * (E @ X @ E.T + r * np.outer(L, L)))


def mixture_weights(rates: Sequence[float], s: int) -> np.ndarray:
    """Coefficients of the first s slots of the envelope, unrolled.

    weight[j] = lam_j * prod_{i=j+1..s} (1 - lam_i) with the convention
    lam_0 = 1; weight[s] = lam_s.  The s+1 weights sum to one exactly.
    """
    rates = np.asarray(rates, dtype=float)
    if s < 0 or s > rates.size:
        raise ValueError(f"s must lie in [0, {rates.size}], got {s}")
    lam = np.concatenate(([1.0], rates[:s]))
    w = np.empty(s + 1)
    suffix = 1.0
    for j in range(s, -1, -1):
        w[j] = lam[j] * suffix
        suffix *= 1.0 - lam[j]
    return w


def _envelope(gains: Sequence[np.ndarray], X: np.ndarray,
              problem: MareProblem, r: np.ndarray) -> np.ndarray:
    """gain_envelope of every slot applied to X in slot order, with slot
    noise variances r (zero for the linear part)."""
    if len(gains) != problem.m:
        raise ValueError(f"expected {problem.m} gains, got {len(gains)}")
    for i, rate in enumerate(problem.info_rates):
        X = gain_envelope(gains[i], X, rate, problem.system.C[i], r[i])
    return X


def cascade_envelope(gains: Sequence[np.ndarray], X: np.ndarray,
                     problem: MareProblem) -> np.ndarray:
    """Affine envelope of the m-slot update cascade at fixed gains.

    Touches update_cascade(X) at the optimal gains and dominates it for
    every other gain tuple.
    """
    X = sym(np.asarray(X, dtype=float))
    return _envelope(gains, X, problem, problem.system.r_diag())


def riccati_envelope(gains: Sequence[np.ndarray], X: np.ndarray,
                     problem: MareProblem) -> np.ndarray:
    """Affine envelope of the full composite map: the cascade envelope
    seeded with the time update of X."""
    return cascade_envelope(gains, time_update(np.asarray(X, dtype=float),
                                              problem.system), problem)


def linear_part(Y: np.ndarray, gains: Sequence[np.ndarray],
                problem: MareProblem) -> np.ndarray:
    """The linear-in-X part of riccati_envelope as an operator applied to Y,
    one (n, n) matrix or a stack (..., n, n).

    Strips Q and all gain-noise terms, so riccati_envelope(gains, X)
    minus linear_part(X, gains) is a constant PSD matrix.  Contractivity
    of this operator at certificate gains is what forces fixed-point
    iterates together.
    """
    sysm = problem.system
    H = sym(sysm.A @ np.asarray(Y, dtype=float) @ sysm.A.T)
    return _envelope(gains, H, problem, np.zeros(problem.m))


def optimal_gains(X: np.ndarray, problem: MareProblem) -> list[np.ndarray]:
    """Sequentially optimal envelope gains at X.

    Gain j is the minimizer -T c'(c T c' + r)^{-1} evaluated at the
    running cascade value T, so plugging the result back into
    cascade_envelope reproduces update_cascade(X).
    """
    _, gains = _cascade(sym(np.asarray(X, dtype=float)), problem)
    return [-g for g in gains]


def _affine_fixed_point(gains: Sequence[np.ndarray], problem: MareProblem,
                        X: np.ndarray) -> tuple[Optional[np.ndarray], np.ndarray]:
    """Solve P = riccati_envelope(gains, P) and W = riccati_envelope(gains,
    W) + I in one factorization, and decide whether the envelope
    contracts.

    The linear part L maps symmetric matrices to symmetric matrices; M
    is its k x k matrix, k = n(n+1)/2, in the orthonormal basis E_ii,
    (E_ij + E_ji)/sqrt(2) of them.  L is a positive map, so rho(L) < 1
    exactly when some W > 0 has W - L(W) > 0 (Schneider, Numer. Math. 7,
    1965): W - L(W) = riccati_envelope(gains, 0) + I > 0, so a Cholesky
    factorization of W proves rho < 1, and rho < 1 gives W >= I.
    Returns (S, M) with S the stack (P, W), or None where I - M is
    singular or W fails its Cholesky.  The system is written where X, an
    estimate of P's scale, is the identity (congruence by T = X^(1/2),
    eigenvalues floored at 1e-12 of the largest): next to a fixed point
    whose eigenvalues spread over many decades the plain system can have
    condition number 1e10 and lose six digits, the scaled one stays well
    conditioned.
    """
    n = problem.n
    ev, V = np.linalg.eigh(sym(X))
    root = np.sqrt(np.maximum(ev, 1e-12 * ev[-1])) if ev[-1] > 0.0 else np.ones(n)
    T, T_inv = V * root, (V / root).T
    rows, cols = np.triu_indices(n)
    # basis element (i, j) under the congruence: w sym(t_i t_j'), t_i
    # column i of T, w = sqrt(2) off the diagonal
    w = np.where(rows == cols, 1.0, np.sqrt(2.0))[:, None]
    basis = w[..., None] * sym(np.einsum("ik,jk->kij", T[:, rows], T[:, cols]))
    M = w * (T_inv @ linear_part(basis, gains, problem) @ T_inv.T)[:, rows, cols].T
    const = riccati_envelope(gains, np.zeros((n, n)), problem)
    # the right sides, overwritten by the solutions
    S = T_inv @ np.stack((const, const + np.eye(n))) @ T_inv.T
    try:
        S[:, rows, cols] = S[:, cols, rows] = (
            np.linalg.solve(np.eye(rows.size) - M, w * S[:, rows, cols].T) / w).T
        np.linalg.cholesky(S[1])
    except np.linalg.LinAlgError:
        return None, M
    return sym(T @ S @ T.T), M


@dataclass
class FixedPointResult:
    status: str                       # "converged", "diverged", "undetermined"
    fixed_point: Optional[np.ndarray]
    iterations: int                   # map applications plus policy steps
    trace_history: np.ndarray         # trace of X0 and of every iterate

    @property
    def converged(self) -> bool:
        return self.status == "converged"


# After the policy jump the iterate sits at the fixed point up to
# round-off; a step that has not reached a new minimum for this many map
# applications is jitter, not progress.
_STALL_STEPS = 50


def iterate_fixed_point(problem: MareProblem, X0: Optional[np.ndarray] = None,
                        tol: float = DEFAULT_TOL) -> FixedPointResult:
    """Fixed point of the composite map from X0 (default 0).

    1. If the necessary check fails and Q > 0 (``_necessary_decides``),
       return "diverged" after 0 iterations.
    2. Otherwise apply the map (value iteration).  After map
       applications 1, 2, 4, 8, ... take the optimal gains at the
       iterate; once their envelope has rho < 1, jump: run policy steps
       (solve the affine fixed point at the gains, reset the gains to
       optimal_gains(time_update(X))) until a step is small (as in 3)
       or stops shrinking, then resume value iteration from there.  The
       jump is taken once.
    3. Convergence is declared only when
       max|map(X) - X| <= ``tol`` * max(1, max|X|): ``tol`` is relative
       to the iterate's largest entry once that exceeds 1, because the
       map's round-off floor is relative, and absolute below that.
       Scaling Q, R and X0 by c > 0 scales every iterate by c, so the
       verdict does not change with the units while max|X| stays >= 1.
       A trace past the ceiling (``_past_ceiling``: NaN and inf are
       past it) means "diverged".  After the jump, a step that makes
       no new minimum for 50 map applications means round-off has
       stalled the iteration above that bound: "undetermined".  Running
       out of ``DEFAULT_MAX_ITER`` map applications plus policy steps is
       "undetermined" as well.  ``tol`` must be finite and > 0, and X0
       a finite, symmetric PSD (n, n) matrix.

    ``iterations`` counts map applications plus policy steps, and
    ``trace_history`` holds the trace of X0 followed by the trace of
    each of those iterates in order.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    n = problem.n
    X = np.zeros((n, n)) if X0 is None else np.asarray(X0, dtype=float)
    if X.shape != (n, n) or not np.isfinite(X).all():
        raise ValueError(f"X0 must be a finite ({n}, {n}) matrix, got shape {X.shape}")
    _check_spd(X, "X0", allow_semidefinite=True)
    X = sym(X)
    traces = [float(np.trace(X))]

    def result(status, fixed_point=None):
        return FixedPointResult(status, fixed_point, len(traces) - 1,
                                np.asarray(traces))

    if _necessary_decides(problem):
        return result("diverged")
    jumped = False
    next_probe = 1
    best, since_best = np.inf, 0
    while len(traces) <= DEFAULT_MAX_ITER:
        Xn = riccati_map(X, problem)
        tr = float(np.trace(Xn))
        traces.append(tr)
        if _past_ceiling(tr):
            return result("diverged")
        step = float(np.max(np.abs(Xn - X)))
        if _settled(step, X, tol):
            return result("converged", Xn)
        X = Xn
        if jumped:
            if step < best:
                best, since_best = step, 0
            else:
                since_best += 1
                if since_best >= _STALL_STEPS:
                    return result("undetermined")
        elif len(traces) - 1 == next_probe:
            next_probe *= 2
            X, jumped = _policy_steps(X, problem, tol, traces)
    return result("undetermined")


def _settled(step: float, X: np.ndarray, tol: float) -> bool:
    """The convergence test of ``iterate_fixed_point``, for a step taken
    from the iterate X."""
    return step <= tol * max(1.0, float(np.max(np.abs(X))))


def _policy_steps(X: np.ndarray, problem: MareProblem, tol: float,
                  traces: list) -> tuple[np.ndarray, bool]:
    """Hewer's policy iteration from the optimal gains at X.

    Appends the trace of every policy iterate to ``traces`` and returns
    the last iterate with whether any step was taken (False when the
    gains at X do not make the envelope contract, which
    ``_affine_fixed_point`` decides without eigenvalues).
    """
    last = np.inf
    jumped = False
    while len(traces) <= DEFAULT_MAX_ITER:
        gains = optimal_gains(time_update(X, problem.system), problem)
        fixed, _ = _affine_fixed_point(gains, problem, X)
        if fixed is None:
            break
        step = float(np.max(np.abs(fixed[0] - X)))
        settled = _settled(step, X, tol)
        X, jumped = fixed[0], True
        traces.append(float(np.trace(X)))
        if settled or step >= last:
            break
        last = step
    return X, jumped


@dataclass(frozen=True)
class NecessaryCheck:
    ok: bool
    lhs: float      # prod(1 - lam_i)
    rhs: float      # 1 / spectral_radius(A)^2


def necessary_check(problem: MareProblem) -> NecessaryCheck:
    """Spectral-radius bound every bounded-covariance configuration obeys."""
    lhs = float(np.prod(1.0 - problem.info_rates))
    rho = float(np.max(np.abs(np.linalg.eigvals(problem.system.A))))
    rhs = np.inf if rho == 0.0 else 1.0 / (rho * rho)
    return NecessaryCheck(ok=bool(lhs <= rhs), lhs=lhs, rhs=float(rhs))


def _necessary_decides(problem: MareProblem) -> bool:
    """True when the failed necessary check alone proves divergence.

    riccati_map(X) >= s (A X A' + Q) with s = prod(1 - lam_i).  For a
    left eigenvector v of A with eigenvalue mu, a fixed point X would
    give (1 - s |mu|^2) v*Xv >= s v*Qv.  If s |mu|^2 > 1 the left side
    is <= 0, so Q > 0 leaves no fixed point.  With a singular Q the
    dominant mode may be unexcited and a finite fixed point may exist.
    """
    return not necessary_check(problem).ok and problem.system._q_definite


@dataclass(frozen=True)
class Certificate:
    """Witness of the sufficient condition: feasible gains, a strictly
    feasible matrix with its feasibility margin (min eigenvalue of
    matrix - riccati_envelope(gains, matrix)), and the contraction
    factor rho(linear_part) at the gains (from its matrix on symmetric
    matrices), whose gap below 1 measures how far the gains are from the
    stability boundary."""

    gains: list
    matrix: np.ndarray
    margin: float
    contraction: float


@dataclass(frozen=True)
class SufficientCheck:
    ok: bool
    certificate: Optional[Certificate]


def sufficient_check(problem: MareProblem,
                     fixed_point: Optional[FixedPointResult] = None,
                     ) -> SufficientCheck:
    """Decide the sufficient condition at the fixed point's gains.

    Takes the optimal envelope gains at the fixed point reached from 0
    (``fixed_point`` if given, else a fresh iterate_fixed_point) and
    solves Pt = linear_part(Pt) + riccati_envelope(gains, 0) + I, so
    that Pt - riccati_envelope(gains, Pt) = I.  That solution passes a
    Cholesky factorization exactly when rho(linear_part) < 1, and then
    Pt >= I, so the result is exact at these gains and the margin is 1
    up to round-off; rho, reported as the contraction, is the one set of
    eigenvalues taken.  False means the fixed point did not converge,
    rho >= 1 at these gains, or the margin is not positive; other gains
    are not tried.
    """
    fp = fixed_point if fixed_point is not None else iterate_fixed_point(problem)
    if not fp.converged:
        return SufficientCheck(ok=False, certificate=None)
    gains = optimal_gains(time_update(fp.fixed_point, problem.system), problem)
    fixed, M = _affine_fixed_point(gains, problem, fp.fixed_point)
    rho = float(np.max(np.abs(np.linalg.eigvals(M))))
    if fixed is None:
        if rho < 1.0:
            # Pt = sum_k L^k(envelope(0) + I) >= I for a contracting
            # completely positive L; hitting this would mean the envelope
            # algebra is broken.
            raise AssertionError("certificate matrix is not positive definite")
        return SufficientCheck(ok=False, certificate=None)
    Pt = fixed[1]
    margin = min_eig(Pt - riccati_envelope(gains, Pt, problem))
    if not margin > 0.0:
        return SufficientCheck(ok=False, certificate=None)
    return SufficientCheck(ok=True, certificate=Certificate(
        gains=gains, matrix=Pt, margin=float(margin), contraction=rho))


@dataclass
class MareReport:
    """Everything the stability analysis produced, JSON-serializable: the
    ``iterate_fixed_point`` result as it came, both checks and messages."""

    fixed: FixedPointResult
    necessary: NecessaryCheck
    sufficient: SufficientCheck
    messages: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        fp = self.fixed
        cert = self.sufficient.certificate
        return {
            "status": fp.status,
            "fixed_point": None if fp.fixed_point is None else fp.fixed_point.tolist(),
            "iterations": fp.iterations,
            "trace_history": [float(t) for t in fp.trace_history],
            "necessary": {"lhs": self.necessary.lhs, "rhs": self.necessary.rhs,
                          "ok": self.necessary.ok},
            "sufficient": {
                "ok": self.sufficient.ok,
                "margin": None if cert is None else cert.margin,
                "contraction": None if cert is None else cert.contraction,
                "gains": None if cert is None else [g.tolist() for g in cert.gains],
                "p_tilde": None if cert is None else cert.matrix.tolist(),
            },
            "messages": list(self.messages),
        }


def analyze(problem: MareProblem) -> MareReport:
    """Fixed point from 0 (iterate_fixed_point at its defaults), then the
    necessary check and the sufficient check at that fixed point."""
    messages: list = []
    fp = iterate_fixed_point(problem)
    if fp.converged and min_eig(fp.fixed_point) <= 0.0:
        if problem.system._q_definite:
            # With full-rank process noise the limit of the monotone
            # iteration is strictly positive definite; anything else
            # means the operator algebra is broken.
            raise AssertionError("fixed point is not positive definite "
                                 "despite Q > 0")
        # Possible when Q is singular PSD; recorded, not fatal.
        messages.append("fixed point is singular positive semidefinite")
    # diverged at iteration 0 is exactly where _necessary_decides holds
    if fp.status == "diverged" and fp.iterations == 0:
        messages.append("diverged without iterating: the necessary condition "
                        "fails and Q > 0")
    return MareReport(fixed=fp, necessary=necessary_check(problem),
                      sufficient=sufficient_check(problem, fixed_point=fp),
                      messages=messages)
