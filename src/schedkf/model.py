"""Linear stochastic plant definition and structural checks.

The estimator stack assumes a discrete-time model

    x[k+1] = A x[k] + w[k],      w ~ N(0, Q)
    y[k]   = C x[k] + v[k],      v ~ N(0, R)

with x[0] ~ N(x0_mean, P0).  Measurement components are sent and
processed one per slot, which equals the batch update only when R is
diagonal, so a ``LinearSystem`` refuses any other R.  A correlated R
can be whitened before the system is built (C <- R^(-1/2) C, R <- I);
that is a different experiment, since the thresholds then schedule the
whitened components, not the sensor's own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._linalg import PSD_RTOL, guard_idle_trace, sym

__all__ = ["LinearSystem", "ValidationReport", "validate"]


def _as_matrix(value, name: str) -> np.ndarray:
    M = np.atleast_2d(np.asarray(value, dtype=float))
    if M.ndim != 2:
        raise ValueError(f"{name} must be a 2-d array, got shape {M.shape}")
    return M


def _check_spd(M: np.ndarray, name: str, *, allow_semidefinite: bool) -> float:
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    if not np.allclose(M, M.T, atol=1e-9, rtol=1e-9):
        raise ValueError(f"{name} must be symmetric")
    w = np.linalg.eigvalsh(sym(M))
    floor = -PSD_RTOL * (1.0 + max(w[-1], 0.0))
    if allow_semidefinite:
        if w[0] < floor:
            raise ValueError(
                f"{name} must be positive semidefinite; min eigenvalue {w[0]:.3e}"
            )
    elif w[0] <= 0.0:
        raise ValueError(
            f"{name} must be positive definite; min eigenvalue {w[0]:.3e}"
        )
    return float(w[0])


@dataclass(frozen=True)
class LinearSystem:
    """Plant matrices plus the initial-state prior, with R diagonal.

    Immutable after construction, so one instance can be shared
    read-only by every trial, filter and analysis that uses it.
    """

    A: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    x0_mean: np.ndarray
    P0: np.ndarray

    def __post_init__(self):
        A = _as_matrix(self.A, "A")
        C = _as_matrix(self.C, "C")
        Q = _as_matrix(self.Q, "Q")
        R = _as_matrix(self.R, "R")
        x0 = np.atleast_1d(np.asarray(self.x0_mean, dtype=float))
        P0 = _as_matrix(self.P0, "P0")
        fields = (("A", A), ("C", C), ("Q", Q), ("R", R), ("x0_mean", x0),
                  ("P0", P0))
        for name, arr in fields:
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")

        n = A.shape[0]
        if A.shape != (n, n):
            raise ValueError(f"A must be square, got shape {A.shape}")
        if C.shape[1] != n:
            raise ValueError(f"C must have {n} columns, got shape {C.shape}")
        m = C.shape[0]
        if n == 0 or m == 0:
            raise ValueError(f"the state dimension n and the measurement "
                             f"dimension m must be >= 1, got n={n}, m={m}")
        if Q.shape != (n, n):
            raise ValueError(f"Q must be {n}x{n}, got shape {Q.shape}")
        if R.shape != (m, m):
            raise ValueError(f"R must be {m}x{m}, got shape {R.shape}")
        if x0.shape != (n,):
            raise ValueError(f"x0_mean must have length {n}, got shape {x0.shape}")
        if P0.shape != (n, n):
            raise ValueError(f"P0 must be {n}x{n}, got shape {P0.shape}")

        q_min = _check_spd(Q, "Q", allow_semidefinite=True)
        _check_spd(R, "R", allow_semidefinite=False)
        _check_spd(P0, "P0", allow_semidefinite=False)
        # Slot-by-slot updates are the batch update only for a diagonal R;
        # the tolerance admits the round-off of a computed one.
        off = np.abs(R - np.diag(np.diag(R))).max()
        tol = 1e-12 * (1.0 + np.abs(R).max())
        if off > tol:
            raise ValueError(f"R must be diagonal, got an off-diagonal entry "
                             f"of magnitude {off:.3e} > {tol:.3e}")

        for name, arr in fields:
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "_r_diag", np.diag(R))
        # Decided once: Q > 0 (see ``mare._necessary_decides``).
        object.__setattr__(self, "_q_definite", q_min > 0.0)
        # Decided once: the trace below which the engine's PSD guard is idle.
        object.__setattr__(self, "_guard_idle_trace", guard_idle_trace(
            A, Q, q_min, C, self._r_diag))

    @property
    def n(self) -> int:
        """State dimension."""
        return self.A.shape[0]

    @property
    def m(self) -> int:
        """Measurement dimension (number of transmission slots per step)."""
        return self.C.shape[0]

    def r_diag(self) -> np.ndarray:
        """Diagonal of R, the per-slot measurement noise variances, and so
        all of R, which construction keeps diagonal: the filter, the
        engine and the operator read R only through this."""
        return self._r_diag

    @classmethod
    def from_dict(cls, data: dict) -> "LinearSystem":
        """Build from a JSON-style dict with exactly the keys A, C, Q, R,
        x0_mean, P0."""
        if not isinstance(data, dict):
            raise ValueError("system definition must be a JSON object")
        keys = {"A", "C", "Q", "R", "x0_mean", "P0"}
        missing = keys - set(data)
        if missing:
            raise ValueError(f"system definition missing keys: {sorted(missing)}")
        unknown = set(data) - keys
        if unknown:
            raise ValueError(f"unknown system key(s) {sorted(unknown)}")
        return cls(A=data["A"], C=data["C"], Q=data["Q"], R=data["R"],
                   x0_mean=data["x0_mean"], P0=data["P0"])

    def to_dict(self) -> dict:
        return {
            "A": self.A.tolist(),
            "C": self.C.tolist(),
            "Q": self.Q.tolist(),
            "R": self.R.tolist(),
            "x0_mean": self.x0_mean.tolist(),
            "P0": self.P0.tolist(),
        }


@dataclass
class ValidationReport:
    """Advisory structural checks.

    A failed flag does not stop the filter from running; it only voids
    the stability guarantees that assume these properties.
    """

    controllable: bool
    observable: bool
    messages: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.controllable and self.observable


def _krylov_rank(A: np.ndarray, B: np.ndarray, messages: list, label: str) -> int:
    """Numerical rank of the Krylov matrix [B, AB, ..., A^(n-1) B]: the
    dimension of the smallest A-invariant subspace containing range(B)."""
    n = A.shape[0]
    blocks = [B]
    for _ in range(n - 1):
        blocks.append(A @ blocks[-1])
    sv = np.linalg.svd(np.hstack(blocks), compute_uv=False)
    tol = n * np.finfo(float).eps * sv[0]
    rank = int(np.sum(sv > tol))
    # A singular value hovering just above the cutoff means the rank test
    # is numerically fragile; surface that instead of silently deciding.
    borderline = sv[(sv > tol) & (sv <= 10.0 * tol)]
    if borderline.size:
        messages.append(
            f"{label}: singular value {borderline[-1]:.3e} is within 10x of the "
            f"rank threshold {tol:.3e}; rank decision is numerically fragile"
        )
    return rank


def validate(sys: LinearSystem) -> ValidationReport:
    """Rank-test controllability of (A, sqrt(Q)) and observability of
    (C, A) through (A', C').

    Controllability is rank-tested on the Krylov matrix of Q itself,
    which has the range of any square root's: Q's round-off, ~eps |Q|,
    stays below the rank cutoff, where a square root would turn it into
    a singular value ~sqrt(eps) |Q|^(1/2) and count an unexcited mode as
    reachable."""
    n = sys.n
    messages: list = []

    controllable = _krylov_rank(sys.A, sys.Q, messages, "controllability") == n
    if not controllable:
        messages.append("(A, sqrt(Q)) is not controllable")

    observable = _krylov_rank(sys.A.T, sys.C.T, messages, "observability") == n
    if not observable:
        messages.append("(C, A) is not observable")

    return ValidationReport(controllable=controllable, observable=observable,
                            messages=messages)
