"""Linear stochastic plant definition, structural checks, and whitening.

The estimator stack assumes a discrete-time model

    x[k+1] = A x[k] + w[k],      w ~ N(0, Q)
    y[k]   = C x[k] + v[k],      v ~ N(0, R)

with x[0] ~ N(x0_mean, P0).  Measurement components are processed one at
a time, which is equivalent to the batch update only when R is diagonal;
``whiten`` rotates any correlated R into that form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ._linalg import PSD_RTOL, sym

__all__ = ["LinearSystem", "ValidationReport", "validate", "whiten"]


def _as_matrix(value, name: str) -> np.ndarray:
    M = np.atleast_2d(np.asarray(value, dtype=float))
    if M.ndim != 2:
        raise ValueError(f"{name} must be a 2-d array, got shape {M.shape}")
    return M


def _check_spd(M: np.ndarray, name: str, *, allow_semidefinite: bool) -> None:
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


def is_diagonal(M: np.ndarray) -> bool:
    """Off-diagonal entries vanish up to 1e-12 * (1 + max |M|).

    The sequential filter and the Riccati operator need a diagonal R;
    this is the one tolerance every caller applies.
    """
    off = M - np.diag(np.diag(M))
    return bool(np.max(np.abs(off), initial=0.0)
                <= 1e-12 * (1.0 + np.max(np.abs(M))))


@dataclass(frozen=True)
class LinearSystem:
    """Plant matrices plus the initial-state prior.

    Immutable after construction so instances can be shared read-only
    across parallel Monte Carlo workers.
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

        n = A.shape[0]
        if A.shape != (n, n):
            raise ValueError(f"A must be square, got shape {A.shape}")
        if C.shape[1] != n:
            raise ValueError(f"C must have {n} columns, got shape {C.shape}")
        m = C.shape[0]
        if Q.shape != (n, n):
            raise ValueError(f"Q must be {n}x{n}, got shape {Q.shape}")
        if R.shape != (m, m):
            raise ValueError(f"R must be {m}x{m}, got shape {R.shape}")
        if x0.shape != (n,):
            raise ValueError(f"x0_mean must have length {n}, got shape {x0.shape}")
        if P0.shape != (n, n):
            raise ValueError(f"P0 must be {n}x{n}, got shape {P0.shape}")

        _check_spd(Q, "Q", allow_semidefinite=True)
        _check_spd(R, "R", allow_semidefinite=False)
        _check_spd(P0, "P0", allow_semidefinite=False)

        for name, arr in (("A", A), ("C", C), ("Q", Q), ("R", R),
                          ("x0_mean", x0), ("P0", P0)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        """State dimension."""
        return self.A.shape[0]

    @property
    def m(self) -> int:
        """Measurement dimension (number of transmission slots per step)."""
        return self.C.shape[0]

    def r_diag(self) -> np.ndarray:
        """Diagonal of R, the per-slot measurement noise variances."""
        return np.diag(self.R)

    @classmethod
    def from_dict(cls, data: dict) -> "LinearSystem":
        """Build from a JSON-style dict with keys A, C, Q, R, x0_mean, P0."""
        missing = {"A", "C", "Q", "R", "x0_mean", "P0"} - set(data)
        if missing:
            raise ValueError(f"system definition missing keys: {sorted(missing)}")
        return cls(A=data["A"], C=data["C"], Q=data["Q"], R=data["R"],
                   x0_mean=data["x0_mean"], P0=data["P0"])

    @classmethod
    def from_json(cls, text: str) -> "LinearSystem":
        return cls.from_dict(json.loads(text))

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
    r_diagonal: bool
    messages: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.controllable and self.observable and self.r_diagonal


def _numeric_rank(M: np.ndarray, n: int, messages: list, label: str) -> int:
    sv = np.linalg.svd(M, compute_uv=False)
    smax = sv[0] if sv.size else 0.0
    if smax == 0.0:
        return 0
    tol = n * np.finfo(float).eps * smax
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
    """Rank-test controllability of (A, sqrt(Q)) and observability of (C, A),
    and check that R is diagonal."""
    n = sys.n
    messages: list = []

    w, U = np.linalg.eigh(sym(sys.Q))
    Qh = (U * np.sqrt(np.clip(w, 0.0, None))) @ U.T
    blocks = [Qh]
    for _ in range(n - 1):
        blocks.append(sys.A @ blocks[-1])
    ctrb = np.hstack(blocks)
    controllable = _numeric_rank(ctrb, n, messages, "controllability") == n
    if not controllable:
        messages.append("(A, sqrt(Q)) is not controllable")

    blocks = [sys.C]
    for _ in range(n - 1):
        blocks.append(blocks[-1] @ sys.A)
    obsv = np.vstack(blocks)
    observable = _numeric_rank(obsv, n, messages, "observability") == n
    if not observable:
        messages.append("(C, A) is not observable")

    r_diagonal = is_diagonal(sys.R)
    if not r_diagonal:
        messages.append("R is not diagonal; whiten the system before filtering")

    return ValidationReport(controllable=controllable, observable=observable,
                            r_diagonal=r_diagonal, messages=messages)


def whiten(sys: LinearSystem) -> LinearSystem:
    """Rescale measurements so the noise covariance becomes the identity.

    Uses the unique symmetric inverse square root of R, so for diagonal R
    this divides row i of C by sqrt(R_i).  The state equation and prior
    are untouched, and the filter's covariance sequence is invariant
    under the transform.
    """
    w, U = np.linalg.eigh(sym(sys.R))
    if w[0] <= 0.0:
        raise ValueError(
            f"R is not positive definite: eigenvalue {w[0]:.6e} <= 0"
        )
    R_inv_half = (U / np.sqrt(w)) @ U.T
    m = sys.m
    return LinearSystem(A=sys.A, C=R_inv_half @ sys.C, Q=sys.Q,
                        R=np.eye(m), x0_mean=sys.x0_mean, P0=sys.P0)
