"""Small symmetric-matrix helpers shared across the package."""

from __future__ import annotations

import functools

import numpy as np

# A symmetric matrix passes the PSD check when its minimum eigenvalue is
# no smaller than -PSD_RTOL * (1 + max eigenvalue).  This absorbs the
# symmetrization noise of repeated congruence updates.
PSD_RTOL = 1e-10


def sym(M: np.ndarray) -> np.ndarray:
    """Symmetric part (M + M') / 2."""
    return 0.5 * (M + np.swapaxes(M, -1, -2))


def min_eig(M: np.ndarray) -> float:
    """Smallest eigenvalue of the symmetric part of M."""
    return float(np.linalg.eigvalsh(sym(M))[..., 0])


def psd_floor(M: np.ndarray, band: float = 1e-10) -> np.ndarray:
    """Symmetrize, then clip round-off negative eigenvalues in (-band, 0).

    Takes one (n, n) matrix or a stack (..., n, n) and returns the
    symmetric part with every row's round-off negatives set to zero.
    Eigenvalues at or below -band are left alone so genuine violations
    stay visible to the invariant checks, and rows holding NaN or inf
    are never repaired.  For n == 1 the clip is elementwise.

    Certificate.  Let delta = 1e-12 * (1 + tr S) per row and u the unit
    round-off.  If the Cholesky factorization of S - delta I succeeds,
    the computed factor is exact for S - delta I + E with
    ||E|| <= c1 n^2 u ||S|| (Higham, *Accuracy and Stability of Numerical
    Algorithms*, thm. 10.3), so lambda_min(S) >= delta - c1 n^2 u ||S||
    and ||S|| <= tr S up to that same tiny term.  ``eigvalsh`` is
    backward stable, so its smallest computed eigenvalue is within
    c2 n u ||S|| of lambda_min(S) and hence at least
    delta - (c1 n^2 + c2 n) u tr S.  For the state dimensions this
    package handles (n up to a few tens), (c1 n^2 + c2 n) u stays well
    below 1e-12, so that bound is positive: the eigenvalue floor could
    not have fired on any row, and S is returned as is without an
    eigendecomposition.  (delta < 0 needs tr S < -1, and then S - delta I
    keeps an eigenvalue near tr S / n < 0, so the factorization fails.)

    Repair.  When the factorization fails, the exact eigenvalue floor
    runs on the finite rows and rebuilds only those whose smallest
    eigenvalue lies in (-band, 0).
    """
    S = sym(M)
    n = S.shape[-1]
    if n == 1:
        return np.where((S < 0.0) & (S > -band), 0.0, S)
    shift = (S.trace(axis1=-2, axis2=-1) + 1.0)[..., None, None] * _delta_eye(n)
    try:
        np.linalg.cholesky(S - shift)
    except np.linalg.LinAlgError:
        return _eigen_floor(S, band)
    return S


@functools.lru_cache(maxsize=None)
def _delta_eye(n: int) -> np.ndarray:
    """1e-12 * I, so that (1 + tr S) times it is delta * I."""
    eye = 1e-12 * np.eye(n)
    eye.setflags(write=False)
    return eye


def _eigen_floor(S: np.ndarray, band: float) -> np.ndarray:
    """Exact floor: clip eigenvalues of rows whose minimum is in (-band, 0)."""
    n = S.shape[-1]
    flat = S.reshape(-1, n, n)
    rows = np.flatnonzero(np.isfinite(flat).all(axis=(1, 2)))
    lo = np.linalg.eigvalsh(flat[rows])[:, 0]
    rows = rows[(lo < 0.0) & (lo > -band)]
    if rows.size == 0:
        return S
    w, U = np.linalg.eigh(flat[rows])
    w = np.clip(w, 0.0, None)
    fixed = flat.copy()
    fixed[rows] = sym((U * w[:, None, :]) @ np.swapaxes(U, 1, 2))
    return fixed.reshape(S.shape)


def psd_factor(M: np.ndarray) -> np.ndarray:
    """A factor L with L L' = M for symmetric PSD M.

    Cholesky when M is numerically PD; otherwise an eigenvalue-floored
    square root, which keeps sampling exact on the PSD boundary (Q = 0,
    rank-deficient covariances).
    """
    S = sym(np.asarray(M, dtype=float))
    try:
        return np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        w, U = np.linalg.eigh(S)
        w = np.clip(w, 0.0, None)
        return U * np.sqrt(w)
