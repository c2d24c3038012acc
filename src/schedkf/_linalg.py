"""Small symmetric-matrix helpers shared across the package: the one time
update and the one weighted rank-one covariance update of the filter, the
batched engine and the Riccati operator, and the PSD guard, which runs
once per step."""

from __future__ import annotations

import functools

import numpy as np

# A symmetric matrix passes the PSD check when its minimum eigenvalue is
# no smaller than -PSD_RTOL * (1 + max eigenvalue).  This absorbs the
# symmetrization noise of repeated congruence updates.
PSD_RTOL = 1e-10

# psd_floor repairs only eigenvalues in (-PSD_BAND, 0): round-off, not a
# genuine loss of definiteness.
PSD_BAND = 1e-10


def sym(M: np.ndarray) -> np.ndarray:
    """Symmetric part (M + M') / 2."""
    return 0.5 * (M + np.swapaxes(M, -1, -2))


def min_eig(M: np.ndarray) -> float:
    """Smallest eigenvalue of the symmetric part of M."""
    return float(np.linalg.eigvalsh(sym(M))[..., 0])


def time_update(P: np.ndarray, A: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """sym(A P A' + Q), row by row over any leading batch axes of P.
    ``matmul`` computes every row of a stack as it would compute that row
    alone, so a batch of one gives the same bits as the full batch."""
    return sym(A @ P @ A.T + Q)


def innovation_terms(P: np.ndarray, c: np.ndarray, r) -> tuple:
    """P c and the innovation variance s = c'Pc + r of one scalar slot,
    row by row over any leading batch axes of P."""
    Pc = np.einsum("...jk,k->...j", P, c)
    return Pc, np.einsum("...j,j->...", Pc, c) + r


def weighted_update(P: np.ndarray, Pc: np.ndarray, s, t) -> tuple:
    """P - (t/s) (Pc)(Pc)' and the gain Pc/s, with Pc and s from
    ``innovation_terms`` and t (a scalar or per row) the slot's weight.
    Entries (i, j) and (j, i) of (Pc)(Pc)' are the same product, so the
    rank-one term is symmetric bit for bit and a symmetric P stays
    exactly symmetric without a ``sym``.  Intermediate slot values feed
    only s > 0, so no PSD floor runs here."""
    s = np.asarray(s)
    weight = (np.asarray(t) / s)[..., None, None]
    return P - weight * (Pc[..., :, None] * Pc[..., None, :]), Pc / s[..., None]


def psd_floor(M: np.ndarray) -> np.ndarray:
    """Symmetrize, then clip round-off negative eigenvalues in (-PSD_BAND, 0).

    Takes one (n, n) matrix or a stack (..., n, n) and returns the
    symmetric part with every row's round-off negatives set to zero.
    Eigenvalues at or below -PSD_BAND are left alone so genuine violations
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
    eigenvalue lies in (-PSD_BAND, 0).
    """
    S = sym(M)
    n = S.shape[-1]
    if n == 1:
        return np.where((S < 0.0) & (S > -PSD_BAND), 0.0, S)
    shift = (S.trace(axis1=-2, axis2=-1) + 1.0)[..., None, None] * _delta_eye(n)
    try:
        np.linalg.cholesky(S - shift)
    except np.linalg.LinAlgError:
        return _eigen_floor(S)
    return S


@functools.lru_cache(maxsize=None)
def _delta_eye(n: int) -> np.ndarray:
    """1e-12 * I, so that (1 + tr S) times it is delta * I."""
    eye = 1e-12 * np.eye(n)
    eye.setflags(write=False)
    return eye


def _eigen_floor(S: np.ndarray) -> np.ndarray:
    """Exact floor: clip eigenvalues of rows whose minimum is in
    (-PSD_BAND, 0)."""
    n = S.shape[-1]
    flat = S.reshape(-1, n, n)
    rows = np.flatnonzero(np.isfinite(flat).all(axis=(1, 2)))
    lo = np.linalg.eigvalsh(flat[rows])[:, 0]
    rows = rows[(lo < 0.0) & (lo > -PSD_BAND)]
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
