"""Small symmetric-matrix helpers shared across the package: the one time
update and the one weighted rank-one covariance update of the filter, the
batched engine and the Riccati operator, the PSD guard, which runs at
most once per step, and the trace below which Q > 0 proves that guard
idle in the engine (``guard_idle_trace``)."""

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
    alone, so a batch of one gives the same bits as the full batch.  A'
    is made C-contiguous first: it gives the same bits as the strided view
    ``A.T``, with which a stacked product runs inner loops of length n and
    takes up to twice the time."""
    return sym(A @ P @ np.ascontiguousarray(A.T) + Q)


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
    only s > 0, so no PSD floor runs here.

    The term is weighted and subtracted from P in its own buffer, so the
    update allocates one stack, not three.  ``einsum`` would form the same
    products faster on a stack, but its higher fixed cost per call
    outweighs that on a single matrix, where the scalar filter and a
    batch of one run."""
    s = np.asarray(s)
    term = Pc[..., :, None] * Pc[..., None, :]
    term *= (np.asarray(t) / s)[..., None, None]
    return np.subtract(P, term, out=term), Pc / s[..., None]


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

    ``filter.step`` runs it at every step.  The engine runs it only on
    steps after a row's stored trace has passed ``guard_idle_trace``: with
    Q > 0 every covariance it stores is at least the all-delivered
    posterior, so below that bound this function returns its input.
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


# Safety factor on every round-off constant in ``guard_idle_trace``.
_IDLE_SAFETY = 100.0


def guard_idle_trace(A: np.ndarray, Q: np.ndarray, q_min: float,
                     C: np.ndarray, r: np.ndarray) -> float:
    """The trace t* below which one step of the sequential filter leaves
    ``psd_floor`` idle: from a stored covariance P >= 0 with tr P <= t*,
    the next stored covariance comes back from ``psd_floor`` bit for bit.
    ``q_min`` is the computed smallest eigenvalue of Q and ``r`` the
    diagonal of R.  Returns -inf where nothing is proved: Q singular
    (q_min <= 0), a norm that overflows, or no trace that qualifies.

    Lemma.  A step maps P to X_0 = A P A' + Q and then, for slots
    i = 1..m, X_i = g_t(X_{i-1}) with g_t(X) = X - t Xcc'X / (c'Xc + r),
    c = C[i], r = r[i] and t in [0, 1] (1 or ``drop_shrink``).  Then
    g_t(X) >= g_1(X) = (X^-1 + cc'/r)^-1, and g_1 is monotone, so
    X >= aI gives g_t(X) >= h(a) I with h(a) = 1 / (1/a + |c|^2/r).  From
    X_0 >= Q >= lambda_min(Q) I the next P is at least mu I, with
    mu = 1 / (1/lambda_min(Q) + sum_i |c_i|^2/r_i): a lower bound, free
    of inverses, on lambda_min of the all-delivered posterior
    P_min = (Q^-1 + sum_i c_i c_i'/r_i)^-1, whatever was delivered.

    Round-off.  Let u be the unit round-off,
    tau = |A|_F^2 tr P + tr Q and kappa = max_i |c_i|^2/r_i.  Every
    iterate has norm and trace at most tau (tr(A P A') <= |A|_F^2 tr P,
    and the slots only shrink X).  The standard bounds for sums, dot
    products and matrix products (Higham, *Accuracy and Stability of
    Numerical Algorithms*, ch. 3) give each stage a symmetric error of
    norm at most delta = (2n + 6) u tau (1 + kappa tau); the kappa tau^2
    part is the rank-one term's error, through |Pc| <= tau |c| and
    s >= r.  delta also covers eigvalsh's error in q_min and a computed
    ``drop_shrink`` a few ulps above 1.  As h' <= 1, an error at one stage
    lowers every later bound by at most itself, so the stored P has
    lambda_min >= mu - (m + 1) delta.

    Certificate.  The stored P is exactly symmetric (``time_update``
    symmetrizes and ``weighted_update`` keeps it so), so ``psd_floor``'s
    S = sym(P) is P, and ``psd_floor`` changes a row only where the
    row's computed smallest eigenvalue is negative (its Cholesky short
    cut returns S unchanged).  ``eigvalsh`` is backward stable, so that
    eigenvalue is at least lambda_min(S) - 2n(n + 1) u |S|.  Hence
    S comes back unchanged whenever, with every constant taken
    ``_IDLE_SAFETY`` times,

        (m + 1) delta + 2n(n + 1) u tau < mu,

    a quadratic in tau whose positive root tau_max gives
    t* = (tau_max - tr Q) / |A|_F^2.  The P it certifies has
    lambda_min > 0, so by induction from P0 > 0 a row whose stored traces
    have all stayed <= t* never needs the guard.
    """
    if not q_min > 0.0:
        return -np.inf
    n, m = A.shape[0], C.shape[0]
    u = 0.5 * np.finfo(float).eps
    with np.errstate(all="ignore"):
        a_sq = np.einsum("ij,ij->", A, A)  # |A|_F^2
        kappas = np.einsum("ij,ij->i", C, C) / r
        mu = 1.0 / (1.0 / q_min + kappas.sum())
        lin = _IDLE_SAFETY * u * ((m + 1) * (2 * n + 6) + 2 * n * (n + 1))
        quad = _IDLE_SAFETY * u * (m + 1) * (2 * n + 6) * kappas.max()
        tau_max = 2.0 * mu / (lin + np.sqrt(lin * lin + 4.0 * quad * mu))
        t_star = (tau_max - np.trace(Q)) / a_sq
    # NaN (nothing finite) and the 0 of an overflowing |A|_F are not > 0
    return float(t_star) if t_star > 0.0 else -np.inf


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
