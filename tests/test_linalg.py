"""The shared PSD floor: when it fires, when it must not, and that its
Cholesky certificate never skips a row the eigenvalue floor would fix.
The weighted rank-one update kernel against a textbook update, and it and
the time update on stacks against single rows and, bit for bit, against
their plain reference forms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from schedkf import _linalg, component_stats
from schedkf._linalg import (
    _eigen_floor,
    innovation_terms,
    psd_floor,
    sym,
    time_update,
    weighted_update,
)

BAND = 1e-10


def with_spectrum(eigs, seed=0):
    """Exactly symmetric matrix with the given eigenvalues."""
    eigs = np.asarray(eigs, dtype=float)
    n = eigs.size
    U, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    return sym((U * eigs) @ U.T)


def spectrum(n, smallest):
    """Smallest eigenvalue first, the rest spread over [0.5, 2]."""
    return np.concatenate(([smallest], np.linspace(0.5, 2.0, n - 1)))


def min_eig(M):
    return np.linalg.eigvalsh(M)[..., 0]


@pytest.mark.parametrize("n", [1, 4])
class TestPsdFloor:
    def test_round_off_negative_is_clipped(self, n):
        M = with_spectrum(spectrum(n, -1e-12))
        assert -BAND < min_eig(M) < 0.0
        out = psd_floor(M)
        assert abs(min_eig(out)) <= 1e-15
        assert np.allclose(out, M, atol=1e-11, rtol=0.0)

    def test_genuine_violation_left_alone(self, n):
        M = with_spectrum(spectrum(n, -1e-6))
        assert np.array_equal(psd_floor(M), M)

    def test_positive_definite_bit_identical(self, n):
        M = with_spectrum(spectrum(n, 1e-3))
        assert np.array_equal(psd_floor(M), M)

    def test_stack_repairs_only_the_round_off_row(self, n):
        stack = np.stack([with_spectrum(spectrum(n, lo), seed)
                          for seed, lo in enumerate([1e-3, -1e-12, 0.2, -1e-6])])
        out = psd_floor(stack)
        assert out.shape == stack.shape
        for row in (0, 2, 3):
            assert np.array_equal(out[row], stack[row])
        assert not np.array_equal(out[1], stack[1])
        assert abs(min_eig(out[1])) <= 1e-15

    # inf rows turn into NaN in the shifted copy, which numpy reports
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_stack_with_non_finite_row_does_not_raise(self, n, bad):
        good = with_spectrum(spectrum(n, 1e-3))
        round_off = with_spectrum(spectrum(n, -1e-12), seed=1)
        poisoned = np.full((n, n), bad)
        out = psd_floor(np.stack([good, poisoned]))
        assert np.array_equal(out[0], good)
        assert np.array_equal(out[1], poisoned, equal_nan=True)
        # a row that does need repair forces the eigenvalue path
        out = psd_floor(np.stack([good, poisoned, round_off]))
        assert np.array_equal(out[:2], np.stack([good, poisoned]),
                              equal_nan=True)
        assert abs(min_eig(out[2])) <= 1e-15


def test_symmetrizes_its_input():
    M = with_spectrum([0.5, 1.0, 2.0])
    M[0, 1] += 1e-9
    out = psd_floor(M)
    assert np.array_equal(out, out.T)
    assert np.array_equal(out, sym(M))


@pytest.mark.parametrize("n", [2, 4, 8])
@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_certificate_agrees_with_eigenvalue_floor(n, scale):
    # The Cholesky shortcut may only return early where the exact floor
    # would have changed nothing, so the two agree bit for bit.  Smallest
    # eigenvalues at and around zero are where an unshifted factorization
    # would wrongly succeed.
    smallest = [-1e-6, -1e-10, -1e-12, -1e-15, -1e-16, 0.0, 1e-17, 1e-16,
                1e-14, 1e-12, 1e-9, 0.1]
    stack = scale * np.stack([with_spectrum(spectrum(n, lo), seed)
                              for lo in smallest for seed in range(25)])
    assert np.array_equal(psd_floor(stack), _eigen_floor(stack))
    for M in stack:
        assert np.array_equal(psd_floor(M), _eigen_floor(M))


DROP_SHRINK = component_stats(1.3, 0.4).drop_shrink


def random_psd(rng, n, rows=None):
    shape = (n, n) if rows is None else (rows, n, n)
    B = rng.standard_normal(shape)
    return B @ np.swapaxes(B, -1, -2) + 0.1 * np.eye(n)


def textbook_update(P, c, r, t):
    """Independent oracle: P - t K (c P) with the gain K = P c / (c P c + r)."""
    K = P @ c / (c @ P @ c + r)
    return P - t * np.outer(K, c @ P)


class TestWeightedUpdate:
    @pytest.mark.parametrize("n", [1, 2, 4])
    @pytest.mark.parametrize("t", [0.0, DROP_SHRINK, 1.0])
    def test_matches_textbook_update(self, n, t):
        rng = np.random.default_rng(n)
        for _ in range(20):
            P = random_psd(rng, n)
            c = rng.standard_normal(n)
            r = float(rng.uniform(0.05, 2.0))
            Pc, s = innovation_terms(P, c, r)
            out, gain = weighted_update(P, Pc, s, t)
            want = textbook_update(P, c, r, t)
            scale = 1.0 + np.max(np.abs(P))
            assert np.max(np.abs(out - want)) <= 1e-12 * scale
            assert np.max(np.abs(gain - P @ c / (c @ P @ c + r))) <= 1e-12 * scale
            assert s == pytest.approx(c @ P @ c + r, rel=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_stack_equals_rows_bit_for_bit(self, n):
        # records from a batch equal simulate_trial because every row is
        # computed as it would be alone
        rng = np.random.default_rng(10 + n)
        rows = 37
        P = random_psd(rng, n, rows)
        c = rng.standard_normal(n)
        t = np.where(rng.random(rows) < 0.5, 1.0, DROP_SHRINK)
        Pc, s = innovation_terms(P, c, 0.3)
        out, gain = weighted_update(P, Pc, s, t)
        for row in range(rows):
            Pc_r, s_r = innovation_terms(P[row], c, 0.3)
            out_r, gain_r = weighted_update(P[row], Pc_r, s_r, t[row])
            assert np.array_equal(Pc[row], Pc_r) and s[row] == s_r
            assert np.array_equal(out[row], out_r)
            assert np.array_equal(gain[row], gain_r)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_time_update_stack_equals_rows_bit_for_bit(self, n):
        # the engine's batch and the filter's batch of one share these bits
        rng = np.random.default_rng(30 + n)
        rows = 37
        P = random_psd(rng, n, rows)
        A = rng.standard_normal((n, n))
        Q = random_psd(rng, n)
        out = time_update(P, A, Q)
        want = np.einsum("ij,tjk,lk->til", A, P, A) + Q
        assert np.max(np.abs(out - want)) <= 1e-12 * np.max(np.abs(want))
        for row in range(rows):
            assert np.array_equal(out[row], time_update(P[row], A, Q))
        assert np.array_equal(out, np.swapaxes(out, -1, -2))

    @pytest.mark.parametrize("n", [2, 4])
    def test_output_exactly_symmetric(self, n, monkeypatch):
        # the rank-one term is symmetric bit for bit, so a symmetric P
        # stays so with no symmetrization anywhere in the kernel
        def no_sym(M):
            raise AssertionError("weighted_update called sym")

        monkeypatch.setattr(_linalg, "sym", no_sym)
        rng = np.random.default_rng(20 + n)
        P = sym(random_psd(rng, n, 50))
        Pc, s = innovation_terms(P, rng.standard_normal(n), 0.7)
        per_row = np.where(rng.random(50) < 0.5, 1.0, DROP_SHRINK)
        for t in (DROP_SHRINK, per_row):
            out, _ = weighted_update(P, Pc, s, t)
            assert np.array_equal(out, np.swapaxes(out, -1, -2))
            for row in (0, 17):
                one, _ = weighted_update(P[row], Pc[row], s[row], 0.3)
                assert np.array_equal(one, one.T)


@settings(max_examples=120, deadline=None)
@given(n=hst.integers(1, 8), batch=hst.sampled_from([(), (1,), (3,), (1024,)]),
       per_row=hst.booleans(), seed=hst.integers(0, 2**32 - 1))
def test_kernels_equal_their_reference_forms_bit_for_bit(n, batch, per_row, seed):
    # mare's fixed point, the engine and filter.step share these kernels,
    # and two tests sit at the solver's round-off floor, so a rewrite of
    # a kernel may change its speed but not one bit of its result
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3.0, 3.0)
    B = rng.standard_normal(batch + (n, n))
    P = sym(scale * (B @ np.swapaxes(B, -1, -2) + 0.1 * np.eye(n)))
    A = rng.standard_normal((n, n))
    Q = random_psd(rng, n)
    assert np.array_equal(time_update(P, A, Q), sym(A @ P @ A.T + Q))

    c = rng.standard_normal(n)
    Pc, s = innovation_terms(P, c, float(rng.uniform(0.05, 2.0)))
    t = (np.where(rng.random(batch) < 0.5, 1.0, rng.random(batch)) if per_row
         else DROP_SHRINK)
    weight = np.asarray(t / s)[..., None, None]
    out, gain = weighted_update(P, Pc, s, t)
    assert np.array_equal(out, P - weight * (Pc[..., :, None] * Pc[..., None, :]))
    assert np.array_equal(gain, Pc / np.asarray(s)[..., None])
