"""The shared PSD floor: when it fires, when it must not, and that its
Cholesky certificate never skips a row the eigenvalue floor would fix."""

import numpy as np
import pytest

from schedkf._linalg import _eigen_floor, psd_floor, sym

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
    assert np.array_equal(psd_floor(stack), _eigen_floor(stack, BAND))
    for M in stack:
        assert np.array_equal(psd_floor(M), _eigen_floor(M, BAND))
