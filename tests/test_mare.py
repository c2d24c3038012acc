"""Composite Riccati operator, envelopes, and stability checks.

The envelopes, which the package computes slot by slot, are validated
against an independently coded route: the same recursion unrolled into
one sum per stage with the coefficients from mixture_weights.  The
rate-1 specializations are validated against textbook information-form
and batch Riccati updates.
"""

import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst
from scipy.linalg import solve_discrete_are

from schedkf import (
    LinearSystem,
    MareProblem,
    analyze,
    iterate_fixed_point,
    mixture_weights,
    necessary_check,
    partial_update,
    sufficient_check,
)
from schedkf.mare import (
    cascade_envelope,
    gain_envelope,
    linear_part,
    optimal_gains,
    riccati_envelope,
    riccati_map,
    time_update,
    update_cascade,
)

EXAMPLE = LinearSystem(A=[[1.2]], C=[[1.0], [1.0]], Q=[[1.0]],
                     R=[[0.1, 0.0], [0.0, 1.0]], x0_mean=[0.0], P0=[[1.0]])


def example_problem(rates=(0.6, 0.6)) -> MareProblem:
    return MareProblem(system=EXAMPLE, info_rates=list(rates))


def random_psd(rng, n, scale=1.0):
    G = rng.standard_normal((n, n))
    return scale * (G @ G.T) / n


def random_problem(rng, n=None, m=None, radius=None):
    n = n or int(rng.integers(1, 5))
    m = m or int(rng.integers(1, 4))
    radius = radius if radius is not None else rng.uniform(0.5, 1.4)
    A = rng.standard_normal((n, n))
    A *= radius / max(np.max(np.abs(np.linalg.eigvals(A))), 1e-12)
    C = rng.standard_normal((m, n))
    Q = random_psd(rng, n) + 0.05 * np.eye(n)
    R = np.diag(rng.uniform(0.1, 2.0, size=m))
    sysm = LinearSystem(A=A, C=C, Q=Q, R=R, x0_mean=np.zeros(n), P0=np.eye(n))
    rates = rng.uniform(0.0, 1.0, size=m)
    return MareProblem(system=sysm, info_rates=rates)


def min_eig(M):
    return float(np.linalg.eigvalsh(0.5 * (M + M.T))[0])


def envelope_unrolled(gains, X, problem, with_noise=True):
    """Oracle for the slot loop: the envelope unrolled into one sum per
    stage with the coefficients from mixture_weights,

        V_s = w_0 X + sum_{j=1..s} w_j (E_j V_{j-1} E_j' + r_j L_j L_j'),

    with E_j = I + L_j c_j and V_0 = X.  with_noise=False drops the
    r L L' terms, which leaves the linear part."""
    sysm = problem.system
    r = np.diag(sysm.R)
    X = np.asarray(X, dtype=float)
    vals = [X]
    for s in range(1, problem.m + 1):
        w = mixture_weights(problem.info_rates, s)
        acc = w[0] * X
        for j in range(1, s + 1):
            L = gains[j - 1]
            E = np.eye(problem.n) + np.outer(L, sysm.C[j - 1])
            term = E @ vals[j - 1] @ E.T
            if with_noise:
                term = term + r[j - 1] * np.outer(L, L)
            acc = acc + w[j] * term
        vals.append(acc)
    return vals[-1]


class TestBasicMaps:
    def test_time_update_examples(self):
        prob = example_problem()
        assert time_update(np.zeros((1, 1)), prob.system)[0, 0] == 1.0
        sysm = LinearSystem(A=np.eye(2), C=[[1.0, 0.0]], Q=np.zeros((2, 2)),
                            R=[[1.0]], x0_mean=[0.0, 0.0], P0=np.eye(2))
        X = np.array([[2.0, 0.3], [0.3, 1.0]])
        assert np.allclose(time_update(X, sysm), X, atol=1e-15)
        assert time_update(np.array([[3.0]]), prob.system)[0, 0] == pytest.approx(5.32)

    def test_partial_update_examples(self):
        X = np.array([[1.0]])
        c = np.array([1.0])
        assert partial_update(X, 0.0, c, 1.0)[0, 0] == 1.0
        assert partial_update(X, 0.6, c, 1.0)[0, 0] == pytest.approx(0.7)

    def test_partial_update_rate_one_information_form(self):
        # for X > 0 and full rate the update equals (X^-1 + c' r^-1 c)^-1
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            X = random_psd(rng, n) + 0.2 * np.eye(n)
            c = rng.standard_normal(n)
            r = float(rng.uniform(0.1, 2.0))
            got = partial_update(X, 1.0, c, r)
            want = np.linalg.inv(np.linalg.inv(X) + np.outer(c, c) / r)
            assert np.allclose(got, want, atol=1e-10)

    def test_riccati_map_zero_rates_is_pure_time_update(self):
        prob = example_problem(rates=(0.0, 0.0))
        X = np.array([[2.5]])
        assert riccati_map(X, prob)[0, 0] == pytest.approx(
            time_update(X, prob.system)[0, 0], rel=1e-15)

    def test_riccati_map_full_rates_equals_batch_riccati(self):
        # sequential scalar updates with diagonal R collapse to the batch
        # posterior Riccati step
        rng = np.random.default_rng(5)
        for _ in range(10):
            prob = random_problem(rng)
            prob = MareProblem(system=prob.system,
                               info_rates=np.ones(prob.m))
            X = random_psd(rng, prob.n)
            sysm = prob.system
            P_pred = sysm.A @ X @ sysm.A.T + sysm.Q
            S = sysm.C @ P_pred @ sysm.C.T + sysm.R
            K = P_pred @ sysm.C.T @ np.linalg.inv(S)
            want = P_pred - K @ sysm.C @ P_pred
            assert np.allclose(riccati_map(X, prob), want, atol=1e-9)

    def test_worked_example_regression_value(self):
        # frozen from evaluating the two scalar partial updates after the
        # time update by hand: 1 -> 0.454545... -> 0.369318...
        got = riccati_map(np.zeros((1, 1)), example_problem())[0, 0]
        assert got == pytest.approx(0.3693181818181818, rel=1e-12)


@hst.composite
def envelope_cases(draw):
    """X >= 0 of any rank and scale 1e-2..1e2, a slot (c, r > 0), a rate
    and an arbitrary gain L."""
    n = draw(hst.integers(1, 4))
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    B = rng.standard_normal((n, draw(hst.integers(1, n))))
    X = 10.0 ** draw(hst.floats(-2.0, 2.0)) * (B @ B.T)
    c = rng.standard_normal(n)
    r = draw(hst.floats(0.05, 10.0))
    rate = draw(hst.floats(0.0, 1.0))
    L = 10.0 ** draw(hst.floats(-2.0, 1.0)) * rng.standard_normal(n)
    return X, c, r, rate, L


class TestGainEnvelope:
    def test_zero_gain_is_identity(self):
        X = np.array([[2.0, 0.1], [0.1, 1.0]])
        got = gain_envelope(np.zeros(2), X, 0.7, np.array([1.0, 0.0]), 0.5)
        assert np.allclose(got, X, atol=1e-15)

    def test_optimal_gain_touches_partial_update(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            X = random_psd(rng, n)
            c = rng.standard_normal(n)
            r = float(rng.uniform(0.1, 2.0))
            rate = float(rng.uniform(0.0, 1.0))
            L = -X @ c / (c @ X @ c + r)
            assert np.allclose(gain_envelope(L, X, rate, c, r),
                               partial_update(X, rate, c, r), atol=1e-10)

    def test_dominates_partial_update(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 4))
            X = random_psd(rng, n)
            c = rng.standard_normal(n)
            r = float(rng.uniform(0.1, 2.0))
            rate = float(rng.uniform(0.0, 1.0))
            L = rng.standard_normal(n)
            gap = gain_envelope(L, X, rate, c, r) - partial_update(X, rate, c, r)
            assert min_eig(gap) >= -1e-10

    @settings(max_examples=200, deadline=None)
    @given(case=envelope_cases())
    def test_envelope_dominates_map_property(self, case):
        # the gap is rate * s * (L - L*)(L - L*)' >= 0, zero at L = L*
        X, c, r, rate, L = case
        tol = 1e-10 * (1.0 + np.max(np.abs(X)))
        mapped = partial_update(X, rate, c, r)
        assert min_eig(gain_envelope(L, X, rate, c, r) - mapped) >= -tol
        L_opt = -X @ c / (c @ X @ c + r)
        assert np.max(np.abs(gain_envelope(L_opt, X, rate, c, r) - mapped)) <= tol


class TestMixtureWeights:
    def test_single_slot(self):
        assert np.allclose(mixture_weights([0.6], 1), [0.4, 0.6])

    def test_full_rates_concentrate_on_last(self):
        w = mixture_weights([1.0, 1.0, 1.0], 3)
        assert np.allclose(w, [0.0, 0.0, 0.0, 1.0])

    def test_zero_stage(self):
        assert np.allclose(mixture_weights([0.3, 0.9], 0), [1.0])

    def test_sums_to_one(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            m = int(rng.integers(1, 9))
            lam = rng.uniform(0.0, 1.0, size=m)
            for s in range(m + 1):
                w = mixture_weights(lam, s)
                assert abs(w.sum() - 1.0) <= 1e-14
                assert np.all(w >= 0.0)


class TestCascadeEnvelope:
    def test_zero_gains_identity(self):
        rng = np.random.default_rng(4)
        prob = random_problem(rng, n=3, m=3)
        X = random_psd(rng, 3)
        gains = [np.zeros(3)] * 3
        assert np.allclose(cascade_envelope(gains, X, prob), X, atol=1e-12)

    def test_matches_unrolled_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            prob = random_problem(rng)
            X = random_psd(rng, prob.n)
            gains = [rng.standard_normal(prob.n) for _ in range(prob.m)]
            got = cascade_envelope(gains, X, prob)
            want = envelope_unrolled(gains, X, prob)
            assert np.allclose(got, want, atol=1e-9 * (1 + np.abs(want).max()))

    def test_single_slot_equals_gain_envelope(self):
        rng = np.random.default_rng(9)
        prob = random_problem(rng, n=2, m=1)
        X = random_psd(rng, 2)
        L = rng.standard_normal(2)
        want = gain_envelope(L, X, prob.info_rates[0], prob.system.C[0],
                             prob.system.R[0, 0])
        assert np.allclose(cascade_envelope([L], X, prob), want, atol=1e-12)

    def test_optimal_gains_reproduce_cascade(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            prob = random_problem(rng)
            X = random_psd(rng, prob.n)
            gains = optimal_gains(X, prob)
            got = cascade_envelope(gains, X, prob)
            want = update_cascade(X, prob)
            assert np.max(np.abs(got - want)) <= 1e-9 * (1 + np.abs(want).max())


class TestOptimalGains:
    def test_zero_input_zero_gains(self):
        prob = example_problem()
        for g in optimal_gains(np.zeros((1, 1)), prob):
            assert np.allclose(g, 0.0)

    def test_scalar_value(self):
        sysm = LinearSystem(A=[[1.0]], C=[[1.0]], Q=[[1.0]], R=[[1.0]],
                            x0_mean=[0.0], P0=[[1.0]])
        prob = MareProblem(system=sysm, info_rates=[0.5])
        (g,) = optimal_gains(np.array([[1.0]]), prob)
        assert g[0] == pytest.approx(-0.5)


class TestRiccatiEnvelope:
    def test_optimal_gains_touch_riccati_map(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            prob = random_problem(rng)
            X = random_psd(rng, prob.n)
            gains = optimal_gains(time_update(X, prob.system), prob)
            got = riccati_envelope(gains, X, prob)
            want = riccati_map(X, prob)
            assert np.max(np.abs(got - want)) <= 1e-9 * (1 + np.abs(want).max())

    def test_random_gains_dominate(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            prob = random_problem(rng)
            X = random_psd(rng, prob.n)
            gains = [rng.standard_normal(prob.n) for _ in range(prob.m)]
            gap = riccati_envelope(gains, X, prob) - riccati_map(X, prob)
            assert min_eig(gap) >= -1e-10

    def test_zero_rates_reduce_to_time_update(self):
        rng = np.random.default_rng(14)
        prob = random_problem(rng, n=2, m=2)
        prob = MareProblem(system=prob.system, info_rates=np.zeros(2))
        X = random_psd(rng, 2)
        gains = [rng.standard_normal(2) for _ in range(2)]
        assert np.allclose(riccati_envelope(gains, X, prob),
                           time_update(X, prob.system), atol=1e-12)


class TestLinearPart:
    def test_matches_unrolled_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            prob = random_problem(rng)
            Y = random_psd(rng, prob.n)
            gains = [rng.standard_normal(prob.n) for _ in range(prob.m)]
            A = prob.system.A
            got = linear_part(Y, gains, prob)
            want = envelope_unrolled(gains, A @ Y @ A.T, prob, with_noise=False)
            assert np.allclose(got, want, atol=1e-9 * (1 + np.abs(want).max()))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_stack_rows_equal_single_matrices(self, n, m):
        # The fixed-point solver applies linear_part to the stack of the
        # n^2 unit matrices; every row must come out as it would alone.
        rng = np.random.default_rng(100 * n + m)
        prob = random_problem(rng, n=n, m=m)
        gains = [rng.standard_normal(n) for _ in range(m)]
        units = np.eye(n * n).reshape(n * n, n, n)
        for stack in (units, rng.standard_normal((n * n + 3, n, n))):
            lin = linear_part(stack, gains, prob)
            env = cascade_envelope(gains, stack, prob)
            assert lin.shape == env.shape == stack.shape
            for k, Y in enumerate(stack):
                assert np.array_equal(lin[k], linear_part(Y, gains, prob))
                assert np.array_equal(env[k], cascade_envelope(gains, Y, prob))

    def test_zero_and_homogeneous(self):
        rng = np.random.default_rng(15)
        prob = random_problem(rng, n=3, m=2)
        gains = [rng.standard_normal(3) for _ in range(2)]
        assert np.allclose(linear_part(np.zeros((3, 3)), gains, prob), 0.0,
                           atol=1e-15)
        Y = random_psd(rng, 3)
        for alpha in (0.25, 2.0, 7.5):
            assert np.allclose(linear_part(alpha * Y, gains, prob),
                               alpha * linear_part(Y, gains, prob), atol=1e-10)

    def test_affine_decomposition(self):
        # envelope(X) - linear_part(X) must be one constant PSD matrix
        rng = np.random.default_rng(16)
        for _ in range(20):
            prob = random_problem(rng)
            gains = [rng.standard_normal(prob.n) for _ in range(prob.m)]
            Y1 = random_psd(rng, prob.n)
            Y2 = random_psd(rng, prob.n, scale=3.0)
            c1 = riccati_envelope(gains, Y1, prob) - linear_part(Y1, gains, prob)
            c2 = riccati_envelope(gains, Y2, prob) - linear_part(Y2, gains, prob)
            assert np.allclose(c1, c2, atol=1e-8 * (1 + np.abs(c1).max()))
            assert min_eig(c1) >= -1e-10
            # the constant is the envelope of the zero matrix
            c0 = riccati_envelope(gains, np.zeros((prob.n, prob.n)), prob)
            assert np.allclose(c1, c0, atol=1e-8 * (1 + np.abs(c1).max()))


class TestOperatorProperties:
    def test_monotone_in_psd_order(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            prob = random_problem(rng)
            X = random_psd(rng, prob.n)
            Y = X + random_psd(rng, prob.n)
            i = int(rng.integers(0, prob.m))
            c, r = prob.system.C[i], prob.system.R[i, i]
            rate = prob.info_rates[i]
            assert min_eig(partial_update(Y, rate, c, r)
                           - partial_update(X, rate, c, r)) >= -1e-10
            assert min_eig(riccati_map(Y, prob) - riccati_map(X, prob)) >= -1e-10

    def test_rate_monotonicity(self):
        rng = np.random.default_rng(18)
        for _ in range(40):
            n = int(rng.integers(1, 4))
            X = random_psd(rng, n)
            c = rng.standard_normal(n)
            r = float(rng.uniform(0.1, 2.0))
            lo, hi = sorted(rng.uniform(0.0, 1.0, size=2))
            assert min_eig(partial_update(X, lo, c, r)
                           - partial_update(X, hi, c, r)) >= -1e-10

    def test_concavity(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            prob = random_problem(rng)
            X = random_psd(rng, prob.n)
            Y = random_psd(rng, prob.n)
            for tau in (0.25, 0.5, 0.75):
                Z = tau * X + (1 - tau) * Y
                mix_g = (tau * update_cascade(X, prob)
                         + (1 - tau) * update_cascade(Y, prob))
                assert min_eig(update_cascade(Z, prob) - mix_g) >= -1e-10
                mix_phi = (tau * riccati_map(X, prob)
                           + (1 - tau) * riccati_map(Y, prob))
                assert min_eig(riccati_map(Z, prob) - mix_phi) >= -1e-10

    def test_shrink_lower_bounds(self):
        # cascade(X) >= prod(1-rate) X, and the two valid placements of the
        # noise term around the composite map (see decisions ledger: the
        # prior-map form carries Q undamped, the posterior-map form damps it)
        rng = np.random.default_rng(20)
        for _ in range(40):
            prob = random_problem(rng)
            sysm = prob.system
            X = random_psd(rng, prob.n)
            shrink = float(np.prod(1.0 - prob.info_rates))
            assert min_eig(update_cascade(X, prob) - shrink * X) >= -1e-10
            post = riccati_map(X, prob) - shrink * time_update(X, sysm)
            assert min_eig(post) >= -1e-10
            prior = (time_update(update_cascade(X, prob), sysm)
                     - shrink * (sysm.A @ X @ sysm.A.T) - sysm.Q)
            assert min_eig(prior) >= -1e-10


# Two stable n=4, m=1 problems whose fixed points reach 8.6e4 and 6.1e4
# (benchmark analyze seeds 92 and 294).  The map's round-off there is
# relative, so an absolute tol of 1e-9 left both "undetermined" after
# 214 and 106 iterations; their copies with Q, R and P0 scaled by 1e-4
# converged.
LARGE_FIXED_POINTS = [
    dict(A=[[0.04871208321637743, -0.8451458085628835, -0.7839354182183634,
             0.5120847315449039],
            [-0.16255600284029825, 0.19918192887022107, 1.0780400274292292,
             -0.5337109154968143],
            [0.6764264547244497, -0.06827839190005683, 0.16148914079591442,
             -1.6013296795298786],
            [0.13262036858328335, 0.08434735552144838, -0.8026939158387711,
             0.012087640763173285]],
         C=[[-0.21612655789728008, -1.1766418678633117, -0.7098451092623856,
             0.10397604159390432]],
         Q=[[1.3868448416328412, -1.1426585883530294, 0.5181304665656786,
             0.27755592586944156],
            [-1.1426585883530294, 1.633236631018589, -0.6760421997312092,
             0.02608556923089805],
            [0.5181304665656786, -0.6760421997312092, 0.6266880462591754,
             0.39807250596403876],
            [0.27755592586944156, 0.02608556923089805, 0.39807250596403876,
             1.0065124900917717]],
         r=1.6457338584046701, rate=0.8858475254044432),
    dict(A=[[0.9410322626408938, 0.7442171830348397, 1.2251859538814767,
             -0.4746444309931098],
            [0.9834525166339186, 0.3945420833680126, 0.6074825700088282,
             0.2571253593692531],
            [0.3309162848771412, -0.9153785905467096, -0.8424471806521379,
             -0.9167739378524727],
            [1.3702229666444397, -1.2646375724214, 0.4790957997796653,
             -0.2745408517015096]],
         C=[[-0.9090340383459903, 1.2139504575032931, 0.7671248243192601,
             -0.7072948271276522]],
         Q=[[1.1377057129202686, -0.24002447915626146, -0.04063131102173152,
             -0.029650899558744143],
            [-0.24002447915626146, 0.5081483059441033, 0.06356742833982977,
             -0.04752235805978543],
            [-0.04063131102173152, 0.06356742833982977, 1.392242825989176,
             0.39784789503291257],
            [-0.029650899558744143, -0.04752235805978543, 0.39784789503291257,
             1.146456224308314]],
         r=0.6724058556016093, rate=0.8553953007012011),
]


class TestFixedPoint:
    def test_worked_example_converges_and_is_seed_independent(self):
        prob = example_problem()
        fp = iterate_fixed_point(prob, tol=1e-12)
        assert fp.converged
        # frozen regression value for the fixed point of the worked example
        assert fp.fixed_point[0, 0] == pytest.approx(0.5820885030405905, rel=1e-9)
        fp2 = iterate_fixed_point(prob, X0=fp.fixed_point + np.eye(1), tol=1e-12)
        assert fp2.converged
        assert abs(fp2.fixed_point[0, 0] - fp.fixed_point[0, 0]) <= 1e-11

    def test_full_rates_match_classical_riccati_iteration(self):
        rng = np.random.default_rng(23)
        prob = random_problem(rng, n=3, m=2, radius=1.1)
        prob = MareProblem(system=prob.system, info_rates=np.ones(2))
        fp = iterate_fixed_point(prob)
        assert fp.converged
        # classical oracle: iterate the batch posterior Riccati map directly
        sysm = prob.system
        P = np.zeros((3, 3))
        for _ in range(200_000):
            P_pred = sysm.A @ P @ sysm.A.T + sysm.Q
            S = sysm.C @ P_pred @ sysm.C.T + sysm.R
            K = P_pred @ sysm.C.T @ np.linalg.inv(S)
            Pn = P_pred - K @ sysm.C @ P_pred
            if np.max(np.abs(Pn - P)) <= 1e-12:
                P = Pn
                break
            P = Pn
        assert np.max(np.abs(fp.fixed_point - P)) <= 1e-7

    def test_monotone_iteration_from_zero(self):
        prob = example_problem()
        X = np.zeros((1, 1))
        for _ in range(30):
            Xn = riccati_map(X, prob)
            assert min_eig(Xn - X) >= -1e-10
            X = Xn

    def test_unstable_without_information_diverges(self):
        prob = example_problem(rates=(0.0, 0.0))
        fp = iterate_fixed_point(prob)
        assert fp.status == "diverged"
        assert fp.fixed_point is None

    @pytest.mark.parametrize("case", LARGE_FIXED_POINTS)
    def test_tolerance_is_relative(self, case):
        # the map is homogeneous in (X, Q, R), so the fixed point of the
        # copy scaled by 1e-4 is 1e-4 times the original one
        def problem(scale):
            sysm = LinearSystem(A=case["A"], C=case["C"],
                                Q=scale * np.asarray(case["Q"]),
                                R=[[scale * case["r"]]], x0_mean=np.zeros(4),
                                P0=scale * np.eye(4))
            return MareProblem(system=sysm, info_rates=[case["rate"]])

        fp = iterate_fixed_point(problem(1.0))
        small = iterate_fixed_point(problem(1e-4))
        assert fp.converged and small.converged
        err = np.max(np.abs(fp.fixed_point - 1e4 * small.fixed_point))
        assert err <= 1e-9 * np.max(np.abs(fp.fixed_point))

    def test_rejects_bad_tol(self):
        for tol in (0.0, float("nan"), float("inf"), -1.0):
            with pytest.raises(ValueError, match="tol"):
                iterate_fixed_point(example_problem(), tol=tol)

    def test_rejects_bad_x0(self):
        # the rates-0.6 example has a fixed point (0.5821), so a bad X0
        # must not come back as "diverged" or a numpy error
        for X0 in ([[np.nan]], [[np.inf]], np.eye(2), [1.0], [[-1.0]]):
            with pytest.raises(ValueError, match="X0"):
                iterate_fixed_point(example_problem(), X0=X0)
        prob = random_problem(np.random.default_rng(0), n=2, m=1, radius=0.5)
        for X0 in (-np.eye(2), [[1.0, 0.5], [0.0, 1.0]]):
            with pytest.raises(ValueError, match="X0"):
                iterate_fixed_point(prob, X0=X0)


def scalar_fixed_point(a, q, r, rate):
    """Closed-form fixed point of the one-slot scalar map.

    With P = a^2 X + q the prior, X = P((1 - rate) P + r) / (P + r) and
    X = (P - q) / a^2 give d P^2 + b P - q r = 0 with
    d = 1 - a^2 (1 - rate) and b = r - q - a^2 r; d > 0 is the stable
    side, where the positive root is the fixed point.
    """
    d = 1.0 - a * a * (1.0 - rate)
    b = r - q - a * a * r
    P = (-b + np.sqrt(b * b + 4.0 * d * q * r)) / (2.0 * d)
    return (P - q) / (a * a)


def value_iteration(prob, rtol=1e-12, max_steps=3000):
    """Reference: plain riccati_map iteration from 0, or None when it
    does not settle within max_steps (or blows up)."""
    X = np.zeros((prob.n, prob.n))
    for _ in range(max_steps):
        Xn = riccati_map(X, prob)
        if not np.all(np.isfinite(Xn)) or np.trace(Xn) > 1e10:
            return None
        if np.max(np.abs(Xn - X)) <= rtol * (1.0 + np.max(np.abs(Xn))):
            return Xn
        X = Xn
    return None


SCALAR_BOUNDARY = LinearSystem(A=[[1.2]], C=[[1.0]], Q=[[1.0]], R=[[1.0]],
                               x0_mean=[0.0], P0=[[1.0]])


class TestBoundary:
    def test_scalar_critical_rate(self):
        # Sinopoli et al. (IEEE TAC 2004): with one slot the scalar map has
        # a finite fixed point exactly above the rate 1 - 1/a^2, and the
        # necessary check is tight there
        critical = 1.0 - 1.0 / 1.44
        start = time.perf_counter()
        for eps in (-1e-2, -1e-3, -1e-4, 1e-4, 1e-3, 1e-2):
            prob = MareProblem(system=SCALAR_BOUNDARY,
                               info_rates=[critical + eps])
            fp = iterate_fixed_point(prob)
            if eps < 0:
                assert fp.status == "diverged"
                assert fp.iterations == 0
                assert fp.fixed_point is None
            else:
                assert fp.converged
                want = scalar_fixed_point(1.2, 1.0, 1.0, critical + eps)
                assert fp.fixed_point[0, 0] == pytest.approx(want, rel=1e-9)
        assert time.perf_counter() - start < 1.0

    def test_singular_q_keeps_iterating_past_failed_necessary_check(self):
        # the unstable mode is neither excited nor observed, so the failed
        # necessary check proves nothing and the fixed point is finite
        sysm = LinearSystem(A=np.diag([2.0, 0.5]), C=[[0.0, 1.0]],
                            Q=np.diag([0.0, 1.0]), R=[[1.0]],
                            x0_mean=[0.0, 0.0], P0=np.eye(2))
        prob = MareProblem(system=sysm, info_rates=[0.1])
        assert not necessary_check(prob).ok
        fp = iterate_fixed_point(prob)
        assert fp.converged
        # x = P - 0.1 P^2 / (P + 1) with P = x / 4 + 1
        P = 0.25 * fp.fixed_point[1, 1] + 1.0
        assert fp.fixed_point[1, 1] == pytest.approx(P - 0.1 * P * P / (P + 1.0),
                                                     abs=1e-8)
        assert np.allclose(fp.fixed_point, np.diag([0.0, 1.2344]), atol=1e-4)

    def test_round_off_stall_is_undetermined(self):
        # the fixed point's largest entry is ~1.7e4, so the step jitters
        # around 1e-11..1e-9 from cancellation and never reaches the
        # relative bound 1e-16 * 1.7e4
        sysm = LinearSystem(A=[[-0.5176, 0.7119], [0.1130, -1.1638]],
                            C=[[0.3488, 0.6957], [0.4078, 0.4019]],
                            Q=[[0.2155, -0.0253], [-0.0253, 1.6036]],
                            R=np.diag([0.2208, 1.7700]),
                            x0_mean=[0.0, 0.0], P0=np.eye(2))
        prob = MareProblem(system=sysm, info_rates=[0.163, 0.351])
        fp = iterate_fixed_point(prob, tol=1e-16)
        assert fp.status == "undetermined"
        assert fp.iterations < 1000
        # 1e-14 relative is 1.7e-10 absolute at this fixed point.  The
        # residual jitters too: stopping at 5e-14 leaves one of 2e-9
        fp = iterate_fixed_point(prob, tol=1e-14)
        assert fp.converged
        assert np.max(np.abs(riccati_map(fp.fixed_point, prob)
                             - fp.fixed_point)) <= 1e-9

    def test_full_rates_match_dare(self):
        # rate 1 is the classical filter: the posterior of the DARE solution
        rng = np.random.default_rng(24)
        for _ in range(5):
            prob = random_problem(rng, radius=1.3)
            prob = MareProblem(system=prob.system, info_rates=np.ones(prob.m))
            sysm = prob.system
            P = solve_discrete_are(sysm.A.T, sysm.C.T, sysm.Q, sysm.R)
            S = sysm.C @ P @ sysm.C.T + sysm.R
            want = P - P @ sysm.C.T @ np.linalg.solve(S, sysm.C @ P)
            fp = iterate_fixed_point(prob)
            assert fp.converged
            assert np.max(np.abs(fp.fixed_point - want)) <= 1e-8 * (
                1.0 + np.max(np.abs(want)))


@hst.composite
def random_problems(draw):
    n = draw(hst.integers(1, 4))
    m = draw(hst.integers(1, 3))
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    return random_problem(rng, n=n, m=m)


class TestPolicyIterationProperties:
    @settings(max_examples=30, deadline=None)
    @given(prob=random_problems())
    # largest entry 1.8e5: the map's step jitters up to 1e-5 there
    @example(prob=random_problem(np.random.default_rng(2626)))
    # fixed point eigenvalues 0.75 .. 2e6 and gains near 90: the policy
    # solve in plain coordinates has condition number 3e10
    @example(prob=random_problem(np.random.default_rng(3729)))
    def test_agrees_with_value_iteration_and_certifies(self, prob):
        want = value_iteration(prob)
        scale = 1.0 if want is None else 1.0 + np.max(np.abs(want))
        fp = iterate_fixed_point(prob)
        if want is not None:
            assert fp.converged
            assert np.max(np.abs(fp.fixed_point - want)) <= 1e-7 * scale
        if fp.converged:
            res = sufficient_check(prob, fixed_point=fp)
            assert res.ok
            cert = res.certificate
            assert 0.0 <= cert.contraction < 1.0
            gap = cert.matrix - riccati_envelope(cert.gains, cert.matrix, prob)
            assert np.max(np.abs(gap - np.eye(prob.n))) <= 1e-8 * (
                1.0 + np.max(np.abs(cert.matrix)))


class TestAnalyze:
    def test_singular_process_noise_recorded_not_fatal(self):
        # a noise-free direction can leave the fixed point singular PSD;
        # that is reported as a message, not an error
        A = np.array([[0.5, 0.1], [0.0, 0.4]])
        Q = np.array([[1.0, 0.0], [0.0, 0.0]])
        sysm = LinearSystem(A=A, C=[[1.0, 0.0]], Q=Q, R=[[1.0]],
                            x0_mean=[0.0, 0.0], P0=np.eye(2))
        rep = analyze(MareProblem(system=sysm, info_rates=[0.8]))
        assert rep.status == "converged"
        assert any("singular" in msg for msg in rep.messages)

    def test_report_json_shape(self):
        rep = analyze(example_problem())
        doc = rep.to_json_dict()
        assert doc["status"] == "converged"
        assert doc["necessary"].keys() == {"lhs", "rhs", "ok"}
        assert doc["sufficient"].keys() == {"ok", "margin", "contraction",
                                            "gains", "p_tilde"}
        assert 0.0 < doc["sufficient"]["contraction"] < 1.0
        assert isinstance(doc["trace_history"], list)
        assert np.asarray(doc["fixed_point"]).shape == (1, 1)

    def test_necessary_short_cut_reported(self):
        rep = analyze(example_problem(rates=(0.1, 0.1)))
        assert rep.status == "diverged"
        assert rep.iterations == 0
        assert any("necessary condition" in msg for msg in rep.messages)
        assert not any("necessary condition" in msg
                       for msg in analyze(example_problem()).messages)


class TestProblem:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1, 1.5])
    def test_rates_outside_unit_interval_rejected(self, bad):
        # a NaN rate would make the necessary check's lhs NaN, which the
        # short cut would read as a proof of divergence
        with pytest.raises(ValueError, match="info rates"):
            example_problem(rates=(0.6, bad))


class TestNecessary:
    def test_worked_example(self):
        chk = necessary_check(example_problem())
        assert chk.lhs == pytest.approx(0.16, rel=1e-12)
        assert chk.rhs == pytest.approx(1.0 / 1.44, rel=1e-12)
        assert chk.ok

    def test_low_rates_fail(self):
        chk = necessary_check(example_problem(rates=(0.1, 0.1)))
        assert chk.lhs == pytest.approx(0.81, rel=1e-12)
        assert not chk.ok

    def test_stable_plant_always_ok(self):
        sysm = LinearSystem(A=[[0.9]], C=[[1.0]], Q=[[1.0]], R=[[1.0]],
                            x0_mean=[0.0], P0=[[1.0]])
        chk = necessary_check(MareProblem(system=sysm, info_rates=[0.0]))
        assert chk.rhs >= 1.0
        assert chk.ok


class TestSufficient:
    def test_worked_example_has_certificate(self):
        res = sufficient_check(example_problem())
        assert res.ok
        cert = res.certificate
        assert cert.margin > 0
        assert np.linalg.eigvalsh(cert.matrix)[0] > 0
        gap = cert.matrix - riccati_envelope(cert.gains, cert.matrix,
                                             example_problem())
        assert np.linalg.eigvalsh(gap)[0] == pytest.approx(cert.margin, rel=1e-9)

    def test_handpicked_gains_are_feasible(self):
        # the worked example exhibits unit-state gains near -1; verify such a
        # pair admits a strictly feasible matrix via the envelope directly
        prob = example_problem()
        gains = [np.array([-1.0]), np.array([-1.0])]
        # envelope is affine in X: slope < 1 makes large X feasible
        e0 = riccati_envelope(gains, np.zeros((1, 1)), prob)[0, 0]
        e1 = riccati_envelope(gains, np.ones((1, 1)), prob)[0, 0]
        slope = e1 - e0
        assert slope < 1.0
        p = 2.0 * e0 / (1.0 - slope) + 1.0
        Pt = np.array([[p]])
        gap = Pt - riccati_envelope(gains, Pt, prob)
        assert gap[0, 0] > 0

    def test_full_rates_certificate(self):
        rng = np.random.default_rng(30)
        prob = random_problem(rng, n=2, m=2, radius=1.2)
        prob = MareProblem(system=prob.system, info_rates=np.ones(2))
        assert sufficient_check(prob).ok

    def test_no_certificate_when_divergent(self):
        res = sufficient_check(example_problem(rates=(0.0, 0.0)))
        assert not res.ok
        assert res.certificate is None


class TestUniqueness:
    def test_random_certified_problems_share_fixed_point(self):
        rng = np.random.default_rng(31)
        found = 0
        while found < 8:
            prob = random_problem(rng)
            fp = iterate_fixed_point(prob)
            if not fp.converged or not sufficient_check(prob, fixed_point=fp).ok:
                continue
            found += 1
            W = random_psd(rng, prob.n)
            fp2 = iterate_fixed_point(prob, X0=fp.fixed_point + W)
            assert fp2.converged
            assert np.max(np.abs(fp2.fixed_point - fp.fixed_point)) <= 1e-7
