"""Sequential estimator against textbook batch-filter oracles."""

from dataclasses import replace

import numpy as np
import pytest

from schedkf import (
    FilterState,
    LinearSystem,
    SlotUpdate,
    component_stats,
    step,
)


def batch_kf_step(x, P, A, C, Q, R, y):
    """Independent oracle: one classical Kalman cycle with the full
    measurement vector (Joseph-form covariance update)."""
    x_pred = A @ x
    P_pred = A @ P @ A.T + Q
    S = C @ P_pred @ C.T + R
    K = P_pred @ C.T @ np.linalg.inv(S)
    x_post = x_pred + K @ (y - C @ x_pred)
    IKC = np.eye(P.shape[0]) - K @ C
    P_post = IKC @ P_pred @ IKC.T + K @ R @ K.T
    return x_post, 0.5 * (P_post + P_post.T)


def random_observable_system(rng, n, m, spectral_radius=0.95):
    while True:
        A = rng.standard_normal((n, n))
        A *= spectral_radius / max(np.max(np.abs(np.linalg.eigvals(A))), 1e-12)
        C = rng.standard_normal((m, n))
        blocks = [C]
        for _ in range(n - 1):
            blocks.append(blocks[-1] @ A)
        if np.linalg.matrix_rank(np.vstack(blocks)) == n:
            break
    G = rng.standard_normal((n, n))
    Q = G @ G.T / n + 0.1 * np.eye(n)
    R = np.diag(rng.uniform(0.2, 1.5, size=m))
    P0 = np.eye(n)
    return LinearSystem(A=A, C=C, Q=Q, R=R, x0_mean=rng.standard_normal(n), P0=P0)


def delivered_slots(sysm, y):
    return [SlotUpdate(index=i, value=float(y[i]), high_power=True, arrived=True)
            for i in range(sysm.m)]


def predicted(state, sysm):
    """The time update written out: A x and A P A' + Q."""
    P = sysm.A @ state.P @ sysm.A.T + sysm.Q
    return FilterState(x=sysm.A @ state.x, P=0.5 * (P + P.T), k=state.k)


def update_slot(state, sysm, slot, stats_i):
    """Slot ``slot.index`` of sysm alone through ``step``: on a one-slot
    system with A = I and Q = 0 the time update is a no-op, so the cycle
    is that slot's update followed by the PSD floor."""
    i = slot.index
    n = sysm.n
    alone = LinearSystem(A=np.eye(n), C=sysm.C[i:i + 1], Q=np.zeros((n, n)),
                         R=sysm.R[i:i + 1, i:i + 1], x0_mean=np.zeros(n),
                         P0=np.eye(n))
    out, _ = step(state, alone,
                  [SlotUpdate(0, slot.value, slot.high_power, slot.arrived)],
                  [stats_i])
    return FilterState(x=out.x, P=out.P, k=state.k)


def time_update_only(state, sysm):
    """``step`` with every slot silent at weight t = 0: the slots leave x
    and P as they are, so the cycle is the time update alone."""
    weightless = replace(component_stats(1.0, 0.5), drop_shrink=0.0)
    slots = [SlotUpdate(i, None, False, False) for i in range(sysm.m)]
    return step(state, sysm, slots, [weightless] * sysm.m)[0]


SCALAR = LinearSystem(A=[[1.2]], C=[[1.0]], Q=[[1.0]], R=[[1.0]],
                      x0_mean=[0.0], P0=[[1.0]])


class TestPredict:
    def test_zero_covariance_gives_q(self):
        st = time_update_only(FilterState(x=[0.0], P=[[0.0]]), SCALAR)
        assert st.P[0, 0] == pytest.approx(1.0, abs=1e-15)
        assert st.k == 1

    def test_identity_dynamics_no_noise(self):
        sysm = LinearSystem(A=np.eye(2), C=[[1.0, 0.0]], Q=np.zeros((2, 2)),
                            R=[[1.0]], x0_mean=[1.0, 2.0], P0=np.eye(2))
        st0 = FilterState(x=[1.0, 2.0], P=np.eye(2))
        st = time_update_only(st0, sysm)
        assert np.allclose(st.x, st0.x, atol=1e-15)
        assert np.allclose(st.P, st0.P, atol=1e-15)

    def test_scalar_arithmetic(self):
        st = time_update_only(FilterState(x=[0.0], P=[[2.0]]), SCALAR)
        assert st.P[0, 0] == pytest.approx(1.2 * 2.0 * 1.2 + 1.0, rel=1e-15)


class TestUpdateComponent:
    def test_delivered_matches_sequential_kf_oracle(self):
        rng = np.random.default_rng(0)
        sysm = random_observable_system(rng, 3, 1)
        st = FilterState(x=rng.standard_normal(3), P=np.eye(3))
        y = 0.7
        slot = SlotUpdate(index=0, value=y, high_power=True, arrived=True)
        out = update_slot(st, sysm, slot, component_stats(1.0, 0.5))
        # textbook scalar update written independently
        c = sysm.C[0]
        s = c @ st.P @ c + sysm.R[0, 0]
        K = st.P @ c / s
        x_ref = st.x + K * (y - c @ st.x)
        P_ref = st.P - np.outer(K, c @ st.P)
        assert np.allclose(out.x, x_ref, atol=1e-14)
        assert np.allclose(out.P, 0.5 * (P_ref + P_ref.T), atol=1e-12)

    def test_dropped_keeps_mean_and_shrinks(self):
        st = FilterState(x=[2.0], P=[[1.0]])
        slot = SlotUpdate(index=0, value=None, high_power=False, arrived=False)
        stats = component_stats(1.0, 0.5)
        out = update_slot(st, SCALAR, slot, stats)
        assert out.x[0] == 2.0
        want = 1.0 - stats.drop_shrink * 0.5 * 1.0  # gain is 1/2 here
        assert out.P[0, 0] == pytest.approx(want, rel=1e-14)

    def test_dropped_scalar_half_shrink(self):
        # p=1, c=1, r=1, shrink weight 1/2: gain 1/2, P -> 1 - 0.5*0.5 = 0.75
        st = FilterState(x=[0.0], P=[[1.0]])
        slot = SlotUpdate(index=0, value=None, high_power=False, arrived=False)
        fake = component_stats(1.0, 0.5).__class__(
            threshold=1.0, arrival_prob=0.5, high_rate=0.3,
            drop_shrink=0.5, low_info=0.75, info_rate=0.8)
        out = update_slot(st, SCALAR, slot, fake)
        assert out.P[0, 0] == pytest.approx(0.75, rel=1e-15)

    def test_contract_errors(self):
        st = FilterState(x=[0.0], P=[[1.0]])
        stats = [component_stats(1.0, 0.5)]
        with pytest.raises(ValueError):
            step(st, SCALAR, [SlotUpdate(0, None, True, True)], stats)
        with pytest.raises(ValueError):
            step(st, SCALAR, [SlotUpdate(0, 1.0, False, False)], stats)


class TestStep:
    def test_all_delivered_equals_batch_kf(self):
        rng = np.random.default_rng(7)
        sysm = random_observable_system(rng, 3, 2)
        stats = [component_stats(0.0, 0.5)] * 2
        st = FilterState.initial(sysm)
        x_ref, P_ref = sysm.x0_mean.copy(), sysm.P0.copy()
        for _ in range(50):
            y = rng.standard_normal(2)
            st, _ = step(st, sysm, delivered_slots(sysm, y), stats)
            x_ref, P_ref = batch_kf_step(x_ref, P_ref, sysm.A, sysm.C, sysm.Q,
                                         sysm.R, y)
            assert np.max(np.abs(st.x - x_ref)) <= 1e-9
            assert np.max(np.abs(st.P - P_ref)) <= 1e-9

    def test_correlated_r_rejected(self):
        # slot-by-slot updates equal the batch filter only for a diagonal
        # R: reading diag(R) here would give P = 0.392 where the batch
        # filter gives 0.634, so no system with this R can reach step
        A, C, Q = np.array([[0.9]]), np.array([[1.0], [1.0]]), np.array([[1.0]])
        R = np.array([[1.0, 0.95], [0.95, 1.0]])
        y = np.array([0.3, -0.2])
        _, P_ref = batch_kf_step(np.zeros(1), np.eye(1), A, C, Q, R, y)
        assert P_ref[0, 0] == pytest.approx(0.634, abs=1e-3)
        _, P_diag = batch_kf_step(np.zeros(1), np.eye(1), A, C, Q, np.diag(np.diag(R)), y)
        assert P_diag[0, 0] == pytest.approx(0.392, abs=1e-3)
        with pytest.raises(ValueError, match="R must be diagonal"):
            LinearSystem(A=A, C=C, Q=Q, R=R, x0_mean=[0.0], P0=[[1.0]])
        # the system decided the fact when it was built; no step repeats it
        assert SCALAR.r_diag() is SCALAR.r_diag()

    def test_all_dropped_with_huge_threshold_keeps_prediction(self):
        sysm = LinearSystem(A=[[1.2]], C=[[1.0], [1.0]], Q=[[1.0]],
                            R=[[0.1, 0.0], [0.0, 1.0]], x0_mean=[0.0], P0=[[1.0]])
        stats = [component_stats(12.0, 0.5)] * 2
        st = FilterState(x=[0.0], P=[[1.0]])
        pred = predicted(st, sysm)
        slots = [SlotUpdate(i, None, False, False) for i in range(2)]
        out, _ = step(st, sysm, slots, stats)
        assert out.P[0, 0] == pytest.approx(pred.P[0, 0], rel=1e-10)

    def test_slot_monotonicity_and_symmetry(self):
        rng = np.random.default_rng(21)
        sysm = random_observable_system(rng, 3, 2)
        stats = [component_stats(1.0, 0.5)] * 2
        st = FilterState.initial(sysm)
        for k in range(40):
            prev = predicted(st, sysm)
            for i in range(2):
                deliver = bool(rng.random() < 0.5)
                y = float(rng.standard_normal()) if deliver else None
                slot = SlotUpdate(i, y, deliver, deliver)
                cur = update_slot(prev, sysm, slot, stats[i])
                diff = prev.P - cur.P
                assert np.linalg.eigvalsh(diff)[0] >= -1e-10
                assert np.max(np.abs(cur.P - cur.P.T)) <= 1e-12
                prev = cur
            st = prev

    def test_trace_and_order_validation(self):
        rng = np.random.default_rng(3)
        sysm = random_observable_system(rng, 2, 2)
        stats = [component_stats(1.0, 0.5)] * 2
        st = FilterState.initial(sysm)
        slots = [SlotUpdate(0, 1.0, True, True),
                 SlotUpdate(1, None, False, False)]
        out, innov = step(st, sysm, slots, stats)
        assert innov.shape == (2,)
        assert np.isfinite(innov[0])
        assert np.isnan(innov[1])
        wrong = [SlotUpdate(1, 1.0, True, True), SlotUpdate(0, 1.0, True, True)]
        with pytest.raises(ValueError):
            step(st, sysm, wrong, stats)

    def test_slot_trace_matches_written_out_terms(self):
        # the normalized innovation (y - c x) / sqrt(c'Pc + r) at each slot's
        # own prior, with the slots in between applied by hand
        rng = np.random.default_rng(11)
        sysm = random_observable_system(rng, 3, 3)
        stats = [component_stats(1.0, 0.5)] * 3
        st = FilterState.initial(sysm)
        for _ in range(20):
            deliver = rng.random(3) < 0.5
            y = rng.standard_normal(3)
            slots = [SlotUpdate(i, float(y[i]) if deliver[i] else None,
                                bool(deliver[i]), bool(deliver[i]))
                     for i in range(3)]
            x = sysm.A @ st.x
            P = sysm.A @ st.P @ sysm.A.T + sysm.Q
            out, innov = step(st, sysm, slots, stats)
            assert innov.shape == (3,)
            for i in range(3):
                c, r = sysm.C[i], sysm.R[i, i]
                s = c @ P @ c + r
                gain = P @ c / s
                if deliver[i]:
                    resid = y[i] - c @ x
                    assert innov[i] == pytest.approx(resid / np.sqrt(s),
                                                     rel=1e-12, abs=1e-12)
                    x = x + gain * resid
                    P = P - np.outer(gain, c @ P)
                else:
                    assert np.isnan(innov[i])
                    P = P - stats[i].drop_shrink * np.outer(gain, c @ P)
            assert np.max(np.abs(out.x - x)) <= 1e-12 * (1.0 + np.max(np.abs(x)))
            assert np.max(np.abs(out.P - P)) <= 1e-12 * (1.0 + np.max(np.abs(P)))
            assert out.k == st.k + 1
            st = out

    def test_shrink_weight_stays_in_range(self):
        # weight t is drop_shrink on silent slots and 1 otherwise, so the
        # covariance decrement is bracketed by the two pure cases
        rng = np.random.default_rng(5)
        sysm = random_observable_system(rng, 2, 1)
        stats = [component_stats(1.3, 0.4)]
        st = predicted(FilterState.initial(sysm), sysm)
        silent = update_slot(st, sysm, SlotUpdate(0, None, False, False), stats[0])
        heard = update_slot(st, sysm, SlotUpdate(0, 0.3, True, True), stats[0])
        assert np.linalg.eigvalsh(st.P - silent.P)[0] >= -1e-12
        assert np.linalg.eigvalsh(silent.P - heard.P)[0] >= -1e-12


class TestPsdGuard:
    """The PSD floor runs once per step, after the slots, on the returned P."""

    @staticmethod
    def unobserved_negative(lowest):
        # P has eigenvalue `lowest` along u3; no slot observes u3 (C rows
        # are u1, u2) and Q has no mass there, so only the floor can move it
        U, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((3, 3)))
        P = (U * [1.0, 2.0, lowest]) @ U.T
        sysm = LinearSystem(A=np.eye(3), C=U[:, :2].T,
                            Q=(U * [1.0, 1.0, 0.0]) @ U.T, R=np.eye(2),
                            x0_mean=np.zeros(3), P0=np.eye(3))
        return FilterState(x=np.zeros(3), P=0.5 * (P + P.T)), sysm

    @pytest.mark.parametrize("delivered", [True, False])
    def test_round_off_negative_floored_by_step(self, delivered):
        st, sysm = self.unobserved_negative(-1e-12)
        stats = [component_stats(1.0, 0.5)] * 2
        slots = [SlotUpdate(i, 0.0 if delivered else None, delivered, delivered)
                 for i in range(2)]
        # the cycle written out without the floor: time update, then each
        # slot's weighted rank-one correction
        mid = predicted(st, sysm).P
        for i, slot in enumerate(slots):
            c = sysm.C[i]
            Pc = mid @ c
            t = 1.0 if slot.delivered else stats[i].drop_shrink
            mid = mid - (t / (c @ Pc + sysm.R[i, i])) * np.outer(Pc, Pc)
        assert np.linalg.eigvalsh(mid)[0] == pytest.approx(-1e-12, rel=1e-3)
        out, _ = step(st, sysm, slots, stats)
        assert abs(np.linalg.eigvalsh(out.P)[0]) <= 1e-15
        assert np.max(np.abs(out.P - mid)) <= 1e-11

    def test_genuine_violation_stays_visible(self):
        st, sysm = self.unobserved_negative(-1e-6)
        stats = [component_stats(1.0, 0.5)] * 2
        slots = [SlotUpdate(i, 0.0, True, True) for i in range(2)]
        out, _ = step(st, sysm, slots, stats)
        assert np.linalg.eigvalsh(out.P)[0] == pytest.approx(-1e-6, rel=1e-6)
