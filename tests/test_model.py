"""System construction and structural validation."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from schedkf import (
    FilterState,
    LinearSystem,
    SlotUpdate,
    component_stats,
    step,
    validate,
)
from schedkf.model import _krylov_rank


def example_system() -> LinearSystem:
    return LinearSystem(A=[[1.2]], C=[[1.0], [1.0]], Q=[[1.0]],
                        R=[[0.1, 0.0], [0.0, 1.0]], x0_mean=[0.0], P0=[[1.0]])


def unit_noise(sysm: LinearSystem) -> LinearSystem:
    """The same plant measured in units of each slot's noise deviation:
    row i of C divided by sqrt(R_ii), and R = I."""
    sd = np.sqrt(sysm.r_diag())
    return dataclasses.replace(sysm, C=sysm.C / sd[:, None], R=np.eye(sysm.m))


class TestConstruction:
    def test_dimensions(self):
        sysm = example_system()
        assert sysm.n == 1 and sysm.m == 2

    def test_dimension_mismatch_is_hard_error(self):
        with pytest.raises(ValueError):
            LinearSystem(A=[[1.0, 0.0]], C=[[1.0]], Q=[[1.0]], R=[[1.0]],
                         x0_mean=[0.0], P0=[[1.0]])
        with pytest.raises(ValueError):
            LinearSystem(A=[[1.0]], C=[[1.0]], Q=[[1.0]], R=[[1.0, 0.0], [0.0, 1.0]],
                         x0_mean=[0.0], P0=[[1.0]])
        with pytest.raises(ValueError):
            LinearSystem(A=[[1.0]], C=[[1.0]], Q=[[1.0]], R=[[1.0]],
                         x0_mean=[0.0, 0.0], P0=[[1.0]])
        # an empty state or measurement dimension, named before any
        # spectral check reads an empty spectrum
        with pytest.raises(ValueError, match="n=0"):
            LinearSystem(A=np.zeros((0, 0)), C=np.zeros((1, 0)), Q=np.zeros((0, 0)),
                         R=[[1.0]], x0_mean=np.zeros(0), P0=np.zeros((0, 0)))
        with pytest.raises(ValueError, match="m=0"):
            LinearSystem(A=[[1.0]], C=np.zeros((0, 1)), Q=[[1.0]], R=np.zeros((0, 0)),
                         x0_mean=[0.0], P0=[[1.0]])

    def test_q_must_be_psd(self):
        with pytest.raises(ValueError, match="Q"):
            LinearSystem(A=[[1.0]], C=[[1.0]], Q=[[-1e-6]], R=[[1.0]],
                         x0_mean=[0.0], P0=[[1.0]])

    def test_psd_tolerance_absorbs_roundoff(self):
        # Slightly negative eigenvalue within the tolerance band is accepted.
        Q = np.array([[1.0, 1.0], [1.0, 1.0 - 1e-12]])
        LinearSystem(A=np.eye(2), C=[[1.0, 0.0]], Q=Q, R=[[1.0]],
                     x0_mean=[0.0, 0.0], P0=np.eye(2))

    def test_r_and_p0_must_be_pd(self):
        with pytest.raises(ValueError, match="R"):
            LinearSystem(A=[[1.0]], C=[[1.0]], Q=[[1.0]], R=[[0.0]],
                         x0_mean=[0.0], P0=[[1.0]])
        with pytest.raises(ValueError, match="P0"):
            LinearSystem(A=[[1.0]], C=[[1.0]], Q=[[1.0]], R=[[1.0]],
                         x0_mean=[0.0], P0=[[0.0]])

    def test_correlated_r_rejected(self):
        # slot-by-slot updates equal the batch filter only for a diagonal
        # R (test_filter's TestStep::test_correlated_r_rejected), so no
        # system with a correlated R exists: the message gives the entry
        R = np.array([[1.0, 0.95], [0.95, 1.0]])
        with pytest.raises(ValueError, match=r"R must be diagonal.* 9\.500e-01"):
            LinearSystem(A=[[0.9]], C=[[1.0], [1.0]], Q=[[1.0]], R=R,
                         x0_mean=[0.0], P0=[[1.0]])
        sysm = example_system()
        with pytest.raises(ValueError, match=r"R must be diagonal.* 5\.000e-02"):
            dataclasses.replace(sysm, R=[[0.1, 0.05], [0.05, 1.0]])
        # the tolerance is 1e-12 (1 + max |R|): accepted at it, not past it
        tol = 1e-12 * (1.0 + 1.0)
        at = dataclasses.replace(sysm, R=[[0.1, tol], [tol, 1.0]])
        assert np.array_equal(at.r_diag(), [0.1, 1.0])
        past = np.nextafter(tol, 1.0)
        with pytest.raises(ValueError, match="R must be diagonal"):
            dataclasses.replace(sysm, R=[[0.1, past], [past, 1.0]])
        # r_diag reads the diagonal decided at construction
        assert sysm.r_diag() is sysm.r_diag()
        assert not sysm.r_diag().flags.writeable

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["A", "C", "Q", "R", "x0_mean", "P0"])
    def test_non_finite_entries_rejected(self, name, bad):
        # checked before shapes, symmetry and definiteness, so the error
        # names the real fault: Q = [[nan]] is not "not symmetric"
        fields = example_system().to_dict()
        fields[name] = np.full(np.shape(fields[name]), bad).tolist()
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            LinearSystem(**fields)

    def test_immutable(self):
        sysm = example_system()
        with pytest.raises(ValueError):
            sysm.A[0, 0] = 2.0

    def test_json_round_trip(self):
        sysm = example_system()
        again = LinearSystem.from_dict(sysm.to_dict())
        assert np.array_equal(again.A, sysm.A)
        assert np.array_equal(again.R, sysm.R)
        assert np.array_equal(again.P0, sysm.P0)

    def test_from_dict_missing_key(self):
        with pytest.raises(ValueError, match="missing"):
            LinearSystem.from_dict({"A": [[1.0]]})


@hst.composite
def padded_systems(draw):
    """A core block (Q > 0, C sees every state) padded with p_u modes Q
    leaves unexcited and p_o modes C leaves unseen, in a random state
    order.  Returns the system, n - p_u and n - p_o: the dimensions of
    its controllable and observable subspaces."""
    core = draw(hst.integers(1, 3))
    p_u = draw(hst.integers(0, 2))
    p_o = draw(hst.integers(0, 2))
    extra = draw(hst.integers(0, 2))
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    sizes = (core, p_u, p_o)
    n = sum(sizes)
    A = np.zeros((n, n))
    Q = np.zeros((n, n))
    lo = 0
    for block, size in enumerate(sizes):
        hi = lo + size
        if size:
            B = rng.standard_normal((size, size))
            A[lo:hi, lo:hi] = B * rng.uniform(0.3, 1.2) / max(
                np.max(np.abs(np.linalg.eigvals(B))), 1e-12)
        if size and block != 1:  # the uncontrollable block gets no noise
            G = rng.standard_normal((size, size))
            Q[lo:hi, lo:hi] = G @ G.T / size + 0.1 * np.eye(size)
        lo = hi
    seen = core + p_u  # C is blind to the last p_o states
    C = np.zeros((seen + extra, n))
    C[:seen, :seen] = np.eye(seen)
    C[seen:, :seen] = rng.standard_normal((extra, seen))
    order = rng.permutation(n)
    A, Q, C = A[np.ix_(order, order)], Q[np.ix_(order, order)], C[:, order]
    sysm = LinearSystem(A=A, C=C, Q=0.5 * (Q + Q.T), R=np.eye(len(C)),
                        x0_mean=np.zeros(n), P0=np.eye(n))
    return sysm, n - p_u, n - p_o


class TestValidate:
    def test_worked_example_passes_all(self):
        rep = validate(example_system())
        assert rep.controllable and rep.observable
        assert rep.ok

    def test_non_diagonal_r_flagged(self):
        # a correlated R is refused where the system is built, before
        # validate could see it, so the report's ok reads only the two
        # structural flags
        with pytest.raises(ValueError, match="R must be diagonal"):
            LinearSystem(A=[[1.0]], C=[[1.0], [1.0]], Q=[[1.0]],
                         R=[[1.0, 0.3], [0.3, 1.0]], x0_mean=[0.0], P0=[[1.0]])
        rep = validate(example_system())
        assert not hasattr(rep, "r_diagonal")
        assert rep.ok == (rep.controllable and rep.observable)

    def test_zero_process_noise_is_uncontrollable(self):
        sysm = LinearSystem(A=[[0.0]], C=[[1.0]], Q=[[0.0]], R=[[1.0]],
                            x0_mean=[0.0], P0=[[1.0]])
        rep = validate(sysm)
        assert not rep.controllable
        assert any("controllable" in msg for msg in rep.messages)

    def test_identity_with_partial_observation_is_unobservable(self):
        # Observability matrix stacks [1, 0] twice: rank 1 < 2, confirmed
        # by brute-force rank computation on the stacked matrix.
        sysm = LinearSystem(A=np.eye(2), C=[[1.0, 0.0]], Q=np.eye(2), R=[[1.0]],
                            x0_mean=[0.0, 0.0], P0=np.eye(2))
        stacked = np.vstack([sysm.C, sysm.C @ sysm.A])
        assert np.linalg.matrix_rank(stacked) == 1
        rep = validate(sysm)
        assert not rep.observable

    @settings(max_examples=80, deadline=None)
    @given(case=padded_systems())
    def test_krylov_rank_matches_matrix_rank(self, case):
        # oracle: numpy's matrix_rank of the Krylov matrices built the
        # textbook way, [Q, AQ, ...] (the range of [sqrt(Q), A sqrt(Q), ...])
        # and C A^k
        sysm, reachable, observed = case
        n = sysm.n
        powers = [np.linalg.matrix_power(sysm.A, k) for k in range(n)]
        ctrb = np.linalg.matrix_rank(np.hstack([Ak @ sysm.Q for Ak in powers]))
        obsv = np.linalg.matrix_rank(np.vstack([sysm.C @ Ak for Ak in powers]))
        fragile: list = []
        ranks = (_krylov_rank(sysm.A, sysm.Q, fragile, "c"),
                 _krylov_rank(sysm.A.T, sysm.C.T, fragile, "o"))
        # matrix_rank's cutoff is at most 7x _krylov_rank's here, inside
        # the 10x band that _krylov_rank reports as fragile
        if not fragile:
            assert ranks == (ctrb, obsv)
        assert (ctrb, obsv) == (reachable, observed)
        rep = validate(sysm)
        assert (rep.controllable, rep.observable) == (ranks[0] == n, ranks[1] == n)

    def test_unexcited_decoupled_mode_is_uncontrollable(self):
        # state 2 is decoupled from the others and Q leaves it unexcited,
        # yet eigvalsh(Q)[0] is 2e-17: a square root of Q would turn that
        # into a singular value ~5e-9, far past the rank cutoff
        A = [[0.09326217, 0.0, 0.47504254, -0.09799065],
             [0.0, 0.3254877, 0.0, 0.0],
             [0.96726043, 0.0, -0.52200554, 0.70251067],
             [0.07781114, 0.0, 0.26821823, -0.39734032]]
        core = np.array([[2.03198233, -0.21030078, 0.59580763],
                         [-0.21030078, 0.28856778, 0.07057918],
                         [0.59580763, 0.07057918, 0.81212645]])
        Q = np.zeros((4, 4))
        Q[np.ix_([0, 2, 3], [0, 2, 3])] = core
        sysm = LinearSystem(A=A, C=np.eye(4), Q=Q, R=np.eye(4),
                            x0_mean=np.zeros(4), P0=np.eye(4))
        assert _krylov_rank(sysm.A, sysm.Q, [], "c") == 3
        rep = validate(sysm)
        assert not rep.controllable and rep.observable
        assert "(A, sqrt(Q)) is not controllable" in rep.messages

    @settings(max_examples=60, deadline=None)
    @given(n=hst.integers(1, 4), data=hst.data())
    def test_q_definite_decided_at_construction(self, n, data):
        # Q = G G' with G n x r, singular whenever r < n
        r = data.draw(hst.integers(0, n))
        rng = np.random.default_rng(data.draw(hst.integers(0, 2**32 - 1)))
        G = rng.standard_normal((n, r))
        Q = G @ G.T
        Q = 0.5 * (Q + Q.T)
        sysm = LinearSystem(A=np.eye(n), C=np.ones((1, n)), Q=Q, R=[[1.0]],
                            x0_mean=np.zeros(n), P0=np.eye(n))
        assert sysm._q_definite == (np.linalg.eigvalsh(Q)[0] > 0.0)

    @pytest.mark.parametrize("Q, definite", [
        (np.eye(2), True), (np.diag([0.0, 1.0]), False), (np.zeros((2, 2)), False)])
    def test_q_definite_cases(self, Q, definite):
        sysm = LinearSystem(A=np.eye(2), C=[[1.0, 0.0]], Q=Q, R=[[1.0]],
                            x0_mean=[0.0, 0.0], P0=np.eye(2))
        assert sysm._q_definite is definite


@hst.composite
def diagonal_r_systems(draw):
    """A system with diagonal R (n in 1..4, m in 1..3, r_i in [0.05, 10])
    and fixed (high power, arrived) bits for 30 steps of m slots."""
    n = draw(hst.integers(1, 4))
    m = draw(hst.integers(1, 3))
    r = draw(hst.lists(hst.floats(0.05, 10.0), min_size=m, max_size=m))
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    A = rng.standard_normal((n, n))
    A *= rng.uniform(0.3, 1.2) / max(np.max(np.abs(np.linalg.eigvals(A))), 1e-12)
    G = rng.standard_normal((n, n))
    sysm = LinearSystem(A=A, C=rng.standard_normal((m, n)),
                        Q=G @ G.T / n + 0.1 * np.eye(n), R=np.diag(r),
                        x0_mean=np.zeros(n), P0=np.eye(n))
    return sysm, rng.random((30, m, 2)) < 0.5


class TestWhiten:
    """Measuring every slot in units of its own noise deviation
    (``unit_noise``) changes no covariance."""

    @settings(max_examples=60, deadline=None)
    @given(case=diagonal_r_systems())
    def test_filter_covariances_invariant(self, case):
        # with the delivery bits fixed no threshold decision can tie, so
        # the two covariance sequences differ by round-off only
        sysm, bits = case
        stats = [component_stats(1.0, 0.3)] * sysm.m
        systems = (sysm, unit_noise(sysm))
        states = [FilterState.initial(sys_) for sys_ in systems]
        for step_bits in bits:
            slots = [SlotUpdate(i, 0.0 if high or arrived else None,
                                bool(high), bool(arrived))
                     for i, (high, arrived) in enumerate(step_bits)]
            states = [step(st, sys_, slots, stats)[0]
                      for st, sys_ in zip(states, systems)]
            P, P_white = states[0].P, states[1].P
            assert np.max(np.abs(P_white - P)) <= 1e-10 * (1.0 + np.max(np.abs(P)))
