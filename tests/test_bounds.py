"""General-dimension ceiling: Schmidt lists, steering, trace rearrangement, reaching
operator."""

import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repeaterlab import bounds, qmath
from repeaterlab.bounds import (
    BoundResult,
    achieving_operator,
    p_max,
    steering_bound,
    trace_rearrangement_lb,
)
from repeaterlab.repeater import projection_bounds
from oracles import dense_bound, random_density, random_hermitian

RNG = np.random.default_rng(20240815)


def random_unitary(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def kron_loop(u):
    """The maximally entangled ket (u x 1) (1/sqrt(d)) sum_k |k>|k>, term by term."""
    d = len(u)
    return sum(np.kron(u[:, k], np.eye(d)[k]) for k in range(d)) / np.sqrt(d)


def random_schmidt(rng, d):
    w = rng.dirichlet(np.ones(d)) + 1e-3
    return np.sort(w / w.sum())[::-1]


class TestSteeringBound:
    def test_state_is_its_own_best_member(self):
        rho = random_density(RNG, 4)
        assert steering_bound(rho, rho) == pytest.approx(1.0, abs=1e-10)

    def test_uniform_qubit_against_pure_member(self):
        rho = np.eye(2) / 2
        rho_i = np.diag([1.0, 0.0])
        assert steering_bound(rho, rho_i) == pytest.approx(0.5, abs=1e-12)

    def test_diagonal_pure_member_weight(self):
        rho = np.diag([0.3, 0.7])
        assert steering_bound(rho, np.diag([1.0, 0.0])) == pytest.approx(0.3, abs=1e-12)

    def test_no_ensemble_weight_ever_exceeds_it(self):
        for _ in range(60):
            d = int(RNG.integers(2, 5))
            k = int(RNG.integers(2, 5))
            weights = RNG.dirichlet(np.ones(k))
            members = [random_density(RNG, d) for _ in range(k)]
            rho = sum(w * m for w, m in zip(weights, members))
            for w, m in zip(weights, members):
                assert w <= steering_bound(rho, m) + 1e-10

    def test_member_outside_support_gets_zero(self):
        rho = np.diag([1.0, 0.0])
        rho_i = np.eye(2) / 2
        with pytest.warns(RuntimeWarning):
            assert steering_bound(rho, rho_i) == 0.0

    def test_rejects_non_state_inputs(self):
        good = np.eye(2) / 2
        with pytest.raises(ValueError):
            steering_bound(np.diag([0.6, 0.6]), good)     # trace 1.2
        with pytest.raises(ValueError):
            steering_bound(good, np.diag([1.5, -0.5]))    # negative eigenvalue
        with pytest.raises(ValueError):
            steering_bound(good, np.eye(3) / 3)           # dimension mismatch
        with pytest.raises(ValueError):
            steering_bound(np.array([[0.5, 1.0], [0.0, 0.5]]), good)  # not Hermitian


    @pytest.mark.parametrize("eps, rel", [(1e-4, 1e-9), (1e-5, 1e-9), (1e-6, 1e-9),
                                          # Rounding in rho's entries is about
                                          # 1e-16, over 1e-8 relative to eps.
                                          (1e-8, 1e-6)])
    def test_pure_member_near_a_singular_state(self, eps, rel):
        # Spectrum (1, 0.5, 0.3, eps) in a random eigenbasis, against the
        # closed form 1 / <psi|rho^-1|psi> from the known eigensystem.
        rng = np.random.default_rng(int(-np.log10(eps)))
        w = np.array([1.0, 0.5, 0.3, eps]) / (1.8 + eps)
        for _ in range(20):
            q = random_unitary(rng, 4)
            rho = (q * w) @ q.conj().T
            c = rng.normal(size=4) + 1j * rng.normal(size=4)
            c /= np.linalg.norm(c)
            psi = q @ c
            expected = 1.0 / float(np.sum(np.abs(c) ** 2 / w))
            assert steering_bound(rho, np.outer(psi, psi.conj())) == pytest.approx(expected, rel=rel)

    def test_ginibre_states_always_return(self):
        # Full-rank Ginibre states, against lambda_max(rho^-1 rho_i) from a
        # general eigensolver.
        rng = np.random.default_rng(2000)
        for _ in range(2000):
            d = int(rng.integers(2, 7))
            rho = random_density(rng, d)
            rho_i = random_density(rng, d, int(rng.integers(1, d + 1)))
            top = float(np.max(np.linalg.eigvals(np.linalg.solve(rho, rho_i)).real))
            assert steering_bound(rho, rho_i) == pytest.approx(1.0 / top, rel=1e-9)

    def test_rank_deficient_state_with_member_in_its_support(self):
        # The kernel of rho is left out: only the support's eigenvalues count.
        rng = np.random.default_rng(5)
        q = random_unitary(rng, 5)
        w = np.array([2.3, 1.1, 0.4]) / 3.8
        rho = (q[:, :3] * w) @ q[:, :3].conj().T
        c = rng.normal(size=3) + 1j * rng.normal(size=3)
        c /= np.linalg.norm(c)
        psi = q[:, :3] @ c
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = steering_bound(rho, np.outer(psi, psi.conj()))
        assert got == pytest.approx(1.0 / float(np.sum(np.abs(c) ** 2 / w)), rel=1e-12)

    def test_decomposes_each_matrix_once(self, monkeypatch):
        # One eigensolver call for rho, one for rho_i, one for the sandwich.
        calls = []
        for name in ("eigh", "eigvalsh"):
            solver = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda m, solver=solver: calls.append(m) or solver(m))
        rho = random_density(np.random.default_rng(6), 4)
        assert steering_bound(rho, rho) == pytest.approx(1.0, abs=1e-10)
        assert len(calls) == 3

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_is_named(self, bad):
        good = np.eye(2) / 2
        broken = np.array([[0.5, bad], [bad, 0.5]])
        with pytest.raises(ValueError, match="rho has non-finite entries"):
            steering_bound(broken, good)
        with pytest.raises(ValueError, match="rho_i has non-finite entries"):
            steering_bound(good, broken)


class TestTraceRearrangement:
    def test_identity_factor_is_tight(self):
        b = random_hermitian(RNG, 3)
        lb = trace_rearrangement_lb(np.eye(3), b)
        assert lb == pytest.approx(float(np.trace(b).real), abs=1e-10)

    def test_diagonal_example(self):
        a = np.diag([1.0, 2.0])
        b = np.diag([3.0, 4.0])
        assert trace_rearrangement_lb(a, b) == pytest.approx(10.0, abs=1e-12)
        assert float(np.trace(a @ b).real) == pytest.approx(11.0)

    def test_never_above_the_trace(self):
        for _ in range(200):
            d = int(RNG.integers(2, 9))
            a = random_hermitian(RNG, d)
            b = random_hermitian(RNG, d)
            lb = trace_rearrangement_lb(a, b)
            assert lb <= float(np.trace(a @ b).real) + 1e-10

    def test_equality_at_opposing_eigenbases(self):
        for _ in range(50):
            d = int(RNG.integers(2, 9))
            a = random_hermitian(RNG, d)
            b = random_hermitian(RNG, d)
            la, va = np.linalg.eigh(a)
            lb_desc = np.linalg.eigvalsh(b)[::-1]
            b_opposed = va @ np.diag(lb_desc) @ va.conj().T
            floor = trace_rearrangement_lb(a, b_opposed)
            assert float(np.trace(a @ b_opposed).real) == pytest.approx(floor, abs=1e-10)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            trace_rearrangement_lb(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))
        with pytest.raises(ValueError):
            trace_rearrangement_lb(np.eye(2), np.eye(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_is_named(self, bad):
        broken = np.array([[1.0, bad], [bad, 1.0]])
        with pytest.raises(ValueError, match="a has non-finite entries"):
            trace_rearrangement_lb(broken, np.eye(2))
        with pytest.raises(ValueError, match="b has non-finite entries"):
            trace_rearrangement_lb(np.eye(2), broken)


class TestPMax:
    def test_uniform_qubit_pairs(self):
        assert p_max([0.5, 0.5], [0.5, 0.5]) == pytest.approx(0.25, abs=1e-15)

    def test_tilted_against_uniform(self):
        assert p_max([0.75, 0.25], [0.5, 0.5]) == pytest.approx(3 / 16, abs=1e-15)

    def test_uniform_qutrits(self):
        assert p_max([1 / 3] * 3, [1 / 3] * 3) == pytest.approx(1 / 9, abs=1e-12)

    def test_matches_two_qubit_upper_bound(self):
        for theta in np.linspace(0.05, np.pi / 4, 10):
            for eta in np.linspace(0.05, np.pi / 4, 10):
                a = sorted([np.cos(theta) ** 2, np.sin(theta) ** 2], reverse=True)
                b = sorted([np.cos(eta) ** 2, np.sin(eta) ** 2], reverse=True)
                _, upper = projection_bounds(theta, eta)
                assert p_max(a, b) == pytest.approx(upper, abs=1e-12)

    def test_argument_order_is_irrelevant(self):
        a = [0.6, 0.4]
        b = [0.5, 0.3, 0.2]
        assert p_max(a, b) == pytest.approx(p_max(b, a), abs=1e-15)

    def test_rejects_bad_coefficient_lists(self):
        with pytest.raises(ValueError):
            p_max([0.5, 0.4], [0.5, 0.5])       # sums to 0.9
        with pytest.raises(ValueError):
            p_max([0.4, 0.6], [0.5, 0.5])       # increasing

    @pytest.mark.parametrize("function", [p_max, achieving_operator],
                             ids=["p_max", "achieving_operator"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("which, at, lists", [
        (0, 0, ([1.0], [1.0])), (1, 0, ([1.0], [1.0])),
        (0, 0, ([1.0, 0.0], [0.5, 0.5])), (1, 1, ([0.5, 0.5], [0.6, 0.4]))],
        ids=["a-alone", "b-alone", "a-head", "b-tail"])
    def test_rejects_non_finite_coefficients(self, function, bad, which, at, lists):
        # Every comparison with NaN is false, so finiteness is checked first.
        lists = [list(x) for x in lists]
        lists[which][at] = bad
        with pytest.raises(ValueError, match="Schmidt coefficients must be finite"):
            function(*lists)


def reversal(a, b):
    """The optimal_u of achieving_operator(a, b)."""
    return achieving_operator(a, b).optimal_u


class TestOptimalU:
    """The permutation reversing the shorter list's basis states, identity beyond."""

    def test_two_dim_reversal_is_bit_flip(self):
        u = reversal([0.5, 0.5], [0.7, 0.3])
        assert np.array_equal(u, np.array([[0, 1], [1, 0]], dtype=complex))

    def test_partial_reversal_keeps_tail_fixed(self):
        u = reversal([0.6, 0.4], [0.5, 0.3, 0.2])
        expected = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
        assert np.array_equal(u, expected)

    def test_single_state_reversal_is_identity(self):
        assert np.array_equal(reversal([1.0], [0.5, 0.3, 0.2]), np.eye(3, dtype=complex))

    def test_always_unitary(self):
        rng = np.random.default_rng(7)
        for d in range(1, 7):
            for d_a in range(1, d + 1):
                u = reversal(random_schmidt(rng, d_a), random_schmidt(rng, d))
                assert u.shape == (d, d)
                assert np.allclose(u @ u.conj().T, np.eye(d), atol=1e-15)


class TestAchievingOperator:
    def test_uniform_qubits_reach_ceiling(self):
        result = achieving_operator([0.5, 0.5], [0.5, 0.5])
        assert result.p_max == pytest.approx(0.25, abs=1e-12)
        assert result.achieved_p == pytest.approx(0.25, abs=1e-12)
        assert result.post_fidelity == pytest.approx(1.0, abs=1e-12)

    def test_tilted_pair_reaches_ceiling(self):
        result = achieving_operator([0.75, 0.25], [0.5, 0.5])
        assert result.achieved_p == pytest.approx(3 / 16, abs=1e-12)
        assert result.post_fidelity == pytest.approx(1.0, abs=1e-12)

    def test_qutrit_pair_reaches_ceiling(self):
        result = achieving_operator([0.5, 0.3, 0.2], [0.5, 0.3, 0.2])
        assert result.achieved_p == pytest.approx(result.p_max, abs=1e-10)
        assert result.post_fidelity == pytest.approx(1.0, abs=1e-10)

    def test_equal_dims_always_reach_ceiling(self):
        for _ in range(40):
            d = int(RNG.integers(2, 6))
            result = achieving_operator(random_schmidt(RNG, d), random_schmidt(RNG, d))
            assert result.achieved_p <= result.p_max + 1e-10
            assert result.achieved_p == pytest.approx(result.p_max, abs=1e-10)
            gram = result.m_i.conj().T @ result.m_i
            assert float(np.linalg.eigvalsh(gram)[-1]) <= 1.0 + 1e-10

    def test_unequal_dims_cap_at_rank_ratio(self):
        result = achieving_operator([0.6, 0.4], [0.5, 0.3, 0.2])
        assert result.achieved_p == pytest.approx(result.p_max * 2 / 3, abs=1e-10)
        assert result.post_fidelity == pytest.approx(2 / 3, abs=1e-10)

    @pytest.mark.parametrize("tiny", [1e-13, 1e-160, 1e-300])
    def test_tiny_coefficients_keep_their_share(self, tiny):
        # Equal dimensions reach the ceiling exactly however small a Schmidt
        # product is; unequal ones keep the rank ratio d_a / d.
        equal = achieving_operator([1.0 - tiny, tiny], [0.5, 0.5])
        assert equal.achieved_p == pytest.approx(equal.p_max, rel=1e-12)
        assert equal.post_fidelity == pytest.approx(1.0, abs=1e-12)
        unequal = achieving_operator([1.0 - tiny, tiny], [0.5, 0.3, 0.2])
        assert unequal.achieved_p == pytest.approx(unequal.p_max * 2 / 3, rel=1e-12)
        assert unequal.post_fidelity == pytest.approx(2 / 3, abs=1e-12)

    def test_unitary_matches_helper(self):
        # The shorter list is reversed whichever argument it is.
        expected = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
        for a, b in (([0.6, 0.4], [0.5, 0.3, 0.2]), ([0.5, 0.3, 0.2], [0.6, 0.4])):
            assert np.array_equal(achieving_operator(a, b).optimal_u, expected)

    @staticmethod
    def assert_matches_dense(a, b):
        result = achieving_operator(a, b)
        dense = dense_bound(a, b)
        # The closed-form top eigenvalue of M^dag M, from the factors.
        sw = result.scale * result.w
        top = float(np.vdot(result.omega, result.omega).real * np.vdot(sw, sw).real)
        assert abs(top - dense["top"]) <= 1e-12
        assert top <= 1.0 + qmath.LOOSE_ATOL
        assert result.p_max == pytest.approx(dense["p_max"], rel=1e-12)
        assert np.allclose(result.m_i, dense["m_i"], rtol=1e-12, atol=0.0)
        assert result.achieved_p == pytest.approx(dense["achieved_p"], rel=1e-12)
        assert abs(result.post_fidelity - np.clip(dense["post_fidelity"], 0.0, 1.0)) <= 1e-14

    @pytest.mark.parametrize("d_a, d", [(d, d) for d in range(2, 13)]
                             + [(2, 3), (3, 7), (5, 12), (1, 4), (1, 1)])
    def test_checks_match_the_dense_formulas(self, d_a, d):
        rng = np.random.default_rng(100 * d_a + d)
        self.assert_matches_dense(random_schmidt(rng, d_a), random_schmidt(rng, d))

    @pytest.mark.parametrize("tiny", [1e-160, 1e-300])
    @pytest.mark.parametrize("b", [[0.5, 0.5], [0.5, 0.3, 0.2], "tiny"])
    def test_tiny_coefficients_match_the_dense_formulas(self, tiny, b):
        a = [1.0 - tiny, tiny]
        self.assert_matches_dense(a, a if b == "tiny" else b)

    def test_forms_no_dense_operator(self):
        # The operator stays as its factors: a dense m_i at d = 32 alone is
        # 1024^2 complex entries, 16 MB.
        a = np.full(32, 1 / 32)
        achieving_operator(a, a)
        tracemalloc.start()
        try:
            result = achieving_operator(a, a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        assert result.m_i.shape == (1024, 1024)

    def test_rejects_an_element_above_the_identity(self, monkeypatch):
        # A ceiling 1% too high scales M^dag M to a top eigenvalue of 1.01.
        real_ceiling = bounds._ceiling
        monkeypatch.setattr(bounds, "_ceiling", lambda ca, cb: 1.01 * real_ceiling(ca, cb))
        with pytest.raises(ValueError, match="not a valid measurement element"):
            achieving_operator([0.5, 0.3, 0.2], [0.6, 0.3, 0.1])

    @pytest.mark.parametrize("d_a, d", [(1, 1), (2, 2), (2, 3), (3, 7), (24, 24), (1, 32)])
    def test_checks_each_coefficient_list_once(self, monkeypatch, d_a, d):
        # achieving_operator takes its ceiling from the arrays it checked, as
        # p_max does, so both give the same bits from one check.
        rng = np.random.default_rng(10 * d_a + d)
        a, b = random_schmidt(rng, d_a).tolist(), random_schmidt(rng, d).tolist()
        checks = []
        real = bounds._coefficients
        monkeypatch.setattr(bounds, "_coefficients",
                            lambda *lists: checks.append(lists) or real(*lists))
        ceiling = p_max(b, a)
        result = achieving_operator(a, b)
        assert len(checks) == 2
        assert result.p_max == ceiling == d / np.sum(1.0 / (np.array(a) * b[d_a - 1 :: -1]))

    @pytest.mark.parametrize("d", range(1, 33))
    def test_factors_have_the_structure_writers_rely_on(self, d):
        # What BoundResult states of omega and w, bit for bit: lists of
        # (d + 1) // 2 and d, of d and d, and two ending in 1e-300 and 1e-320.
        rng = np.random.default_rng(d)
        pairs = [(random_schmidt(rng, (d + 1) // 2), random_schmidt(rng, d)),
                 (random_schmidt(rng, d), random_schmidt(rng, d))]
        if d > 1:
            pairs.append(([*random_schmidt(rng, max((d + 1) // 2 - 1, 1)), 1e-300],
                          [*random_schmidt(rng, d - 1), 1e-320]))
        for a, b in pairs:
            for result in (achieving_operator(a, b), achieving_operator(b, a)):
                u = result.optimal_u
                assert ((u == 0) | (u == 1)).all()
                assert (u.sum(axis=0) == 1).all() and (u.sum(axis=1) == 1).all()
                rows = np.flatnonzero(u)
                bits = result.omega.view(np.uint64).reshape(-1, 2)
                assert bits[rows[0]].any()
                want = np.zeros_like(bits)
                want[rows] = bits[rows[0]]
                assert np.array_equal(bits, want)
                assert not (result.w.view(np.uint64) >> np.uint64(63)).any()

    def test_to_dict_is_json_ready(self):
        payload = achieving_operator([0.5, 0.5], [0.5, 0.5]).to_dict()
        round_tripped = json.loads(json.dumps(payload))
        assert round_tripped["p_max"] == pytest.approx(0.25)
        assert np.asarray(round_tripped["m_i"]).shape == (4, 4, 2)


class TestCeilingIsASteeringBound:
    def test_reversal_target_attains_it(self):
        for _ in range(20):
            d = int(RNG.integers(2, 5))
            sa = random_schmidt(RNG, d)
            sb = random_schmidt(RNG, d)
            rho = np.kron(np.diag(sa), np.diag(sb))
            omega = kron_loop(np.eye(d)[::-1])
            target = np.outer(omega, omega.conj())
            bound = steering_bound(rho, target)
            assert bound == pytest.approx(p_max(sa, sb), abs=1e-10)

    def test_no_other_target_beats_it(self):
        for _ in range(30):
            d = int(RNG.integers(2, 5))
            sa = random_schmidt(RNG, d)
            sb = random_schmidt(RNG, d)
            rho = np.kron(np.diag(sa), np.diag(sb))
            omega = kron_loop(random_unitary(RNG, d))
            bound = steering_bound(rho, np.outer(omega, omega.conj()))
            assert bound <= p_max(sa, sb) + 1e-10


class TestSchmidtState:
    @pytest.mark.parametrize("coeffs, message", [
        ([], "at least one Schmidt coefficient required"),
        ([0.5, 0.5, 0.0], "Schmidt coefficients must be strictly positive, got (0.5, 0.5, 0.0)"),
        ([-0.2, 1.2], "Schmidt coefficients must be strictly positive, got (-0.2, 1.2)"),
        ([0.3, 0.7], "Schmidt coefficients must be nonincreasing, got (0.3, 0.7)"),
        ([0.6, 0.3], "Schmidt coefficients must sum to 1, got sum 0.8999999999999999"),
    ], ids=[f"coeffs{i}" for i in range(5)])
    def test_invalid_coefficients(self, coeffs, message):
        # Either argument of either function, checked before any work.
        good = [0.7, 0.2, 0.1]
        for fn in (p_max, achieving_operator):
            for args in ((coeffs, good), (good, coeffs)):
                with pytest.raises(ValueError) as info:
                    fn(*args)
                assert str(info.value) == message


class TestMaxEntangled:
    """The target ket omega: (u x 1) (1/sqrt(d)) sum_k |k>|k> for the operator's u."""

    def test_identity_gives_uniform_pair(self):
        omega = achieving_operator([1.0], [0.5, 0.5]).omega
        assert np.allclose(omega, np.array([1, 0, 0, 1]) / np.sqrt(2))

    def test_bit_flip_rotates_left_factor(self):
        omega = achieving_operator([0.5, 0.5], [0.5, 0.5]).omega
        assert np.allclose(omega, np.array([0, 1, 1, 0]) / np.sqrt(2))

    def test_reduced_state_is_uniform(self):
        omega = achieving_operator([0.6, 0.4], [0.5, 0.3, 0.2]).omega
        # Alice's reduced state: trace Bob's factor out of |omega><omega|.
        m = omega.reshape(3, 3)
        assert np.allclose(m @ m.conj().T, np.eye(3) / 3, atol=1e-12)
        assert np.allclose(np.linalg.svd(m, compute_uv=False), 1 / np.sqrt(3), atol=1e-10)

    @pytest.mark.parametrize("d", range(1, 9))
    def test_equals_the_kron_loop(self, d):
        rng = np.random.default_rng(d)
        for d_a in (1, d):
            result = achieving_operator(random_schmidt(rng, d_a), random_schmidt(rng, d))
            assert np.array_equal(result.omega, kron_loop(result.optimal_u))
