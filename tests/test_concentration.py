"""Entanglement concentration: optimal rates and the filtering measurement."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repeaterlab.concentration import NotEntangledError, p_e, procrustean
from oracles import best_filter_grid

RNG = np.random.default_rng(20240813)

pair_angles = st.floats(min_value=1e-3, max_value=np.pi / 2 - 1e-3)


def pair_ket(angle):
    return np.array([np.cos(angle), 0, 0, np.sin(angle)], dtype=complex)


def is_maximal(psi, atol=1e-10):
    """Whether both Schmidt coefficients of a two-qubit ket equal 1/sqrt(2)."""
    coeffs = np.linalg.svd(np.reshape(psi, (2, 2)), compute_uv=False)
    return bool(np.all(np.abs(coeffs - np.sqrt(0.5)) <= atol))


def filtered(m, psi):
    """Born probability and normalized post state of Bob's filter outcome m on psi."""
    branch = np.kron(np.eye(2), m) @ psi
    prob = float(np.vdot(branch, branch).real)
    return prob, branch / np.sqrt(prob)


def random_unitary(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestConcentrationRate:
    def test_balanced_pair_needs_no_filtering(self):
        assert p_e(pair_ket(np.pi / 4)) == pytest.approx(1.0)

    def test_tilted_pair(self):
        assert p_e(pair_ket(np.pi / 6)) == pytest.approx(0.5)

    def test_ket_route_matches_angle_route(self):
        angle = 0.3
        assert p_e(pair_ket(angle)) == pytest.approx(2 * np.sin(angle) ** 2, abs=1e-14)

    def test_matches_exhaustive_filter_search(self):
        # Best diagonal filter over a dense grid must attain, never exceed, the rate.
        angle = 0.3
        best = best_filter_grid(np.cos(angle), np.sin(angle), 4000)
        rate = p_e(pair_ket(angle))
        assert best <= rate + 1e-12
        assert best == pytest.approx(rate, abs=1e-6)

    def test_angle_past_quarter_pi_uses_smaller_amplitude(self):
        assert p_e(pair_ket(1.2)) == pytest.approx(2 * np.cos(1.2) ** 2)

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            p_e(np.ones(8) / np.sqrt(8))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            p_e(np.array([1.0, 0, 0, 1.0]))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_non_finite_amplitudes(self, bad):
        with pytest.raises(ValueError, match="non-finite amplitudes"):
            p_e(np.array([bad, 0, 0, 1]))

    def test_matches_lapack_on_random_kets(self):
        kets = RNG.normal(size=(500, 4)) + 1j * RNG.normal(size=(500, 4))
        kets /= np.linalg.norm(kets, axis=1, keepdims=True)
        smallest = np.linalg.svd(kets.reshape(-1, 2, 2), compute_uv=False)[:, 1]
        rates = np.array([p_e(k) for k in kets])
        assert np.abs(rates - np.minimum(1.0, 2.0 * smallest ** 2)).max() <= 1e-14

    def test_local_unitary_invariance(self):
        psi = pair_ket(0.4)
        rot = np.kron(random_unitary(RNG, 2), random_unitary(RNG, 2))
        assert p_e(rot @ psi) == pytest.approx(p_e(psi), abs=1e-12)

    @given(pair_angles)
    @settings(max_examples=60, deadline=None)
    def test_rate_formula(self, angle):
        c, s = np.cos(angle), np.sin(angle)
        expected = min(1.0, 2.0 * min(c * c, s * s))
        assert p_e(pair_ket(angle)) == pytest.approx(expected, abs=1e-12)


class TestProcrustean:
    def test_balanced_filter_is_trivial(self):
        m0, m1 = procrustean(np.pi / 4)
        assert np.allclose(m0, np.eye(2), atol=1e-15)
        assert np.allclose(m1, np.zeros((2, 2)), atol=1e-15)

    def test_damps_larger_amplitude(self):
        m0, _ = procrustean(np.pi / 6)
        assert np.allclose(m0, np.diag([np.tan(np.pi / 6), 1.0]), atol=1e-15)

    def test_success_branch_is_maximal(self):
        prob, post = filtered(procrustean(np.pi / 6)[0], pair_ket(np.pi / 6))
        assert prob == pytest.approx(0.5, abs=1e-12)
        assert is_maximal(post)

    def test_roles_swap_past_quarter_pi(self):
        angle = 1.0
        prob, post = filtered(procrustean(angle)[0], pair_ket(angle))
        assert prob == pytest.approx(2 * np.cos(angle) ** 2, abs=1e-12)
        assert is_maximal(post)

    def test_product_state_rejected(self):
        with pytest.raises(NotEntangledError):
            procrustean(0.0)

    @pytest.mark.parametrize("angle", [-0.1, np.pi / 2, 3.0])
    def test_angle_out_of_range(self, angle):
        with pytest.raises(ValueError):
            procrustean(angle)

    def test_operators_are_complete(self):
        for angle in np.linspace(0.0, np.pi / 2, 202)[1:-1]:
            m0, m1 = procrustean(angle)
            total = m0.conj().T @ m0 + m1.conj().T @ m1
            assert np.abs(total - np.eye(2)).max() <= 1e-15

    def test_attains_optimal_rate_on_grid(self):
        # Dual route: Born-rule success of the filter equals the closed-form rate.
        for angle in np.linspace(0.01, np.pi / 2 - 0.01, 100):
            prob, post = filtered(procrustean(angle)[0], pair_ket(angle))
            assert abs(prob - p_e(pair_ket(angle))) <= 1e-12
            assert is_maximal(post, atol=1e-8)

    def test_sampled_outcome_frequency(self):
        angle = 0.3
        p0, _ = filtered(procrustean(angle)[0], pair_ket(angle))
        n = 40000
        hits = int(np.random.default_rng(7).binomial(n, p0))
        sigma = np.sqrt(p0 * (1 - p0) / n)
        assert abs(hits / n - p0) <= 3 * sigma
