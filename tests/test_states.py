"""Pair states: checked angles and their amplitudes, Schmidt lists, maximally entangled kets."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repeaterlab import qmath, states

RNG = np.random.default_rng(20240812)

angles_strict = st.floats(min_value=1e-3, max_value=np.pi / 4)


def random_unitary(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestSchmidtState:
    def test_basic(self):
        s = states.SchmidtState([0.7, 0.3])
        assert s.dim == 2
        assert s.coefficients == (0.7, 0.3)

    @pytest.mark.parametrize("coeffs", [
        [],
        [0.5, 0.5, 0.0],
        [-0.2, 1.2],
        [0.3, 0.7],      # increasing
        [0.6, 0.3],      # sums to 0.9
    ])
    def test_invalid_coefficients(self, coeffs):
        with pytest.raises(ValueError):
            states.SchmidtState(coeffs)


class TestCheckedAmplitudes:
    def test_balanced_amplitudes(self):
        _, _, f = states._checked_amplitudes(np.pi / 4, np.pi / 4)
        assert np.allclose(f, [0.5, 0.5, 0.5, 0.5], atol=1e-15)

    def test_mixed_angle_amplitudes(self):
        _, _, f = states._checked_amplitudes(np.pi / 6, np.pi / 4)
        expected = [np.sqrt(6) / 4, np.sqrt(6) / 4, np.sqrt(2) / 4, np.sqrt(2) / 4]
        assert np.allclose(f, expected, atol=1e-15)

    def test_boundary_input_snaps(self):
        # 0.7854 is the four-decimal rounding of pi/4 and must be accepted.
        theta, eta, snapped = states._checked_amplitudes(0.7854, 0.7854)
        assert theta == np.pi / 4
        assert eta == np.pi / 4
        assert np.array_equal(snapped, states._checked_amplitudes(np.pi / 4, np.pi / 4)[2])

    def test_strict_range(self):
        with pytest.raises(ValueError):
            states._checked_amplitudes(1.2, 0.3)
        with pytest.raises(ValueError):
            states._checked_amplitudes(0.3, 0.0)

    @given(angles_strict, angles_strict)
    @settings(max_examples=60, deadline=None)
    def test_amplitudes_normalized(self, theta, eta):
        _, _, f = states._checked_amplitudes(theta, eta)
        assert np.sum(f ** 2) == pytest.approx(1.0, abs=1e-12)


class TestMaxEntangled:
    def test_identity_gives_uniform_pair(self):
        k = states.max_entangled(np.eye(2), 2)
        assert np.allclose(k, np.array([1, 0, 0, 1]) / np.sqrt(2))

    def test_bit_flip_rotates_left_factor(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        k = states.max_entangled(x, 2)
        assert np.allclose(k, np.array([0, 1, 1, 0]) / np.sqrt(2))

    def test_reduced_state_is_uniform(self):
        u = random_unitary(RNG, 3)
        k = states.max_entangled(u, 3)
        # Alice's reduced state: trace Bob's factor out of |k><k|.
        m = k.reshape(3, 3)
        left = m @ m.conj().T
        assert np.allclose(left, np.eye(3) / 3, atol=1e-12)
        assert np.allclose(np.linalg.svd(m, compute_uv=False), 1 / np.sqrt(3), atol=1e-10)

    @pytest.mark.parametrize("d", range(1, 9))
    def test_equals_the_kron_loop(self, d):
        for u in (random_unitary(RNG, d), np.eye(d)[::-1].astype(complex)):
            loop = sum(np.kron(u[:, k], qmath.basis_ket(k, d)) for k in range(d)) / np.sqrt(d)
            assert np.array_equal(states.max_entangled(u, d), loop)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            states.max_entangled(np.diag([1.0, 2.0]), 2)

    def test_judged_by_the_spectral_defect(self):
        # Defect diag(0.9e-10, 0.9e-10, 0, 0): its Frobenius norm is above the
        # bound, its spectral norm below it, so the matrix passes.
        d = 4
        m = np.diag(np.sqrt([1 + 0.9e-10, 1 + 0.9e-10, 1.0, 1.0]))
        defect = m @ m.conj().T - np.eye(d)
        assert np.linalg.norm(defect, 2) <= qmath.LOOSE_ATOL < np.linalg.norm(defect)
        assert np.array_equal(states.max_entangled(m, d), m.reshape(-1) / np.sqrt(d))

    def test_rejects_a_spectral_defect_above_the_bound(self):
        m = np.diag(np.sqrt([1 + 1.1e-10, 1.0, 1.0]))
        with pytest.raises(ValueError, match=r"^matrix is not unitary \(defect 1\.100e-10\)$"):
            states.max_entangled(m, 3)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            states.max_entangled(np.eye(3), 2)
