"""Protocol states: pair states, the joint register, maximally entangled kets."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repeaterlab import qmath, states
from oracles import joint_ket_loop

RNG = np.random.default_rng(20240812)

angles_strict = st.floats(min_value=1e-3, max_value=np.pi / 4)


def random_unitary(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestTwoQubitPure:
    def test_ket_amplitudes(self):
        k = states.TwoQubitPure(np.pi / 6).ket()
        assert np.allclose(k, [np.sqrt(3) / 2, 0, 0, 0.5], atol=1e-15)

    def test_schmidt_coefficients_sorted(self):
        c = states.TwoQubitPure(1.2).schmidt_coefficients()
        assert c[0] >= c[1]
        assert c[0] == pytest.approx(np.sin(1.2))

    @pytest.mark.parametrize("angle", [0.0, np.pi / 2, -0.1, 2.0])
    def test_angle_out_of_range(self, angle):
        with pytest.raises(ValueError):
            states.TwoQubitPure(angle)


class TestSchmidtState:
    def test_basic(self):
        s = states.SchmidtState([0.7, 0.3])
        assert s.dim == 2
        assert np.allclose(s.amplitudes(), [np.sqrt(0.7), np.sqrt(0.3)])

    def test_ket_lives_on_diagonal_pairs(self):
        s = states.SchmidtState([0.5, 0.3, 0.2])
        k = s.ket()
        assert k.shape == (9,)
        assert k[0] == pytest.approx(np.sqrt(0.5))
        assert k[4] == pytest.approx(np.sqrt(0.3))
        assert k[8] == pytest.approx(np.sqrt(0.2))
        off = [k[i] for i in range(9) if i not in (0, 4, 8)]
        assert np.allclose(off, 0.0)

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


class TestMakeJoint:
    def test_balanced_amplitudes(self):
        sc = states.make_joint(np.pi / 4, np.pi / 4)
        assert np.allclose(sc.f, [0.5, 0.5, 0.5, 0.5], atol=1e-15)

    def test_mixed_angle_amplitudes(self):
        sc = states.make_joint(np.pi / 6, np.pi / 4)
        expected = [np.sqrt(6) / 4, np.sqrt(6) / 4, np.sqrt(2) / 4, np.sqrt(2) / 4]
        assert np.allclose(sc.f, expected, atol=1e-15)

    def test_matches_index_loop(self):
        sc = states.make_joint(0.3, 0.6)
        assert np.allclose(sc.ket, joint_ket_loop(0.3, 0.6), atol=0)

    def test_wire_order_structure(self):
        # Nonzero joint amplitudes sit at index 8a + 4a + 2b + b with value f[2a+b].
        sc = states.make_joint(0.3, 0.7, strict=False)
        dense = np.zeros(16, dtype=complex)
        for a in (0, 1):
            for b in (0, 1):
                dense[8 * a + 4 * a + 2 * b + b] = sc.f[2 * a + b]
        assert np.allclose(sc.ket, dense, atol=0)

    def test_alice_cut_schmidt(self):
        sc = states.make_joint(np.pi / 6, 0.5)
        dec = qmath.schmidt(sc.ket, 2, 8)
        assert np.allclose(dec.coefficients, [np.cos(np.pi / 6), np.sin(np.pi / 6)], atol=1e-12)

    def test_boundary_input_snaps(self):
        # 0.7854 is the four-decimal rounding of pi/4 and must be accepted.
        snapped = states.make_joint(0.7854, 0.7854)
        exact = states.make_joint(np.pi / 4, np.pi / 4)
        assert snapped.theta == np.pi / 4
        assert snapped.eta == np.pi / 4
        assert np.array_equal(snapped.ket, exact.ket)

    def test_strict_range(self):
        with pytest.raises(ValueError):
            states.make_joint(1.2, 0.3)
        with pytest.raises(ValueError):
            states.make_joint(0.3, 0.0)

    def test_permissive_range(self):
        sc = states.make_joint(1.2, 1.0, strict=False)
        assert sc.theta == 1.2
        with pytest.raises(ValueError):
            states.make_joint(1.2, np.pi / 2, strict=False)

    @given(angles_strict, angles_strict)
    @settings(max_examples=60, deadline=None)
    def test_amplitudes_normalized(self, theta, eta):
        sc = states.make_joint(theta, eta)
        assert np.sum(sc.f ** 2) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(sc.ket) == pytest.approx(1.0, abs=1e-12)


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
        assert states.is_max_entangled(k, 3, 3)

    @pytest.mark.parametrize("d", range(1, 9))
    def test_equals_the_kron_loop(self, d):
        for u in (random_unitary(RNG, d), np.eye(d)[::-1].astype(complex)):
            loop = sum(np.kron(u[:, k], qmath.basis_ket(k, d)) for k in range(d)) / np.sqrt(d)
            assert np.array_equal(states.max_entangled(u, d), loop)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            states.max_entangled(np.diag([1.0, 2.0]), 2)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            states.max_entangled(np.eye(3), 2)


class TestIsMaxEntangled:
    def test_uniform_pair(self):
        bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
        assert states.is_max_entangled(bell, 2, 2)

    def test_tilted_pair(self):
        assert not states.is_max_entangled(states.TwoQubitPure(np.pi / 6).ket(), 2, 2)

    def test_product_state(self):
        assert not states.is_max_entangled(qmath.basis_ket(0, 4), 2, 2)

    def test_unequal_dims(self):
        k = np.zeros(8, dtype=complex)
        k[0] = k[7] = 1 / np.sqrt(2)   # |0>|0> + |1>|3> on dims (2, 4)
        assert states.is_max_entangled(k, 2, 4)


class TestCanonicalTwoQubit:
    def test_recovers_pair_angle(self):
        psi = states.TwoQubitPure(np.pi / 6).ket()
        angle, u_a, u_b = states.canonical_two_qubit(psi)
        assert angle == pytest.approx(np.pi / 6, abs=1e-12)

    def test_transform_reaches_canonical_form(self):
        z = RNG.normal(size=4) + 1j * RNG.normal(size=4)
        psi = z / np.linalg.norm(z)
        angle, u_a, u_b = states.canonical_two_qubit(psi)
        assert 0.0 <= angle <= np.pi / 4
        target = np.array([np.cos(angle), 0, 0, np.sin(angle)], dtype=complex)
        moved = qmath.tensor(u_a, u_b) @ psi
        assert abs(abs(np.vdot(moved, target)) - 1.0) <= 1e-10

    def test_locally_rotated_pair(self):
        psi = states.TwoQubitPure(0.5).ket()
        rot = qmath.tensor(random_unitary(RNG, 2), random_unitary(RNG, 2))
        angle, _, _ = states.canonical_two_qubit(rot @ psi)
        assert angle == pytest.approx(0.5, abs=1e-12)


class TestStateFromConfig:
    def test_angle_form(self):
        s = states.state_from_config({"angle": 0.5})
        assert isinstance(s, states.TwoQubitPure)
        assert s.angle == 0.5

    def test_schmidt_form(self):
        s = states.state_from_config({"schmidt": [0.7, 0.3]})
        assert isinstance(s, states.SchmidtState)
        assert s.coefficients == (0.7, 0.3)

    @pytest.mark.parametrize("obj", [
        {"angle": 0.5, "schmidt": [1.0]},
        {},
        {"theta": 0.5},
        [0.5],
    ])
    def test_invalid_config(self, obj):
        with pytest.raises(ValueError):
            states.state_from_config(obj)
