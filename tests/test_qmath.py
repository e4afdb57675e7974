"""Linear-algebra core: decompositions, operator functions, text I/O."""

import numpy as np
import pytest

from repeaterlab import qmath
from oracles import power_norm

RNG = np.random.default_rng(20240811)


def random_complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestSchmidt:
    def test_balanced_state(self):
        ket = np.array([1, 0, 0, 1]) / np.sqrt(2)
        dec = qmath.schmidt(ket, 2, 2)
        assert np.allclose(dec.coefficients, [1 / np.sqrt(2)] * 2, atol=1e-15)

    def test_product_state_keeps_zero(self):
        dec = qmath.schmidt(qmath.basis_ket(0, 4), 2, 2)
        assert np.allclose(dec.coefficients, [1.0, 0.0], atol=0)

    def test_two_qubit_angles(self):
        ket = np.array([np.cos(np.pi / 6), 0, 0, np.sin(np.pi / 6)])
        dec = qmath.schmidt(ket, 2, 2)
        assert np.allclose(dec.coefficients, [np.sqrt(3) / 2, 0.5], atol=1e-15)

    def test_reconstruction_up_to_nothing(self):
        psi = random_complex(RNG, 12)
        psi /= np.linalg.norm(psi)
        dec = qmath.schmidt(psi, 3, 4)
        rebuilt = sum(c * np.kron(u, v) for c, u, v in
                      zip(dec.coefficients, dec.left_vectors, dec.right_vectors))
        assert np.allclose(rebuilt, psi, atol=1e-10)
        assert dec.coefficients[0] >= dec.coefficients[-1] >= 0.0
        assert abs(np.sum(np.square(dec.coefficients)) - 1.0) < 1e-12

    def test_local_unitary_invariance(self):
        psi = random_complex(RNG, 6)
        psi /= np.linalg.norm(psi)
        base = qmath.schmidt(psi, 2, 3).coefficients
        for _ in range(5):
            qa, _ = np.linalg.qr(random_complex(RNG, 2, 2))
            qb, _ = np.linalg.qr(random_complex(RNG, 3, 3))
            rotated = np.kron(qa, qb) @ psi
            coeffs = qmath.schmidt(rotated, 2, 3).coefficients
            assert np.allclose(coeffs, base, atol=1e-10)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            qmath.schmidt(np.array([1.0, 0, 0, 1.0]), 2, 2)


class TestPinvSqrt:
    def test_diagonal(self):
        assert np.allclose(qmath.pinv_sqrt(np.diag([4.0, 1.0])),
                           np.diag([0.5, 1.0]), atol=1e-15)

    def test_kernel_maps_to_zero(self):
        assert np.allclose(qmath.pinv_sqrt(np.diag([1.0, 0.0])),
                           np.diag([1.0, 0.0]), atol=1e-15)

    def test_sandwich_gives_support_projector(self):
        # known eigensystem: rank-3 PSD in dim 5
        q, _ = np.linalg.qr(random_complex(RNG, 5, 5))
        w = np.array([2.3, 1.1, 0.4, 0.0, 0.0])
        rho = q @ np.diag(w) @ q.conj().T
        inv_sqrt = qmath.pinv_sqrt(rho)
        sandwich = inv_sqrt @ rho @ inv_sqrt
        support = q @ np.diag([1.0, 1.0, 1.0, 0.0, 0.0]) @ q.conj().T
        assert np.allclose(sandwich, support, atol=1e-10)
        assert np.allclose(qmath.support_projector(rho), support, atol=1e-10)

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError):
            qmath.pinv_sqrt(np.diag([1.0, -1e-6]))


class TestOpNorm:
    def test_identity(self):
        assert qmath.op_norm_inf(np.eye(4)) == pytest.approx(1.0, abs=1e-15)

    def test_most_negative_counts(self):
        assert qmath.op_norm_inf(np.diag([3.0, -5.0])) == pytest.approx(5.0, abs=1e-15)

    def test_rank_one_matches_power_iteration(self):
        v = random_complex(RNG, 6)
        a = np.outer(v, v.conj())
        expected = float(np.vdot(v, v).real)
        assert qmath.op_norm_inf(a) == pytest.approx(expected, abs=1e-10)
        assert power_norm(a) == pytest.approx(expected, abs=1e-8)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            qmath.op_norm_inf(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestHelpers:
    def test_basis_ket(self):
        assert np.array_equal(qmath.basis_ket(2, 4), np.array([0, 0, 1, 0], dtype=complex))
        with pytest.raises(ValueError):
            qmath.basis_ket(4, 4)

    def test_dagger(self):
        a = np.array([[1.0, 2j], [0.0, 1.0]])
        assert np.array_equal(qmath.dagger(a), a.conj().T)

    def test_hermitian_gate(self):
        assert np.array_equal(qmath.require_hermitian(np.eye(3)), np.eye(3))
        with pytest.raises(ValueError):
            qmath.require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_normalization_gate(self):
        qmath.require_normalized(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            qmath.require_normalized(np.array([1.0, 1.0]))

    def test_as_real_pairs_shapes(self):
        v = np.array([1 + 2j, 3.0])
        assert qmath.as_real_pairs(v) == [[1.0, 2.0], [3.0, 0.0]]
        m = np.array([[1j]])
        assert qmath.as_real_pairs(m) == [[[0.0, 1.0]]]
        with pytest.raises(ValueError):
            qmath.as_real_pairs(np.zeros((2, 2, 2)))


class TestMatrixText:
    def test_round_trip_matrix(self):
        m = random_complex(RNG, 3, 5)
        [parsed] = qmath.parse_matrix_blocks(qmath.format_matrix_text(m))
        assert np.array_equal(parsed, m)

    def test_round_trip_ket_as_column(self):
        v = random_complex(RNG, 4)
        text = qmath.format_matrix_text(v)
        assert text.splitlines()[0] == "4 1"
        [parsed] = qmath.parse_matrix_blocks(text)
        assert parsed.shape == (4, 1)
        assert np.array_equal(parsed.reshape(4), v)

    def test_multi_block(self):
        blocks_in = [random_complex(RNG, 4, 1) for _ in range(4)]
        text = "\n".join(qmath.format_matrix_text(b) for b in blocks_in)
        blocks_out = qmath.parse_matrix_blocks(text)
        assert len(blocks_out) == 4
        for got, want in zip(blocks_out, blocks_in):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("bad", [
        "",
        "2 2\n1 0 0 0",
        "2 2\n1 0 0 0 0 0 x 0",
        "2\n1 0",
        "0 2\n",
        "-1 2\n1 0 1 0",
    ])
    def test_malformed_input(self, bad):
        with pytest.raises(ValueError):
            qmath.parse_matrix_blocks(bad)

    @pytest.mark.parametrize("bad, message", [
        # Block 1 has a non-finite body, block 2 a bad header.
        ("4 1\nnan 0 0 0 0 0 0 0\n4 x\n1 0 0 0 0 0 0 0", "non-finite entry in matrix body"),
        # Block 2 has a non-numeric token, block 3 is truncated.
        ("1 2\n1 0 0 0\n2 1\n1 0 x 0\n2 2\n1 0", "non-numeric token in matrix body"),
        # A header error ahead of a bad body wins.
        ("1 1\n1 0\n0 1\n1 0\n1 1\nx 0", "bad matrix shape 0x1"),
        ("1 1\n1 0\n1 1\n1 inf\n1 1\nx 0", "non-finite entry in matrix body"),
        ("1 1\nx inf\n1 1\n1 0", "non-numeric token in matrix body"),
        ("1 1\n1 0\n1 2\n1 0 0", "matrix body needs 4 numbers, found 3"),
        ("1 1\n1 0\n1", "truncated matrix header"),
    ])
    def test_first_malformed_block_wins(self, bad, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            qmath.parse_matrix_blocks(bad)

    def test_negative_zero_parses_equal(self):
        text = "2 2\n-0 1 1 -0\n-0 -0 0 -1\n"
        [parsed] = qmath.parse_matrix_blocks(text)
        assert np.array_equal(parsed, np.array([[1j, 1], [0, -1j]]))

    def test_round_trip_keeps_signed_zeros(self):
        m = np.array([[complex(-0.0, 1.0), complex(2.0, -0.0)], [complex(-0.0, -0.0), 0j]])
        [parsed] = qmath.parse_matrix_blocks(qmath.format_matrix_text(m))
        assert parsed.tobytes() == m.tobytes()

    def test_blocks_of_mixed_shapes(self):
        blocks_in = [random_complex(RNG, 2, 3), random_complex(RNG, 1, 1), random_complex(RNG, 4, 2)]
        text = "".join(qmath.format_matrix_text(b) for b in blocks_in)
        blocks_out = qmath.parse_matrix_blocks(text)
        assert [b.shape for b in blocks_out] == [(2, 3), (1, 1), (4, 2)]
        for got, want in zip(blocks_out, blocks_in):
            assert np.array_equal(got, want)
