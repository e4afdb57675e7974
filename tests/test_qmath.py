"""Linear-algebra core: closed-form 2x2 singular values, input gates, text I/O."""

import numpy as np
import pytest

from repeaterlab import qmath

RNG = np.random.default_rng(20240811)


def random_complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def schmidt_2x2(ket):
    """Schmidt coefficients of a two-qubit ket, largest first, from the closed form."""
    k, _, _, s_max, s_min = qmath.singular_values_2x2(np.asarray(ket, dtype=complex))
    return np.ldexp(np.array([s_max, s_min]), -k)


class TestSchmidt:
    """Two-qubit Schmidt coefficients through the closed-form 2x2 singular values."""

    def test_balanced_state(self):
        ket = np.array([1, 0, 0, 1]) / np.sqrt(2)
        assert np.allclose(schmidt_2x2(ket), [1 / np.sqrt(2)] * 2, atol=1e-15)

    def test_product_state_keeps_zero(self):
        assert np.allclose(schmidt_2x2(np.eye(4)[0]), [1.0, 0.0], atol=0)

    def test_two_qubit_angles(self):
        ket = np.array([np.cos(np.pi / 6), 0, 0, np.sin(np.pi / 6)])
        assert np.allclose(schmidt_2x2(ket), [np.sqrt(3) / 2, 0.5], atol=1e-15)

    def test_local_unitary_invariance(self):
        psi = random_complex(RNG, 4)
        psi /= np.linalg.norm(psi)
        base = schmidt_2x2(psi)
        for _ in range(5):
            qa, _ = np.linalg.qr(random_complex(RNG, 2, 2))
            qb, _ = np.linalg.qr(random_complex(RNG, 2, 2))
            assert np.allclose(schmidt_2x2(np.kron(qa, qb) @ psi), base, atol=1e-10)

    @pytest.mark.parametrize("scale", [1e-300, 1e-160, 1.0, 1e150, 1e300])
    def test_matches_lapack_at_any_scale(self, scale):
        m = random_complex(RNG, 50, 4) * scale
        k, scaled, total, s_max, s_min = qmath.singular_values_2x2(m)
        lapack = np.linalg.svd(m.reshape(-1, 2, 2), compute_uv=False)
        assert np.allclose(np.ldexp(s_max, -k), lapack[:, 0], rtol=1e-14, atol=0)
        # s_min's absolute error is about eps s_max, as LAPACK's.
        assert np.all(np.abs(np.ldexp(s_min, -k) - lapack[:, 1]) <= 1e-14 * lapack[:, 0])
        assert np.array_equal(scaled, m * np.ldexp(1.0, k)[:, None])
        assert np.all((np.abs(scaled).max(axis=1) >= 0.5) & (np.abs(scaled).max(axis=1) < 1.0))
        assert np.allclose(total, s_max ** 2 + s_min ** 2, rtol=1e-14)


class TestHelpers:
    def test_hermitian_gate(self):
        assert np.array_equal(qmath.require_hermitian(np.eye(3)), np.eye(3))
        with pytest.raises(ValueError):
            qmath.require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="expected a matrix, got array of rank 3"):
            qmath.require_hermitian(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError, match=r"operator must be square, got shape \(2, 3\)"):
            qmath.require_hermitian(np.zeros((2, 3)))

    def test_hermitian_gate_names_non_finite_input(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="gate input has non-finite entries"):
                qmath.require_hermitian(np.array([[1.0, bad], [0.0, 1.0]]), what="gate input")

    def test_hermitian_gate_reports_the_defect(self):
        with pytest.raises(ValueError, match=r"defect 1\.000e-06 > 1\.0e-10"):
            qmath.require_hermitian(np.array([[1.0, 1e-6], [0.0, 1.0]]))
        # Within the bound, the Frobenius norm alone passes it.
        qmath.require_hermitian(np.array([[1.0, 5e-13], [0.0, 1.0]]))
        # The bound is LOOSE_ATOL: a skew between it and STRICT_ATOL passes.
        assert qmath.STRICT_ATOL < 5e-11 < qmath.LOOSE_ATOL
        qmath.require_hermitian(np.array([[1.0, 5e-11], [0.0, 1.0]]))

    def test_as_real_pairs_shapes(self):
        v = np.array([1 + 2j, 3.0])
        assert qmath.as_real_pairs(v) == [[1.0, 2.0], [3.0, 0.0]]
        m = np.array([[1j]])
        assert qmath.as_real_pairs(m) == [[[0.0, 1.0]]]
        with pytest.raises(ValueError):
            qmath.as_real_pairs(np.zeros((2, 2, 2)))


class TestSpectralNormWithin:
    """The Frobenius pre-check against np.linalg.norm's, and the SVD behind it."""

    @staticmethod
    def defects(rng, atol):
        """Real and complex 4x4 defects with Frobenius norms at and around atol."""
        stack = [np.zeros((4, 4)), np.diag([atol, 0.0, 0.0, 0.0]), np.diag([0, 0, 0, -atol])]
        for factor in (0.25, 0.5, 1.0 - 2e-16, 1.0, 1.0 + 2e-16, 1.5, 2.0, 8.0):
            for m in (rng.normal(size=(4, 4)), random_complex(rng, 4, 4)):
                stack.append(m * (factor * atol / np.linalg.norm(m)))
        return [np.asarray(m, dtype=complex) for m in stack] + [m.real for m in stack]

    @pytest.mark.parametrize("atol", [qmath.STRICT_ATOL, qmath.LOOSE_ATOL, 1.0, 5e-324])
    def test_pre_check_is_numpys_frobenius_verdict(self, atol, monkeypatch):
        # A single matrix goes on to the SVD exactly when the pre-check fails it.
        honest = np.linalg.norm
        svd_calls = []

        def spectral(a, ord=None, axis=None):
            svd_calls.append(ord)
            return honest(a, ord, axis)

        monkeypatch.setattr(np.linalg, "norm", spectral)
        for m in self.defects(np.random.default_rng(7), atol):
            frobenius_ok = honest(m, axis=(-2, -1)) <= atol
            svd_calls.clear()
            verdict = qmath.spectral_norm_within(m, atol)
            assert svd_calls == ([] if frobenius_ok else [2])
            assert verdict == (frobenius_ok or honest(m, 2) <= atol)

    def test_defect_equal_to_atol_passes(self):
        atol = qmath.STRICT_ATOL
        m = np.diag([atol, 0.0, 0.0, 0.0]).astype(complex)
        assert np.linalg.norm(m) == atol
        assert qmath.spectral_norm_within(m, atol)

    def test_stack_verdicts(self):
        atol = qmath.LOOSE_ATOL
        for stack in (np.array(self.defects(np.random.default_rng(8), atol)),
                      np.array(self.defects(np.random.default_rng(9), atol)[:4])):
            want = np.linalg.norm(stack, axis=(-2, -1)) <= atol
            if not want.all():
                want = np.linalg.norm(stack, 2, axis=(-2, -1)) <= atol
            assert np.array_equal(qmath.spectral_norm_within(stack, atol), want)


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
        with pytest.raises(ValueError, match="cannot serialize array of rank 3"):
            qmath.format_matrix_text(np.zeros((2, 2, 2)))

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
        "x 4\n1 0 0 0 0 0 0 0",
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
