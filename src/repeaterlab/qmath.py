"""Dense complex linear algebra for small quantum registers."""

from __future__ import annotations

import numpy as np

# Every threshold in the package, one name per value and meaning.  A defect
# equal to its bound passes.
# Rounding at unit scale: norms, ket Gram, Schmidt sums, eigenvalue support.
STRICT_ATOL = 1e-12
# After an eigensolver, a file read or two routes: Hermiticity, PSD, projectors, rates.
LOOSE_ATOL = 1e-10
# Angles up to pi/4 plus this (decimal-rounded pi/4, as in 0.7854) snap down to pi/4.
BOUNDARY_SLACK = 1e-4
# Default tolerance of the criterion's optimality flag: the delivered rate's
# shortfall from the optimal rate, relative to that rate, beyond rounding
# (a tolerance of 0 means optimal up to rounding).
FLAG_TOL = 1e-9
# How far a command-line Schmidt list may sum from 1 before it is renormalized.
TEXT_SUM_ATOL = 1e-9


def require_hermitian(a: np.ndarray, what: str = "operator") -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got array of rank {m.ndim}")
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{what} has non-finite entries")
    skew = m - m.conj().T
    if not spectral_norm_within(skew, LOOSE_ATOL):
        defect = float(np.linalg.norm(skew, 2))
        raise ValueError(f"{what} is not Hermitian (defect {defect:.3e} > {LOOSE_ATOL:.1e})")
    return m


def spectral_norm_within(a: np.ndarray, atol: float) -> np.ndarray:
    """Whether each matrix of a stack has spectral norm at most atol.

    The Frobenius norm bounds the spectral norm from above, so singular
    values are computed only when that bound exceeds atol.  Entries must
    be finite.
    """
    # np.linalg.norm's own Frobenius branch, without its Python-level dispatch.
    within = np.sqrt(np.add.reduce((a.conj() * a).real, axis=(-2, -1))) <= atol
    if within.all():
        return within
    return np.linalg.norm(a, 2, axis=(-2, -1)) <= atol


def singular_values_2x2(m: np.ndarray) -> tuple[np.ndarray, ...]:
    """Closed-form singular values of 2x2 matrices, given row-major as (..., 4).

    Returns (k, scaled, total, s_max, s_min).  Each matrix is first
    rescaled by 2^k, the power of two that brings its largest entry into
    [1/2, 1), so no square underflows; the rescale is exact.  `scaled` is
    the rescaled matrix, `total` its squared Frobenius norm p + r, with
    p = |m0|^2 + |m1|^2 and r = |m2|^2 + |m3|^2, and s_max, s_min its
    singular values: with q = m0 conj(m2) + m1 conj(m3),
    s_max^2 = (p + r)/2 + hypot((p - r)/2, |q|), a sum of nonnegative
    terms, and s_min = |m0 m3 - m1 m2| / s_max, whose absolute error is
    about eps s_max, as LAPACK's.  The singular values of m itself are
    ldexp(s, -k).
    """
    _, e = np.frexp(np.maximum.reduce(np.abs(m), axis=-1))
    # Capped so that 2^k stays finite.  Scaled, a nonzero matrix has an
    # entry of at least 2^-51, so s_max >= 2^-51 and p + r >= 2^-102: the
    # floor below only turns 0/0 into 0 for a zero matrix.
    k = np.minimum(-e, 1023)
    scaled = m * np.ldexp(1.0, k)[..., None]
    m0, m1, m2, m3 = scaled[..., 0], scaled[..., 1], scaled[..., 2], scaled[..., 3]
    squares = (scaled * scaled.conj()).real
    p = squares[..., 0] + squares[..., 1]
    r = squares[..., 2] + squares[..., 3]
    total = p + r
    s_max = np.sqrt(0.5 * total + np.hypot(0.5 * (p - r), np.abs(m0 * m2.conj() + m1 * m3.conj())))
    s_min = np.abs(m0 * m3 - m1 * m2) / np.maximum(s_max, 2.0 ** -64)
    return k, scaled, total, s_max, s_min


def format_matrix_text(m: np.ndarray) -> str:
    """Serialize a matrix: first line "rows cols", then row-major "re im" pairs."""
    a = np.asarray(m, dtype=complex)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2:
        raise ValueError(f"cannot serialize array of rank {a.ndim}")
    lines = [f"{a.shape[0]} {a.shape[1]}"]
    for row in a:
        lines.append(" ".join(f"{z.real:.17g} {z.imag:.17g}" for z in row))
    return "\n".join(lines) + "\n"


def parse_matrix_blocks(text: str) -> list[np.ndarray]:
    """Parse a whitespace-separated stream of matrix blocks.

    Each block is a "rows cols" header and then its rows * cols entries,
    row-major, each as a "re im" pair.  An error names the first malformed
    block in stream order, whether its header or its body is at fault.
    """
    tokens = text.split()
    blocks: list[np.ndarray] = []
    pos = 0
    while pos < len(tokens):
        if pos + 2 > len(tokens):
            raise ValueError("truncated matrix header")
        try:
            rows, cols = int(tokens[pos]), int(tokens[pos + 1])
        except ValueError as exc:
            raise ValueError(f"bad matrix header {tokens[pos:pos + 2]!r}") from exc
        if rows <= 0 or cols <= 0:
            raise ValueError(f"bad matrix shape {rows}x{cols}")
        pos += 2
        need = 2 * rows * cols
        if pos + need > len(tokens):
            raise ValueError(f"matrix body needs {need} numbers, found {len(tokens) - pos}")
        try:
            body = np.array([float(t) for t in tokens[pos:pos + need]])
        except ValueError as exc:
            raise ValueError("non-numeric token in matrix body") from exc
        if not np.isfinite(body).all():
            raise ValueError("non-finite entry in matrix body")
        blocks.append(body.view(complex).reshape(rows, cols))
        pos += need
    if not blocks:
        raise ValueError("no matrix data found")
    return blocks


def as_real_pairs(a: np.ndarray) -> list:
    """Nested [re, im] lists for JSON output; vectors give one pair per entry."""
    arr = np.asarray(a, dtype=complex)
    if arr.ndim not in (1, 2):
        raise ValueError(f"expected a vector or matrix, got ndim={arr.ndim}")
    return np.stack((arr.real, arr.imag), -1).tolist()
