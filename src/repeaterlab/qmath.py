"""Dense complex linear algebra for small quantum registers (dim <= 64)."""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

HERMITIAN_ATOL = 1e-12
NORMALIZATION_ATOL = 1e-12
NEGATIVE_EIG_ATOL = 1e-10
SUPPORT_CUTOFF = 1e-12
PHASE_ATOL = 1e-10
PROB_FLOOR = 1e-15


def as_matrix(a: np.ndarray | Sequence) -> np.ndarray:
    """Coerce to a 2-D complex array."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got array of rank {m.ndim}")
    return m


def as_ket(v: np.ndarray | Sequence, dim: int | None = None) -> np.ndarray:
    """Coerce to a 1-D complex amplitude vector."""
    k = np.asarray(v, dtype=complex).reshape(-1)
    if dim is not None and k.size != dim:
        raise ValueError(f"expected a ket of dimension {dim}, got {k.size}")
    return k


def basis_ket(index: int, dim: int) -> np.ndarray:
    """Computational basis vector |index> in dimension dim."""
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dimension {dim}")
    k = np.zeros(dim, dtype=complex)
    k[index] = 1.0
    return k


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(a).conj().T


def is_hermitian(a: np.ndarray, atol: float = HERMITIAN_ATOL) -> bool:
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        return False
    return float(np.linalg.norm(m - m.conj().T, 2)) <= atol


def require_hermitian(a: np.ndarray, atol: float = HERMITIAN_ATOL, what: str = "operator") -> np.ndarray:
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be square, got shape {m.shape}")
    defect = float(np.linalg.norm(m - m.conj().T, 2))
    if defect > atol:
        raise ValueError(f"{what} is not Hermitian (defect {defect:.3e} > {atol:.1e})")
    return m


def require_normalized(psi: np.ndarray, atol: float = NORMALIZATION_ATOL, what: str = "state") -> np.ndarray:
    k = as_ket(psi)
    defect = abs(float(np.real(np.vdot(k, k))) - 1.0)
    if defect > atol:
        raise ValueError(f"{what} is not normalized (|<psi|psi> - 1| = {defect:.3e})")
    return k


def tensor(*factors: np.ndarray) -> np.ndarray:
    """Kronecker product with index convention (i_a * dim_b + i_b)."""
    if not factors:
        raise ValueError("tensor needs at least one factor")
    out = np.asarray(factors[0], dtype=complex)
    for f in factors[1:]:
        out = np.kron(out, np.asarray(f, dtype=complex))
    return out


def partial_trace(rho: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Reduced operator on the kept subsystems, tracing out the rest."""
    dims = tuple(int(d) for d in dims)
    m = as_matrix(rho)
    total = int(np.prod(dims))
    if m.shape != (total, total):
        raise ValueError(f"operator shape {m.shape} does not match subsystem dims {dims}")
    n = len(dims)
    keep_set = set(int(i) for i in keep)
    if not keep_set <= set(range(n)):
        raise ValueError(f"keep indices {sorted(keep_set)} out of range for {n} subsystems")
    work = m.reshape(dims + dims)
    # Trace highest wires first so lower axis numbers stay valid.
    for wire in sorted(set(range(n)) - keep_set, reverse=True):
        half = work.ndim // 2
        work = np.trace(work, axis1=wire, axis2=wire + half)
    kept_dim = int(np.prod([dims[i] for i in sorted(keep_set)])) if keep_set else 1
    return work.reshape(kept_dim, kept_dim)


class SchmidtDecomposition(NamedTuple):
    coefficients: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        out = np.zeros(self.left_vectors.shape[1] * self.right_vectors.shape[1], dtype=complex)
        for c, u, v in zip(self.coefficients, self.left_vectors, self.right_vectors):
            out += c * np.kron(u, v)
        return out


def schmidt(psi: np.ndarray, dim_a: int, dim_b: int) -> SchmidtDecomposition:
    """Schmidt decomposition of a normalized bipartite ket.

    Coefficients come back nonincreasing with sum of squares 1; row k of
    left_vectors / right_vectors holds the k-th local basis vector.
    """
    if dim_a * dim_b <= 0:
        raise ValueError("subsystem dimensions must be positive")
    k = as_ket(psi, dim_a * dim_b)
    require_normalized(k)
    u, s, vh = np.linalg.svd(k.reshape(dim_a, dim_b))
    r = min(dim_a, dim_b)
    return SchmidtDecomposition(s[:r].astype(float), u.T[:r], vh[:r])


def pinv_sqrt(rho: np.ndarray, cutoff: float = SUPPORT_CUTOFF) -> np.ndarray:
    """Inverse square root on the support; eigenvalues below cutoff map to 0."""
    m = require_hermitian(rho, what="pinv_sqrt input")
    w, v = np.linalg.eigh(m)
    if w[0] < -NEGATIVE_EIG_ATOL:
        raise ValueError(f"operator has negative eigenvalue {w[0]:.3e}")
    inv = np.where(w > cutoff, 1.0 / np.sqrt(np.clip(w, cutoff, None)), 0.0)
    return (v * inv) @ v.conj().T


def support_projector(rho: np.ndarray, cutoff: float = SUPPORT_CUTOFF) -> np.ndarray:
    """Orthogonal projector onto the eigenspaces above cutoff."""
    m = require_hermitian(rho, what="support_projector input")
    w, v = np.linalg.eigh(m)
    keep = np.where(w > cutoff, 1.0, 0.0)
    return (v * keep) @ v.conj().T


def op_norm_inf(a: np.ndarray) -> float:
    """Largest eigenvalue magnitude of a Hermitian operator."""
    m = require_hermitian(a, what="op_norm_inf input")
    w = np.linalg.eigvalsh(m)
    return float(np.max(np.abs(w))) if w.size else 0.0


class EigenSystem(NamedTuple):
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def descending(self) -> "EigenSystem":
        return EigenSystem(self.eigenvalues[::-1], self.eigenvectors[:, ::-1])

    def reconstruct(self) -> np.ndarray:
        return (self.eigenvectors * self.eigenvalues) @ self.eigenvectors.conj().T


def eigh_system(a: np.ndarray) -> EigenSystem:
    """Eigendecomposition of a Hermitian operator, eigenvalues ascending."""
    m = require_hermitian(a, what="eigh_system input")
    w, v = np.linalg.eigh(m)
    return EigenSystem(w.astype(float), v)


def same_up_to_phase(a: np.ndarray, b: np.ndarray, atol: float = PHASE_ATOL) -> bool:
    """Whether two normalized kets agree up to a global phase (|<a|b>| = 1)."""
    x = require_normalized(a)
    y = require_normalized(b)
    return abs(abs(complex(np.vdot(x, y))) - 1.0) <= atol


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
    """Parse a whitespace-separated stream of matrix blocks."""
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
            flat = np.array([float(t) for t in tokens[pos:pos + need]])
        except ValueError as exc:
            raise ValueError("non-numeric token in matrix body") from exc
        pos += need
        blocks.append((flat[0::2] + 1j * flat[1::2]).reshape(rows, cols))
    if not blocks:
        raise ValueError("no matrix data found")
    return blocks


def parse_matrix_text(text: str) -> np.ndarray:
    """Parse exactly one matrix block."""
    blocks = parse_matrix_blocks(text)
    if len(blocks) != 1:
        raise ValueError(f"expected one matrix block, found {len(blocks)}")
    return blocks[0]


def as_real_pairs(a: np.ndarray) -> list:
    """Nested [re, im] lists for JSON output; vectors give one pair per entry."""
    arr = np.asarray(a, dtype=complex)
    if arr.ndim not in (1, 2):
        raise ValueError(f"expected a vector or matrix, got ndim={arr.ndim}")
    return np.stack((arr.real, arr.imag), -1).tolist()
