"""State constructors for the three-party swapping scenario.

Wire order is fixed globally as Alice, Clare's first qubit, Clare's second
qubit, Bob.  Alice's qubit is paired with Clare's first qubit, Clare's
second qubit with Bob's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from . import qmath


@dataclass(frozen=True)
class TwoQubitPure:
    """Two-qubit pure state cos(angle)|00> + sin(angle)|11>, angle in (0, pi/2)."""

    angle: float

    def __post_init__(self) -> None:
        if not 0.0 < self.angle < np.pi / 2:
            raise ValueError(f"angle must lie in (0, pi/2), got {self.angle}")

    def ket(self) -> np.ndarray:
        k = np.zeros(4, dtype=complex)
        k[0] = np.cos(self.angle)
        k[3] = np.sin(self.angle)
        return k

    def schmidt_coefficients(self) -> np.ndarray:
        c, s = np.cos(self.angle), np.sin(self.angle)
        return np.array(sorted([c, s], reverse=True))


@dataclass(frozen=True)
class SchmidtState:
    """Bipartite pure state given by its squared Schmidt coefficients.

    Coefficients are probabilities: strictly positive, nonincreasing and
    summing to 1.
    """

    coefficients: tuple[float, ...]

    def __init__(self, coefficients: Sequence[float]) -> None:
        coeffs = tuple(float(c) for c in coefficients)
        if not coeffs:
            raise ValueError("at least one Schmidt coefficient required")
        if any(c <= 0.0 for c in coeffs):
            raise ValueError(f"Schmidt coefficients must be strictly positive, got {coeffs}")
        if any(coeffs[i] < coeffs[i + 1] for i in range(len(coeffs) - 1)):
            raise ValueError(f"Schmidt coefficients must be nonincreasing, got {coeffs}")
        if abs(sum(coeffs) - 1.0) > qmath.STRICT_ATOL:
            raise ValueError(f"Schmidt coefficients must sum to 1, got sum {sum(coeffs)}")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def dim(self) -> int:
        return len(self.coefficients)

    def amplitudes(self) -> np.ndarray:
        return np.sqrt(np.asarray(self.coefficients, dtype=float))

    def ket(self) -> np.ndarray:
        """Materialize sum_k sqrt(c_k)|k>|k> on a dim x dim register."""
        d = self.dim
        out = np.zeros(d * d, dtype=complex)
        for k, c in enumerate(self.coefficients):
            out[k * d + k] = np.sqrt(c)
        return out


@dataclass(frozen=True, eq=False)
class JointScenario:
    """Two pair states laid out on the four-qubit register.

    `f` holds the four product amplitudes; `ket` is the 16-amplitude joint
    state in the fixed wire order.  Index t of `f` addresses both the
    Alice/Bob pair basis |a b> (t = 2a + b) and Clare's pair basis
    |c1 c2> (t = 2c1 + c2).
    """

    left: TwoQubitPure
    right: TwoQubitPure
    f: np.ndarray = field(repr=False)
    ket: np.ndarray = field(repr=False)

    @property
    def theta(self) -> float:
        return self.left.angle

    @property
    def eta(self) -> float:
        return self.right.angle


def _check_protocol_angle(value: float, name: str, strict: bool) -> float:
    value = float(value)
    if strict:
        # Decimal-rounded boundary inputs (0.7854 for pi/4) snap down.
        if not 0.0 < value <= np.pi / 4 + qmath.BOUNDARY_SLACK:
            raise ValueError(f"{name} must lie in (0, pi/4], got {value}")
        return min(value, np.pi / 4)
    if not 0.0 < value < np.pi / 2:
        raise ValueError(f"{name} must lie in (0, pi/2), got {value}")
    return value


def _amplitudes(theta, eta) -> np.ndarray:
    """Product amplitudes f[2s+t] = amp_theta[s] amp_eta[t], shape (..., 4).

    Broadcasts over angle arrays; the angles must already be checked.
    """
    ct, st = np.cos(theta), np.sin(theta)
    ce, se = np.cos(eta), np.sin(eta)
    return np.stack([ct * ce, ct * se, st * ce, st * se], axis=-1)


def _checked_amplitudes(theta: float, eta: float,
                        strict: bool = True) -> tuple[float, float, np.ndarray]:
    """Checked (snapped) angles and their product amplitudes."""
    theta = _check_protocol_angle(theta, "theta", strict)
    eta = _check_protocol_angle(eta, "eta", strict)
    return theta, eta, _amplitudes(theta, eta)


def make_joint(theta: float, eta: float, strict: bool = True) -> JointScenario:
    """Joint state of |Phi_theta> on Alice/Clare and |Phi_eta> on Clare/Bob.

    Strict mode keeps both angles in (0, pi/4], the canonical range for the
    protocol formulas; the permissive mode accepts (0, pi/2).
    """
    theta, eta, f = _checked_amplitudes(theta, eta, strict)
    left = TwoQubitPure(theta)
    right = TwoQubitPure(eta)
    # kron(left, right) already lands on wire order (A, C1, C2, B):
    # index 8a + 4c1 + 2c2 + b.
    ket = qmath.tensor(left.ket().reshape(4, 1), right.ket().reshape(4, 1)).reshape(-1)
    return JointScenario(left=left, right=right, f=f, ket=ket)


def max_entangled(u: np.ndarray, d: int) -> np.ndarray:
    """Maximally entangled ket (u x I) (1/sqrt(d)) sum_k |k>|k>."""
    m = qmath.as_matrix(u)
    if m.shape != (d, d):
        raise ValueError(f"unitary must be {d}x{d}, got {m.shape}")
    defect = float(np.linalg.norm(m @ m.conj().T - np.eye(d), 2))
    if defect > qmath.LOOSE_ATOL:
        raise ValueError(f"matrix is not unitary (defect {defect:.3e})")
    # Sum_k (u|k>)|k> has amplitude u[i, k] at index i * d + k.
    return m.reshape(-1) / np.sqrt(d)


def is_max_entangled(psi: np.ndarray, dim_a: int, dim_b: int,
                     atol: float = qmath.LOOSE_ATOL) -> bool:
    """Whether all Schmidt coefficients equal 1/sqrt(min(dim_a, dim_b)) within atol."""
    dec = qmath.schmidt(psi, dim_a, dim_b)
    target = 1.0 / np.sqrt(min(dim_a, dim_b))
    return bool(np.all(np.abs(dec.coefficients - target) <= atol))


def canonical_two_qubit(psi: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Reduce a two-qubit pure state to the canonical angle form.

    Returns (angle, u_a, u_b) with angle in [0, pi/4] such that
    (u_a x u_b)|psi> equals cos(angle)|00> + sin(angle)|11> up to a
    global phase.
    """
    dec = qmath.schmidt(psi, 2, 2)
    c = dec.coefficients
    angle = float(np.arctan2(c[1], c[0]))
    u_a = dec.left_vectors.conj()
    u_b = dec.right_vectors.conj()
    return angle, u_a, u_b


def state_from_config(obj: Any) -> TwoQubitPure | SchmidtState:
    """Build a state from a config mapping: {"angle": x} or {"schmidt": [...]}."""
    if not isinstance(obj, dict):
        raise ValueError(f"state config must be a mapping, got {type(obj).__name__}")
    keys = set(obj)
    if keys == {"angle"}:
        return TwoQubitPure(float(obj["angle"]))
    if keys == {"schmidt"}:
        return SchmidtState(obj["schmidt"])
    raise ValueError(f"state config must have exactly one of 'angle' or 'schmidt', got keys {sorted(keys)}")
