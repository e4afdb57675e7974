"""Pair states of the swapping scenario.

A qubit source pair cos(angle)|00> + sin(angle)|11> is fixed by its
Schmidt angle alone, checked and snapped to (0, pi/4]; a pair in any
finite dimension by its squared Schmidt coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import qmath


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


def _check_protocol_angle(value: float, name: str) -> float:
    value = float(value)
    # Decimal-rounded boundary inputs (0.7854 for pi/4) snap down.
    if not 0.0 < value <= np.pi / 4 + qmath.BOUNDARY_SLACK:
        raise ValueError(f"{name} must lie in (0, pi/4], got {value}")
    return min(value, np.pi / 4)


def _checked_angles(theta: float, eta: float) -> tuple[float, float]:
    """Both pair angles checked and snapped, theta first."""
    return _check_protocol_angle(theta, "theta"), _check_protocol_angle(eta, "eta")


def _amplitudes(theta, eta) -> np.ndarray:
    """Product amplitudes f[2s+t] = amp_theta[s] amp_eta[t], shape (..., 4).

    Index t of f addresses both the Alice/Bob pair basis |a b> (t = 2a + b)
    and Clare's pair basis |c1 c2> (t = 2c1 + c2).  Broadcasts over angle
    arrays; the angles must already be checked.
    """
    ct, st = np.cos(theta), np.sin(theta)
    ce, se = np.cos(eta), np.sin(eta)
    f00 = ct * ce
    f = np.empty(f00.shape + (4,))
    f[..., 0], f[..., 1], f[..., 2], f[..., 3] = f00, ct * se, st * ce, st * se
    return f


def _checked_amplitudes(theta: float, eta: float) -> tuple[float, float, np.ndarray]:
    """Checked (snapped) angles and their product amplitudes."""
    theta, eta = _checked_angles(theta, eta)
    return theta, eta, _amplitudes(theta, eta)


def max_entangled(u: np.ndarray, d: int) -> np.ndarray:
    """Maximally entangled ket (u x I) (1/sqrt(d)) sum_k |k>|k>."""
    m = qmath.as_matrix(u)
    if m.shape != (d, d):
        raise ValueError(f"unitary must be {d}x{d}, got {m.shape}")
    defect = m @ m.conj().T - np.eye(d)
    if not qmath.spectral_norm_within(defect, qmath.LOOSE_ATOL):
        raise ValueError(f"matrix is not unitary (defect {np.linalg.norm(defect, 2):.3e})")
    # Sum_k (u|k>)|k> has amplitude u[i, k] at index i * d + k.
    return m.reshape(-1) / np.sqrt(d)
