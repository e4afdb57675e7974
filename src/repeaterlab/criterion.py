"""Optimality test for four-outcome projective measurements at the middle station.

A measurement is given by its four rank-one kets, as the rows of one
(4, 4) array checked for orthonormality; projector files are converted to
kets where they are read.  A closed-form sum over the kets decides whether
Clare's measurement achieves the best possible concentration rate, without
simulating the protocol; the module also computes that rate directly so
the two routes can vouch for each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import qmath
from .repeater import _orthonormal_kets, _outcomes
from .states import _check_protocol_angle, _checked_amplitudes

PROJECTOR_ATOL = 1e-10
RANK_ONE_ATOL = 1e-10
ROUTE_MATCH_ATOL = 1e-10
DEFAULT_FLAG_TOL = 1e-9

# Exchanging the roles of the two source pairs swaps Clare's qubits.
_SWAP_PERM = (0, 2, 1, 3)


class RankOneRequiredError(ValueError):
    """Raised when a projector in the measurement has rank above one."""


@dataclass(frozen=True)
class CriterionReport:
    """Both faces of the optimality test for one measurement."""

    lhs: float
    rhs: float
    p_s: float
    optimal: bool
    tolerance: float

    def to_dict(self) -> dict:
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "p_s": self.p_s,
            "optimal": self.optimal,
            "tolerance": self.tolerance,
        }


def t_operators(theta: float, eta: float, strict: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Single-qubit operators carrying the pair amplitudes into the test.

    The first has trace cos(2 theta); the second is a state (unit trace).
    """
    theta = _check_protocol_angle(theta, "theta", strict=True)
    eta = _check_protocol_angle(eta, "eta", strict=True)
    if strict and theta > eta:
        raise ValueError(f"expected theta <= eta, got theta={theta} > eta={eta}")
    t1 = np.diag([np.cos(theta) ** 2, -np.sin(theta) ** 2]).astype(complex)
    t2 = np.diag([np.cos(eta) ** 2, np.sin(eta) ** 2]).astype(complex)
    return t1, t2


def _lhs(phi: np.ndarray, theta: float, eta: float) -> float:
    """criterion_lhs of validated kets (the rows of phi) at checked angles."""
    if theta > eta:
        phi, theta, eta = phi[:, _SWAP_PERM], eta, theta
    t1, t2 = t_operators(theta, eta)
    d1, d2 = t1.diagonal().real, t2.diagonal().real
    # The diagonal of t1 (x) t2, at index 2a + b.
    straight = np.abs(phi) ** 2 @ np.outer(d1, d2).ravel()
    cross = (phi[:, :2].conj() * phi[:, 2:]) @ d2
    return float(np.sum(np.sqrt(straight ** 2 + np.sin(2 * theta) ** 2 * np.abs(cross) ** 2)))


def criterion_lhs(kets: Sequence[np.ndarray], theta: float, eta: float) -> float:
    """Closed-form sum over four kets; equals cos(2 min angle) iff optimal.

    With the smaller angle first and d the diagonal of t1 (x) t2, ket phi
    contributes sqrt(straight^2 + sin^2(2 theta) |cross|^2), where
    straight = sum_t d_t |phi_t|^2 and cross = sum_b t2_bb conj(phi_b) phi_2+b.
    Never smaller than the target, so the gap measures how far the
    measurement falls short.
    """
    phi = _orthonormal_kets(kets, PROJECTOR_ATOL)
    theta = _check_protocol_angle(theta, "theta", strict=True)
    eta = _check_protocol_angle(eta, "eta", strict=True)
    return _lhs(phi, theta, eta)


def achieved_rate(kets: Sequence[np.ndarray], theta: float, eta: float) -> float:
    """Concentration rate the measurement with these four kets actually delivers.

    Runs the swap outcome by outcome: sums each post-state's optimal
    local-filter success weight, twice the smaller squared singular value
    of the leftover.  Independent of the closed-form route.
    """
    phi = _orthonormal_kets(kets, PROJECTOR_ATOL)
    _, _, f = _checked_amplitudes(theta, eta)
    return float(np.sum(_outcomes(f, phi).filter_weight))


def is_optimal(kets: Sequence[np.ndarray], theta: float, eta: float,
               tol: float = DEFAULT_FLAG_TOL) -> CriterionReport:
    """Full report: closed-form sum, target, delivered rate, and the verdict.

    Raises ValueError when the two routes disagree: the delivered rate must
    equal 1 - lhs within ROUTE_MATCH_ATOL.
    """
    theta = _check_protocol_angle(theta, "theta", strict=True)
    eta = _check_protocol_angle(eta, "eta", strict=True)
    phi = _orthonormal_kets(kets, PROJECTOR_ATOL)
    lhs = _lhs(phi, theta, eta)
    rhs = float(np.cos(2 * min(theta, eta)))
    p_s = achieved_rate(phi, theta, eta)
    gap = abs(p_s - (1.0 - lhs))
    if not gap <= ROUTE_MATCH_ATOL:
        raise ValueError(f"delivered rate {p_s!r} and closed form 1 - lhs = {1.0 - lhs!r} "
                         f"disagree by {gap:.3e} (> {ROUTE_MATCH_ATOL:.0e})")
    return CriterionReport(lhs=lhs, rhs=rhs, p_s=p_s,
                           optimal=abs(lhs - rhs) <= tol, tolerance=float(tol))


def _projector_kets(p: np.ndarray) -> np.ndarray:
    """The kets of a (4, 4, 4) stack of rank-one projectors, as rows.

    Every block must be Hermitian and idempotent (each eigenvalue 0 or 1),
    the blocks must sum to the identity, all at PROJECTOR_ATOL, and each
    must have trace 1; each check runs once over the whole stack.  Each
    ket is its block's top eigenvector.
    """
    # np.argmin of a boolean array is the first block that fails.
    skew = p - p.conj().swapaxes(-2, -1)
    ok = qmath.spectral_norm_within(skew, PROJECTOR_ATOL)
    if not ok.all():
        i = np.argmin(ok)
        raise ValueError(f"projector {i} is not Hermitian "
                         f"(defect {np.linalg.norm(skew[i], 2):.3e} > {PROJECTOR_ATOL:.1e})")
    w, v = np.linalg.eigh(p)
    ok = np.max(np.abs(w * w - w), axis=-1) <= PROJECTOR_ATOL
    if not ok.all():
        raise ValueError(f"projector {np.argmin(ok)} is not idempotent")
    # Completeness comes before the rank check, so a set padded with a zero
    # block fails as incomplete rather than as rank deficient.
    if not qmath.spectral_norm_within(p.sum(axis=0) - np.eye(4), PROJECTOR_ATOL):
        raise ValueError("projectors are not orthogonal and complete: "
                         "they do not sum to the identity")
    trace = np.trace(p, axis1=-2, axis2=-1).real
    ok = np.abs(trace - 1.0) <= RANK_ONE_ATOL
    if not ok.all():
        i = np.argmin(ok)
        raise RankOneRequiredError(f"projector {i} has rank {trace[i]:.6g}; "
                                   "the optimality test covers rank-1 projectors only")
    return v[..., -1]


def measurement_from_text(text: str) -> np.ndarray:
    """Read a four-outcome measurement from the matrix text format as its kets.

    Accepts four dim-4 kets (column or row vectors) or four 4x4 rank-one
    projectors, which are converted to kets here.  Returns the kets as the
    rows of a (4, 4) array, checked to be an orthonormal basis.
    """
    blocks = qmath.parse_matrix_blocks(text)
    if len(blocks) != 4:
        raise ValueError(f"expected 4 blocks describing the measurement, found {len(blocks)}")
    shapes = {b.shape for b in blocks}
    if shapes <= {(4, 1), (1, 4)}:
        kets = [b.reshape(4) for b in blocks]
    elif shapes == {(4, 4)}:
        kets = _projector_kets(np.array(blocks))
    else:
        raise ValueError(f"blocks must be dim-4 kets or 4x4 projectors, got shapes {sorted(shapes)}")
    return _orthonormal_kets(kets, PROJECTOR_ATOL)
