"""Optimality test for four-outcome projective measurements at the middle station.

A measurement is given by its four rank-one kets, as the rows of one
(4, 4) array checked for orthonormality; projector files are converted to
kets where they are read.  A closed-form sum over the kets decides whether
Clare's measurement achieves the best possible concentration rate, without
simulating the protocol; the module also takes that rate from the swap
kernel, as every rate report does, so the two routes can vouch for each
other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import qmath
from .repeater import (_IDENTITY, _Record, _amplitudes, _checked_angles, _orthonormal_kets,
                       _outcomes, _rate, run_protocol_with_kets)

# Exchanging the roles of the two source pairs swaps Clare's qubits.
_SWAP_PERM = (0, 2, 1, 3)


class RankOneRequiredError(ValueError):
    """Raised when a projector in the measurement has rank above one."""


@dataclass(frozen=True)
class CriterionReport(_Record):
    """Both faces of the optimality test for one measurement."""

    lhs: float
    rhs: float
    p_s: float
    optimal: bool
    tolerance: float


def _lhs(phi: np.ndarray, theta: float, eta: float) -> float:
    """criterion_lhs of validated kets (the rows of phi) at checked angles."""
    if theta > eta:
        phi, theta, eta = phi[:, _SWAP_PERM], eta, theta
    # The diagonals of t1 and t2, and of t1 (x) t2 at index 2a + b.
    c1, s1 = np.cos(theta) ** 2, np.sin(theta) ** 2
    c2, s2 = np.cos(eta) ** 2, np.sin(eta) ** 2
    straight = np.abs(phi) ** 2 @ np.array([c1 * c2, c1 * s2, -s1 * c2, -s1 * s2])
    cross = (phi[:, :2].conj() * phi[:, 2:]) @ np.array([c2, s2])
    return float(np.add.reduce(np.sqrt(straight ** 2
                                       + np.sin(2 * theta) ** 2 * np.abs(cross) ** 2)))


def criterion_lhs(kets: Sequence[np.ndarray], theta: float, eta: float) -> float:
    """Closed-form sum over four kets; equals cos(2 min angle) iff optimal.

    The pair amplitudes enter through two single-qubit operators, with the
    smaller angle first (theta <= eta): t1 = diag(cos^2 theta, -sin^2 theta),
    whose trace is cos(2 theta), and the state t2 = diag(cos^2 eta, sin^2 eta).
    With d the diagonal of t1 (x) t2, ket phi contributes
    sqrt(straight^2 + sin^2(2 theta) |cross|^2), where
    straight = sum_t d_t |phi_t|^2 and cross = sum_b t2_bb conj(phi_b) phi_2+b.
    Never smaller than the target, so the gap measures how far the
    measurement falls short.
    """
    # The angles are checked before the kets, so a bad angle is the error reported.
    theta, eta = _checked_angles(theta, eta)
    return _lhs(_orthonormal_kets(kets), theta, eta)


def achieved_rate(kets: Sequence[np.ndarray], theta: float, eta: float) -> float:
    """Concentration rate the measurement with these four kets actually delivers.

    The p_ms of run_protocol_with_kets: the swap run outcome by outcome,
    each outcome's Born weight times Bob's best local-filter weight.
    Independent of the closed-form route.
    """
    return run_protocol_with_kets(theta, eta, kets).p_ms


def is_optimal(kets: Sequence[np.ndarray], theta: float, eta: float,
               tol: float = qmath.FLAG_TOL) -> CriterionReport:
    """Full report: closed-form sum, target, delivered rate, and the verdict.

    The verdict is that p_s falls short of the optimal rate 1 - rhs =
    2 sin^2(min angle) by at most tol times that rate, plus rounding: 16
    eps of the rate and 8 steps of the subnormal grid, so tol = 0 means
    optimal up to rounding.  The shortfall is lhs - rhs by the closed
    form.  Raises ValueError for a negative or non-finite tol, and when the
    two routes disagree: p_s must equal 1 - lhs within qmath.LOOSE_ATOL.
    """
    tol = float(tol)
    if not math.isfinite(tol):
        raise ValueError(f"expected a finite number, got {tol!r}")
    if tol < 0.0:
        raise ValueError(f"tolerance must be nonnegative, got {tol!r}")
    # The angles are checked before the kets, so a bad angle is the error reported.
    theta, eta = _checked_angles(theta, eta)
    return _verdict(_orthonormal_kets(kets), theta, eta, tol)


def _verdict(phi: np.ndarray, theta: float, eta: float, tol: float) -> CriterionReport:
    """is_optimal of validated kets (the rows of phi) at checked angles."""
    lhs = _lhs(phi, theta, eta)
    rhs = float(np.cos(2 * min(theta, eta)))
    # Looked up as a module attribute, so a substituted rate is still compared.
    p_s = float(_rate(_outcomes(_amplitudes(theta, eta), phi)))
    gap = abs(p_s - (1.0 - lhs))
    if not gap <= qmath.LOOSE_ATOL:
        raise ValueError(f"delivered rate {p_s!r} and closed form 1 - lhs = {1.0 - lhs!r} "
                         f"disagree by {gap:.3e} (> {qmath.LOOSE_ATOL:.0e})")
    best = 2.0 * math.sin(min(theta, eta)) ** 2
    # The rates round apart by up to ~9 eps of best where it is normal, and
    # by up to 5 grid steps where it is subnormal: 4 outcome weights and a square.
    optimal = best - p_s <= (tol + 16 * math.ulp(1.0)) * best + 8 * math.ulp(0.0)
    return CriterionReport(lhs=lhs, rhs=rhs, p_s=p_s, optimal=optimal, tolerance=float(tol))


def _projector_kets(p: np.ndarray) -> np.ndarray:
    """The kets of a (4, 4, 4) stack of rank-one projectors, as rows.

    Every block must be Hermitian and idempotent (each eigenvalue 0 or 1),
    the blocks must sum to the identity, all at qmath.LOOSE_ATOL, and each
    must have trace 1; each check runs once over the whole stack.  Each
    ket is its block's top eigenvector.
    """
    # np.argmin of a boolean array is the first block that fails.
    skew = p - p.conj().swapaxes(-2, -1)
    ok = qmath.spectral_norm_within(skew, qmath.LOOSE_ATOL)
    if not ok.all():
        i = np.argmin(ok)
        raise ValueError(f"projector {i} is not Hermitian "
                         f"(defect {np.linalg.norm(skew[i], 2):.3e} > {qmath.LOOSE_ATOL:.1e})")
    w, v = np.linalg.eigh(p)
    ok = np.max(np.abs(w * w - w), axis=-1) <= qmath.LOOSE_ATOL
    if not ok.all():
        raise ValueError(f"projector {np.argmin(ok)} is not idempotent")
    # Completeness comes before the rank check, so a set padded with a zero
    # block fails as incomplete rather than as rank deficient.
    if not qmath.spectral_norm_within(p.sum(axis=0) - _IDENTITY, qmath.LOOSE_ATOL):
        raise ValueError("projectors are not orthogonal and complete: "
                         "they do not sum to the identity")
    trace = np.trace(p, axis1=-2, axis2=-1).real
    ok = np.abs(trace - 1.0) <= qmath.LOOSE_ATOL
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
    return _orthonormal_kets(kets)
