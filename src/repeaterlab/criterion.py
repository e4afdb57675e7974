"""Optimality test for four-outcome projective measurements at the middle station.

A closed-form sum over the projectors decides whether Clare's measurement
achieves the best possible concentration rate, without simulating the
protocol; the module also computes that rate directly so the two routes
can vouch for each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import qmath
from .repeater import ProjectiveMeasurement, _outcomes
from .states import _check_protocol_angle, _checked_amplitudes

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


def _as_projective(meas) -> ProjectiveMeasurement:
    if isinstance(meas, ProjectiveMeasurement):
        return meas
    ops = list(meas)
    if ops and np.asarray(ops[0]).ndim == 1:
        return ProjectiveMeasurement.from_kets(ops)
    return ProjectiveMeasurement(ops)


def _rank_one_kets(meas: ProjectiveMeasurement) -> list[np.ndarray]:
    kets = []
    for i, p in enumerate(meas.projectors):
        if abs(float(np.trace(p).real) - 1.0) > RANK_ONE_ATOL:
            raise RankOneRequiredError(
                f"projector {i} has rank {float(np.trace(p).real):.6g}; "
                "the optimality test covers rank-1 projectors only"
            )
        vals, vecs = np.linalg.eigh(p)
        kets.append(vecs[:, -1])
    return kets


def _oriented(meas: ProjectiveMeasurement, theta: float,
              eta: float) -> tuple[ProjectiveMeasurement, float, float]:
    """Relabel so the smaller angle sits on Clare's first qubit."""
    if theta <= eta:
        return meas, theta, eta
    swapped = [p[np.ix_(_SWAP_PERM, _SWAP_PERM)] for p in meas.projectors]
    return ProjectiveMeasurement(swapped), eta, theta


def criterion_lhs(meas, theta: float, eta: float) -> float:
    """Closed-form sum over the projectors; equals cos(2 min angle) iff optimal.

    Never smaller than that target, so the gap measures how far the
    measurement falls short.
    """
    pm = _as_projective(meas)
    if pm.dim != 4:
        raise ValueError(f"expected projectors on the 4-dim middle space, got dim {pm.dim}")
    _rank_one_kets(pm)
    theta = _check_protocol_angle(theta, "theta", strict=True)
    eta = _check_protocol_angle(eta, "eta", strict=True)
    pm, th, et = _oriented(pm, theta, eta)
    t1, t2 = t_operators(th, et)
    diag_op = qmath.tensor(t1, t2)
    flip = np.zeros((2, 2), dtype=complex)
    flip[0, 1] = 1.0
    flip_op = qmath.tensor(flip, t2)
    s2 = np.sin(2 * th) ** 2
    total = 0.0
    for p in pm.projectors:
        straight = float(np.trace(diag_op @ p).real)
        cross = complex(np.trace(flip_op @ p))
        total += np.sqrt(straight * straight + s2 * (cross.real ** 2 + cross.imag ** 2))
    return float(total)


def achieved_rate(meas, theta: float, eta: float) -> float:
    """Concentration rate the measurement actually delivers.

    Runs the swap outcome by outcome: sums each post-state's optimal
    local-filter success weight, twice the smaller squared singular value
    of the leftover.  Independent of the closed-form route.
    """
    pm = _as_projective(meas)
    if pm.dim != 4:
        raise ValueError(f"expected projectors on the 4-dim middle space, got dim {pm.dim}")
    kets = _rank_one_kets(pm)
    _, _, f = _checked_amplitudes(theta, eta)
    return float(np.sum(_outcomes(f, kets).filter_weight))


def is_optimal(meas, theta: float, eta: float,
               tol: float = DEFAULT_FLAG_TOL) -> CriterionReport:
    """Full report: closed-form sum, target, delivered rate, and the verdict.

    Raises ValueError when the two routes disagree: the delivered rate must
    equal 1 - lhs within ROUTE_MATCH_ATOL.
    """
    theta = _check_protocol_angle(theta, "theta", strict=True)
    eta = _check_protocol_angle(eta, "eta", strict=True)
    lhs = criterion_lhs(meas, theta, eta)
    rhs = float(np.cos(2 * min(theta, eta)))
    p_s = achieved_rate(meas, theta, eta)
    gap = abs(p_s - (1.0 - lhs))
    if not gap <= ROUTE_MATCH_ATOL:
        raise ValueError(f"delivered rate {p_s!r} and closed form 1 - lhs = {1.0 - lhs!r} "
                         f"disagree by {gap:.3e} (> {ROUTE_MATCH_ATOL:.0e})")
    return CriterionReport(lhs=lhs, rhs=rhs, p_s=p_s,
                           optimal=abs(lhs - rhs) <= tol, tolerance=float(tol))


def measurement_from_text(text: str) -> ProjectiveMeasurement:
    """Read a four-outcome measurement from the matrix text format.

    Accepts four dim-4 kets (column or row vectors) or four 4x4 projectors.
    """
    blocks = qmath.parse_matrix_blocks(text)
    if len(blocks) != 4:
        raise ValueError(f"expected 4 blocks describing the measurement, found {len(blocks)}")
    shapes = {b.shape for b in blocks}
    if shapes <= {(4, 1), (1, 4)}:
        return ProjectiveMeasurement.from_kets([b.reshape(4) for b in blocks])
    if shapes == {(4, 4)}:
        return ProjectiveMeasurement(blocks)
    raise ValueError(f"blocks must be dim-4 kets or 4x4 projectors, got shapes {sorted(shapes)}")
