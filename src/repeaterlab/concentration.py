"""Single-pair entanglement concentration.

A partially entangled two-qubit pure state cos(l)|00> + sin(l)|11> can be
filtered into a maximally entangled one by a local two-outcome measurement.
The best achievable success probability is min(2cos^2(l), 2sin^2(l)), and
the filtering measurement below attains it.
"""

from __future__ import annotations

import numpy as np

from . import qmath


class NotEntangledError(ValueError):
    """Raised when the input state carries no entanglement to concentrate."""


def p_e(state: np.ndarray) -> float:
    """Best probability of filtering a two-qubit pure state to a maximal one.

    Takes the normalized 4-amplitude ket.  Equals twice the smallest
    squared Schmidt coefficient, capped at 1: the filter weight of the rate
    kernel, from the same closed-form 2x2 singular values.
    """
    ket = np.asarray(state, dtype=complex).reshape(-1)
    if ket.size != 4:
        raise ValueError(f"expected a two-qubit state of dimension 4, got {ket.size}")
    if not np.isfinite(ket).all():
        raise ValueError("two-qubit state has non-finite amplitudes")
    k, _, total, _, s_min = qmath.singular_values_2x2(ket)
    defect = abs(float(np.ldexp(total, -2 * k)) - 1.0)
    if defect > qmath.STRICT_ATOL:
        raise ValueError(f"state is not normalized (|<psi|psi> - 1| = {defect:.3e})")
    return float(min(1.0, np.ldexp(2.0 * s_min ** 2, -2 * k)))


def procrustean(lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Two-outcome filter whose outcome 0 maximizes cos(lam)|00> + sin(lam)|11>.

    Returns the 2x2 operators (m0, m1) on the second qubit, with
    m0^dag m0 + m1^dag m1 = I.  For lam in (0, pi/4] the filter damps the
    |0> component; past pi/4 the basis roles swap so the larger amplitude
    is damped instead.
    """
    lam = float(lam)
    if lam == 0.0:
        raise NotEntangledError("angle 0 gives a product state; nothing to concentrate")
    if not 0.0 < lam < np.pi / 2:
        raise ValueError(f"angle must lie in (0, pi/2), got {lam}")
    c, s = np.cos(lam), np.sin(lam)
    if c >= s:
        ratio = s / c
        keep, damp = 1, 0
    else:
        ratio = c / s
        keep, damp = 0, 1
    if ratio > 1.0 - qmath.PROB_FLOOR:
        # Balanced within float rounding: the filter is the identity.
        ratio = 1.0
    m0 = np.zeros((2, 2), dtype=complex)
    m0[keep, keep] = 1.0
    m0[damp, damp] = ratio
    m1 = np.zeros((2, 2), dtype=complex)
    m1[damp, damp] = np.sqrt(1.0 - ratio * ratio)
    return m0, m1
