"""Success-probability limits for swapping in arbitrary finite dimension.

Each pair is given by its squared Schmidt coefficients.  Three layers: a
steering bound on how much weight any ensemble member of a state can
carry, a rearrangement inequality for traces of Hermitian products, and
the resulting closed-form ceiling on the probability that a single
measurement outcome at the middle station leaves the end nodes maximally
entangled, together with the operator that reaches it.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import qmath


@dataclass(frozen=True, eq=False)
class BoundResult:
    """Ceiling, the unitary picking the target state, and the reaching operator.

    The operator is rank one, m_i = scale * outer(omega, w), and is kept
    as those factors; the `m_i` property forms the d^2 x d^2 array.  The
    factors have a fixed structure, which a writer of m_i may rely on:
    omega = vec(optimal_u) / sqrt(d) for the d x d permutation optimal_u,
    so its nonzero entries, at np.flatnonzero(optimal_u), are d equal
    complex numbers and every other entry is +0; no component of w, real
    or imaginary, has its sign bit set.  So m_i's rows at those d indices
    are the one row scale * (omega[k] * w), and every other row is +0.
    """

    p_max: float
    achieved_p: float
    post_fidelity: float
    optimal_u: np.ndarray
    scale: float
    omega: np.ndarray
    w: np.ndarray

    @property
    def m_i(self) -> np.ndarray:
        return self.scale * np.outer(self.omega, self.w)

    def to_dict(self) -> dict:
        return {"p_max": self.p_max,
                "achieved_p": self.achieved_p,
                "post_fidelity": self.post_fidelity,
                "optimal_u": qmath.as_real_pairs(self.optimal_u),
                "m_i": qmath.as_real_pairs(self.m_i)}


def _require_state(rho: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """rho checked as a density matrix, with its eigenvalues (ascending) and eigenvectors."""
    m = qmath.require_hermitian(rho, what=what)
    w, v = np.linalg.eigh(m)
    if float(w[0]) < -qmath.LOOSE_ATOL:
        raise ValueError(f"{what} has negative eigenvalue {float(w[0]):.3e}")
    if abs(float(np.trace(m).real) - 1.0) > qmath.LOOSE_ATOL:
        raise ValueError(f"{what} must have unit trace, got {float(np.trace(m).real)!r}")
    return m, w, v


def steering_bound(rho: np.ndarray, rho_i: np.ndarray) -> float:
    """Largest weight any ensemble for rho can give the member rho_i.

    That is 1 / lambda_max(rho^-1/2 rho_i rho^-1/2) on the support of rho,
    the eigenvalues above STRICT_ATOL.  Zero (with a warning) when rho_i
    leaks outside that support, since no decomposition of rho can contain
    it at all.
    """
    rho, w, v = _require_state(rho, "rho")
    rho_i, _, _ = _require_state(rho_i, "rho_i")
    if rho.shape != rho_i.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {rho_i.shape}")
    support = w > qmath.STRICT_ATOL
    kernel = v[:, ~support]
    leak = float(np.vdot(kernel, rho_i @ kernel).real)
    if leak > qmath.STRICT_ATOL:
        warnings.warn(
            f"rho_i has weight {leak:.3e} outside the support of rho; bound is 0",
            RuntimeWarning, stacklevel=2)
        return 0.0
    vs = v[:, support]
    inv_sqrt = 1.0 / np.sqrt(w[support])
    # eigvalsh reads one triangle, so rounding in this product is never
    # mistaken for a non-Hermitian input.
    x = (vs.conj().T @ rho_i @ vs) * np.outer(inv_sqrt, inv_sqrt)
    return float(1.0 / np.linalg.eigvalsh(x)[-1])


def trace_rearrangement_lb(a: np.ndarray, b: np.ndarray) -> float:
    """Floor on tr(AB): ascending spectrum of A against descending of B."""
    a = qmath.require_hermitian(a, what="a")
    b = qmath.require_hermitian(b, what="b")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    la = np.linalg.eigvalsh(a)
    lb = np.linalg.eigvalsh(b)[::-1]
    return float(np.dot(la, lb))


def _coefficients(a: Sequence[float], b: Sequence[float]) -> list[np.ndarray]:
    """Both squared Schmidt coefficient lists, checked, as arrays with the shorter first.

    Each list must be nonempty, finite, strictly positive, nonincreasing
    and sum to 1 within STRICT_ATOL.  Lists of equal length keep their order.
    """
    checked = []
    for x in (a, b):
        coeffs = tuple(map(float, x))
        if not coeffs:
            raise ValueError("at least one Schmidt coefficient required")
        if not all(map(math.isfinite, coeffs)):
            raise ValueError(f"Schmidt coefficients must be finite, got {coeffs}")
        if min(coeffs) <= 0.0:
            raise ValueError(f"Schmidt coefficients must be strictly positive, got {coeffs}")
        if any(map(operator.lt, coeffs, coeffs[1:])):
            raise ValueError(f"Schmidt coefficients must be nonincreasing, got {coeffs}")
        if abs(sum(coeffs) - 1.0) > qmath.STRICT_ATOL:
            raise ValueError(f"Schmidt coefficients must sum to 1, got sum {sum(coeffs)}")
        checked.append(np.array(coeffs))
    return sorted(checked, key=len)


def p_max(a: Sequence[float], b: Sequence[float]) -> float:
    """Ceiling on any single outcome's probability of leaving the ends maximal.

    The source pairs have squared Schmidt coefficient lists a and b; the
    shorter list is paired against the reversal of the longer one's head.
    """
    return _ceiling(*_coefficients(a, b))


def _ceiling(ca: np.ndarray, cb: np.ndarray) -> float:
    """p_max of coefficient arrays `_coefficients` has checked, the shorter first."""
    d_a, d = len(ca), len(cb)
    # A product that underflows makes the sum infinite and the ceiling 0.
    with np.errstate(over="ignore", divide="ignore"):
        denom = float(np.add.reduce(1.0 / (ca * cb[d_a - 1 :: -1])))
    return float(d / denom)


def achieving_operator(a: Sequence[float], b: Sequence[float]) -> BoundResult:
    """Measurement element reaching the ceiling, checked on the actual state.

    The middle station holds a mirror copy of the end-node pair; applying
    the element there and tracing gives the honest outcome probability
    and the post-state overlap with the target.  With equal local
    dimensions both hit the ceiling exactly; with unequal dimensions the
    smaller local rank caps what any operator can reach.
    """
    ca, cb = _coefficients(a, b)
    d_a, d = len(ca), len(cb)
    ceiling = _ceiling(ca, cb)

    # The permutation reversing the first d_a basis states, identity beyond,
    # picks the target (u x 1) (1/sqrt(d)) sum_k |k>|k>, whose amplitude at
    # index i * d + k is u[i, k] / sqrt(d).
    u = np.eye(d, dtype=complex)[np.concatenate((np.arange(d_a)[::-1], np.arange(d_a, d)))]
    omega = u.reshape(-1) / np.sqrt(d)
    a_pad = np.zeros(d)
    a_pad[:d_a] = ca
    g = np.sqrt(np.multiply.outer(a_pad, cb).ravel())
    # g is zero at the padding and where a product of tiny coefficients underflows.
    inv_g = np.divide(1.0, g, out=np.zeros(d * d), where=g > 0.0)
    scale = np.sqrt(ceiling)
    w = omega.conj() * inv_g

    # M = scale |omega><conj(w)| is rank one, so M^dag M has the single
    # nonzero eigenvalue ||omega||^2 ||scale w||^2.  Scaling w before
    # squaring keeps 1/g, up to 1e300 for tiny coefficients, from
    # overflowing.
    sw = scale * w
    norm_omega = float(np.vdot(omega, omega).real)
    top = norm_omega * float(np.vdot(sw, sw).real)
    if top > 1.0 + qmath.LOOSE_ATOL:
        raise ValueError(
            f"operator is not a valid measurement element: "
            f"largest eigenvalue of M^dag M exceeds 1 by {top - 1.0:.3e}")

    # The joint (g x 1) M^T is outer(t, omega) with t = g scale w: the
    # outcome probability is ||omega||^2 ||t||^2, and the post state's
    # overlap with omega is |<omega|t>|^2 / ||t||^2.
    t = g * sw
    norm_t = float(np.vdot(t, t).real)
    achieved = norm_omega * norm_t
    fidelity = abs(complex(np.vdot(omega, t))) ** 2 / norm_t if norm_t > 0.0 else 0.0
    return BoundResult(p_max=ceiling, achieved_p=achieved,
                       post_fidelity=min(max(fidelity, 0.0), 1.0),
                       optimal_u=u, scale=scale, omega=omega, w=w)
