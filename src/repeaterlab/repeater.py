"""Entanglement swapping through a middle station.

Alice and Clare share cos(theta)|00> + sin(theta)|11>, Clare and Bob share
cos(eta)|00> + sin(eta)|11>.  Clare measures her two qubits in a basis
tuned to the pair amplitudes; two of the four outcomes hand Alice and Bob
a maximally entangled state outright, and the other two leave a partially
entangled state that Bob can still filter locally.  The module computes
the exact success rate of that scheme, samples it, and accounts the
classical-communication and local-measurement cost against the plain
Bell-basis strategy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import qmath
from .concentration import GeneralMeasurement, apply_measurement
from .states import _amplitudes, _check_protocol_angle, _checked_amplitudes

ORTHONORMAL_ATOL = 1e-12
MAXIMAL_STATE_ATOL = 1e-10
RATE_MATCH_ATOL = 1e-10


@dataclass(frozen=True, eq=False)
class OptimalBasis:
    """Clare's four-outcome basis tuned to the pair amplitudes.

    Outcomes 1 and 2 project Alice and Bob straight onto maximally
    entangled states; outcomes 3 and 4 leave the filterable remainders.
    """

    theta: float
    eta: float
    beta1: float
    beta2: float
    f: np.ndarray
    kets: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        _orthonormal_kets(self.kets)


@dataclass(frozen=True, eq=False)
class OutcomeRecord:
    """Analytic data for one of Clare's outcomes."""

    outcome: int
    clare_prob: float
    post_state: np.ndarray
    maximal: bool
    bob_success_prob: float
    success_prob: float

    def to_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "clare_prob": self.clare_prob,
            "maximal": self.maximal,
            "bob_success_prob": self.bob_success_prob,
            "success_prob": self.success_prob,
            "post_state": qmath.as_real_pairs(self.post_state),
        }


@dataclass(frozen=True, eq=False)
class AnalyticResult:
    """Exact per-outcome breakdown of one protocol configuration."""

    theta: float
    eta: float
    p_ms: float
    per_outcome: tuple[OutcomeRecord, ...]
    bob_action_prob: float

    def ledger(self) -> dict:
        return {
            "classical_bits_sent": 2,
            "local_measurements_expected": 1.0 + self.bob_action_prob,
            "bob_action_prob": self.bob_action_prob,
        }

    def to_dict(self) -> dict:
        return {
            "theta": self.theta,
            "eta": self.eta,
            "p_ms": self.p_ms,
            "per_outcome": [r.to_dict() for r in self.per_outcome],
            "ledger": self.ledger(),
        }


@dataclass(frozen=True, eq=False)
class SampledResult:
    """Monte-Carlo estimate of the protocol success rate."""

    theta: float
    eta: float
    n: int
    seed: int | None
    estimate: float
    stderr: float
    ledger_stats: dict

    def to_dict(self) -> dict:
        return {
            "theta": self.theta,
            "eta": self.eta,
            "n": self.n,
            "seed": self.seed,
            "estimate": self.estimate,
            "stderr": self.stderr,
            "ledger_stats": dict(self.ledger_stats),
        }


@dataclass(frozen=True)
class BranchSummary:
    """Rate and expected LOCC cost of one strategy."""

    p_ms: float
    bob_action_prob: float
    expected_local_measurements: float
    classical_bits_sent: int = 2

    def to_dict(self) -> dict:
        return {
            "p_ms": self.p_ms,
            "bob_action_prob": self.bob_action_prob,
            "expected_local_measurements": self.expected_local_measurements,
            "classical_bits_sent": self.classical_bits_sent,
        }


@dataclass(frozen=True, eq=False)
class ComparisonRecord:
    """Tuned basis versus Bell basis on the same pair of resources."""

    theta: float
    eta: float
    optimal: BranchSummary
    bell: BranchSummary
    rates_equal: bool

    def to_dict(self) -> dict:
        return {
            "theta": self.theta,
            "eta": self.eta,
            "optimal": self.optimal.to_dict(),
            "bell": self.bell.to_dict(),
            "rates_equal": self.rates_equal,
        }


def _direct_forms(theta, eta) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed forms at checked angles, broadcast over arrays.

    Returns the lower and upper projection bounds and the direct-success
    probability.  np.float_power squares through libm pow for scalars and
    arrays alike, so a scalar call and a batch agree to the bit.  With
    c = cos 2theta cos 2eta, 1 - c is summed from sines, since subtracting
    c from 1 loses all precision at small angles.
    """
    numerator = np.float_power(np.sin(2 * theta), 2) * np.float_power(np.sin(2 * eta), 2)
    cos_2theta = np.cos(2 * theta)
    one_plus_c = 1.0 + cos_2theta * np.cos(2 * eta)
    one_minus_c = 2.0 * (np.float_power(np.sin(theta), 2)
                         + np.float_power(np.sin(eta), 2) * cos_2theta)
    lower = numerator / (4.0 * one_plus_c)
    with np.errstate(divide="ignore", invalid="ignore"):
        upper = np.where(one_minus_c > 0.0, numerator / (4.0 * one_minus_c), np.inf)
        direct = numerator / (2.0 * (one_minus_c * one_plus_c))
    return lower, upper, direct


def projection_bounds(theta: float, eta: float) -> tuple[float, float]:
    """Range of success probabilities for a single direct-success projection.

    A direct success is a Clare outcome after which Alice and Bob already
    hold a maximally entangled state.
    """
    theta = _check_protocol_angle(theta, "theta", strict=True)
    eta = _check_protocol_angle(eta, "eta", strict=True)
    lower, upper, _ = _direct_forms(theta, eta)
    return float(lower), float(upper)


def _tuned_kets(f: np.ndarray, beta1: float = 0.0, beta2: float = 0.0) -> np.ndarray:
    """Clare's tuned kets for amplitudes f of shape (..., 4), as rows of (..., 4, 4).

    Normalized through angles, so tiny amplitudes cannot underflow a norm.
    """
    a12 = np.arctan2(f[..., 1], f[..., 2])
    a03 = np.arctan2(f[..., 0], f[..., 3])
    c12, s12, c03, s03 = np.cos(a12), np.sin(a12), np.cos(a03), np.sin(a03)
    e1 = np.exp(1j * beta1)
    e2 = np.exp(1j * beta2)
    kets = np.zeros(f.shape[:-1] + (4, 4), dtype=complex)
    kets[..., 0, 1], kets[..., 0, 2] = c12, e1 * s12
    kets[..., 1, 0], kets[..., 1, 3] = c03, e2 * s03
    kets[..., 2, 1], kets[..., 2, 2] = s12, -e1 * c12
    kets[..., 3, 0], kets[..., 3, 3] = s03, -e2 * c03
    return kets


def _orthonormal_kets(kets: Sequence[np.ndarray], atol: float = ORTHONORMAL_ATOL) -> np.ndarray:
    """Four kets as the rows of a (4, 4) array; raises unless they are an orthonormal basis.

    The check is one Gram product: the spectral norm of Gram - I must not
    exceed atol.
    """
    phi = np.asarray(kets, dtype=complex)
    if phi.shape != (4, 4):
        raise ValueError(f"expected four dim-4 kets, got an array of shape {phi.shape}")
    if not np.isfinite(phi).all():
        raise ValueError("basis kets have non-finite entries")
    defect = phi.conj() @ phi.T - np.eye(4)
    if not qmath.spectral_norm_within(defect, atol):
        raise ValueError(f"basis kets are not orthonormal (Gram defect "
                         f"{np.linalg.norm(defect, 2):.3e} > {atol:.1e})")
    return phi


def build_optimal_basis(theta: float, eta: float,
                        beta1: float = 0.0, beta2: float = 0.0) -> OptimalBasis:
    """Construct Clare's tuned basis for the given pair angles.

    The two free phases rotate the direct-success kets without changing
    any outcome probability.
    """
    theta, eta, f = _checked_amplitudes(theta, eta)
    return OptimalBasis(theta=theta, eta=eta, beta1=float(beta1), beta2=float(beta2),
                        f=f, kets=tuple(_tuned_kets(f, beta1, beta2)))


def bell_kets() -> tuple[np.ndarray, ...]:
    """The four standard Bell states on Clare's two qubits."""
    r = 1.0 / np.sqrt(2.0)
    return (
        np.array([r, 0, 0, r], dtype=complex),
        np.array([r, 0, 0, -r], dtype=complex),
        np.array([0, r, r, 0], dtype=complex),
        np.array([0, r, -r, 0], dtype=complex),
    )


def computational_kets() -> tuple[np.ndarray, ...]:
    """Clare's separable two-qubit basis |00>, |01>, |10>, |11>."""
    return tuple(qmath.basis_ket(t, 4) for t in range(4))


class _Outcomes(NamedTuple):
    """Per-outcome arrays, one entry per ket; zero where the outcome never fires.

    `leftover` is the unnormalized leftover M, flattened, for every outcome.
    """

    clare_prob: np.ndarray
    leftover: np.ndarray
    maximal: np.ndarray
    bob_success_prob: np.ndarray
    filter_weight: np.ndarray


def _outcomes(f: np.ndarray, kets) -> _Outcomes:
    """Every Clare outcome at once, from one batched 2x2 singular-value solve.

    Projecting Clare onto ket phi leaves Alice and Bob the 2x2 matrix
    M[a, b] = f[2a+b] conj(phi[2a+b]).  The outcome probability is its
    squared Frobenius norm, and Bob's best filter succeeds with weight
    2 s_min(M)^2, twice the smaller squared singular value; the leftover
    is maximal when both normalized singular values equal 1/sqrt(2).

    Amplitudes f of shape (..., 4) and kets of shape (..., K, 4) broadcast
    over their leading axes; every field has shape (..., K), the leftovers
    (..., K, 4).
    """
    m = np.asarray(f)[..., None, :] * np.asarray(kets, dtype=complex).conj()
    prob = np.einsum("...kt,...kt->...k", m.conj(), m).real
    s = np.linalg.svd(m.reshape(m.shape[:-1] + (2, 2)), compute_uv=False)
    live = prob > qmath.PROB_FLOOR
    prob = np.where(live, prob, 0.0)
    norm = np.sqrt(np.where(live, prob, 1.0))[..., None]
    coeffs = s / norm
    maximal = live & np.all(np.abs(coeffs - np.sqrt(0.5)) <= MAXIMAL_STATE_ATOL, axis=-1)
    bob = np.where(maximal, 1.0, np.minimum(1.0, 2.0 * coeffs[..., 1] ** 2))
    return _Outcomes(clare_prob=prob,
                     leftover=m,
                     maximal=maximal,
                     bob_success_prob=np.where(live, bob, 0.0),
                     filter_weight=np.where(live, 2.0 * s[..., 1] ** 2, 0.0))


def _success(out: _Outcomes) -> np.ndarray:
    """Per-outcome success probability, Clare's Born weight times Bob's."""
    return out.clare_prob * out.bob_success_prob


def _rate(out: _Outcomes) -> np.ndarray:
    """Success rate: the per-outcome successes summed in outcome order."""
    return np.sum(_success(out), axis=-1)


def _rate_table(theta: np.ndarray, eta: np.ndarray) -> tuple[np.ndarray, ...]:
    """Tuned-basis rate, direct-success probability and projection bounds.

    Takes arrays of checked (snapped) angles and evaluates them all with
    one kernel call.
    """
    f = _amplitudes(theta, eta)
    lower, upper, direct = _direct_forms(theta, eta)
    return _rate(_outcomes(f, _tuned_kets(f))), direct, lower, upper


def _analysis(theta: float, eta: float, f: np.ndarray, kets) -> AnalyticResult:
    """Per-outcome breakdown at checked angles with amplitudes f."""
    out = _outcomes(f, kets)
    records = tuple(
        OutcomeRecord(outcome=index, clare_prob=float(p),
                      post_state=m / np.sqrt(p) if p > 0.0 else np.zeros(4, dtype=complex),
                      maximal=bool(maximal), bob_success_prob=float(q),
                      success_prob=float(success))
        for index, (p, m, maximal, q, success) in enumerate(
            zip(out.clare_prob, out.leftover, out.maximal, out.bob_success_prob,
                _success(out)), start=1))
    bob_action = float(sum(r.clare_prob for r in records if not r.maximal))
    return AnalyticResult(theta=theta, eta=eta, p_ms=float(_rate(out)),
                          per_outcome=records, bob_action_prob=bob_action)


def run_protocol_with_kets(theta: float, eta: float,
                           kets: Sequence[np.ndarray]) -> AnalyticResult:
    """Exact analysis of the swap under an arbitrary orthonormal basis for Clare.

    Raises ValueError unless the kets are four orthonormal dim-4 vectors.
    """
    theta, eta, f = _checked_amplitudes(theta, eta)
    return _analysis(theta, eta, f, _orthonormal_kets(kets))


def run_protocol_analytic(theta: float, eta: float,
                          beta1: float = 0.0, beta2: float = 0.0) -> AnalyticResult:
    """Exact success rate and per-outcome breakdown under the tuned basis.

    The rate always comes out as min(2 sin^2 theta, 2 sin^2 eta), the best
    any strategy can do with these resources.
    """
    basis = build_optimal_basis(theta, eta, beta1, beta2)
    return _analysis(basis.theta, basis.eta, basis.f, basis.kets)


def direct_success_prob(theta: float, eta: float) -> float:
    """Probability that Clare's outcome alone finishes the job."""
    theta = _check_protocol_angle(theta, "theta", strict=True)
    eta = _check_protocol_angle(eta, "eta", strict=True)
    return float(_direct_forms(theta, eta)[2])


def bob_filter(post_state: np.ndarray) -> tuple[GeneralMeasurement, float]:
    """Bob's local filter for a partially entangled post-swap state.

    Built from the state's own Schmidt decomposition, so it works whatever
    basis the state arrives in.  Returns the measurement and the Born
    probability of its successful outcome 0.
    """
    dec = qmath.schmidt(post_state, 2, 2)
    c0, c1 = float(dec.coefficients[0]), float(dec.coefficients[1])
    if c1 <= 0.0:
        raise ValueError("post state is a product state; no filter can help")
    ratio = c1 / c0
    v0 = dec.right_vectors[0]
    v1 = dec.right_vectors[1]
    m0 = ratio * np.outer(v0, v0.conj()) + np.outer(v1, v1.conj())
    m1 = np.sqrt(max(0.0, 1.0 - ratio * ratio)) * np.outer(v0, v0.conj())
    filt = GeneralMeasurement([m0, m1])
    branches = apply_measurement(filt, post_state, wire=1, dims=(2, 2))
    return filt, float(branches[0][0])


def run_protocol_sampled(theta: float, eta: float, n: int,
                         seed: int | None = None,
                         beta1: float = 0.0, beta2: float = 0.0) -> SampledResult:
    """Monte-Carlo estimate of the success rate over n independent passes.

    Clare's outcome counts are one multinomial draw from the exact Born
    distribution; for each filterable outcome, the successes of Bob's
    filter are one binomial draw at its Born probability.  Memory does
    not grow with n, and runs are deterministic for a fixed seed.
    """
    if n < 1:
        raise ValueError(f"need at least one sample, got n={n}")
    rng = np.random.default_rng(seed)
    basis = build_optimal_basis(theta, eta, beta1, beta2)
    out = _outcomes(basis.f, basis.kets)
    counts = rng.multinomial(n, out.clare_prob / out.clare_prob.sum())
    successes = 0
    for hits, maximal, bob_p in zip(counts, out.maximal, out.bob_success_prob):
        successes += int(hits) if maximal else int(rng.binomial(hits, bob_p))

    estimate = successes / n
    stderr = float(np.sqrt(max(estimate * (1.0 - estimate), 0.0) / n))
    bob_freq = int(counts[~out.maximal].sum()) / n
    ledger_stats = {
        "classical_bits_mean": 2.0,
        "local_measurements_mean": 1.0 + bob_freq,
        "bob_acted_freq": bob_freq,
        "outcome_counts": [int(c) for c in counts],
    }
    return SampledResult(theta=basis.theta, eta=basis.eta, n=int(n), seed=seed,
                         estimate=float(estimate), stderr=stderr,
                         ledger_stats=ledger_stats)


def _summary(result: AnalyticResult) -> BranchSummary:
    return BranchSummary(p_ms=result.p_ms, bob_action_prob=result.bob_action_prob,
                         expected_local_measurements=1.0 + result.bob_action_prob)


def compare_with_bell(theta: float, eta: float) -> ComparisonRecord:
    """Tuned basis versus plain Bell measurement on the same resources.

    Both reach the same success rate; the tuned basis spares Bob a local
    measurement whenever Clare's outcome already finished the job.
    """
    basis = build_optimal_basis(theta, eta)
    optimal = _analysis(basis.theta, basis.eta, basis.f, basis.kets)
    bell = _analysis(basis.theta, basis.eta, basis.f, bell_kets())
    return ComparisonRecord(
        theta=basis.theta, eta=basis.eta,
        optimal=_summary(optimal), bell=_summary(bell),
        rates_equal=abs(optimal.p_ms - bell.p_ms) <= RATE_MATCH_ATOL,
    )
