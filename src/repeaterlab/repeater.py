"""Entanglement swapping through a middle station.

Alice and Clare share cos(theta)|00> + sin(theta)|11>, Clare and Bob share
cos(eta)|00> + sin(eta)|11>; each pair is fixed by its Schmidt angle,
checked and snapped to (0, pi/4].  Clare measures her two qubits in a basis
tuned to the pair amplitudes; two of the four outcomes hand Alice and Bob
a maximally entangled state outright, and the other two leave a partially
entangled state that Bob can still filter locally.  The module computes
the exact success rate of that scheme, samples it, and accounts the
classical-communication and local-measurement cost against the plain
Bell-basis strategy.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import asdict, dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from . import qmath

# The most passes one sample may hold: the multinomial draw takes a 64-bit count.
MAX_SAMPLES = 2 ** 63 - 1


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


class _Record:
    """Base of a dataclass whose report, to_dict, lists its fields in declaration order.

    A nested record becomes its own report, a tuple of them a list, an array [re, im] lists.
    """

    def to_dict(self) -> dict:
        return asdict(self, dict_factory=lambda items: {
            k: qmath.as_real_pairs(v) if isinstance(v, np.ndarray)
            else list(v) if isinstance(v, tuple) else v for k, v in items})


@dataclass(frozen=True, eq=False)
class OptimalBasis(_Record):
    """Clare's four-outcome basis tuned to the pair amplitudes: the report of `basis`.

    Outcomes 1 and 2 project Alice and Bob straight onto maximally
    entangled states; outcomes 3 and 4 leave the filterable remainders.
    """

    theta: float
    eta: float
    beta1: float
    beta2: float
    kets: np.ndarray


@dataclass(frozen=True, eq=False)
class OutcomeRecord(_Record):
    """Analytic data for one of Clare's outcomes."""

    outcome: int
    clare_prob: float
    maximal: bool
    bob_success_prob: float
    success_prob: float
    post_state: np.ndarray


@dataclass(frozen=True, eq=False)
class Ledger(_Record):
    """Expected LOCC cost of one protocol run: Clare's two bits, and Bob's filter when he acts."""

    classical_bits_sent: int
    local_measurements_expected: float
    bob_action_prob: float


@dataclass(frozen=True, eq=False)
class AnalyticResult(_Record):
    """Exact per-outcome breakdown of one protocol configuration."""

    theta: float
    eta: float
    p_ms: float
    per_outcome: tuple[OutcomeRecord, ...]
    ledger: Ledger


@dataclass(frozen=True, eq=False)
class SampledResult(_Record):
    """Monte-Carlo estimate of the protocol success rate."""

    theta: float
    eta: float
    n: int
    seed: int
    estimate: float
    stderr: float
    ledger_stats: dict


@dataclass(frozen=True)
class BranchSummary(_Record):
    """Rate and expected LOCC cost of one strategy."""

    p_ms: float
    bob_action_prob: float
    expected_local_measurements: float
    classical_bits_sent: int = 2


@dataclass(frozen=True, eq=False)
class ComparisonRecord(_Record):
    """Tuned basis versus Bell basis on the same pair of resources."""

    theta: float
    eta: float
    optimal: BranchSummary
    bell: BranchSummary
    rates_equal: bool


def _tuned_kets(f: np.ndarray, beta1: float = 0.0, beta2: float = 0.0) -> np.ndarray:
    """Clare's tuned kets for amplitudes f of shape (..., 4), as rows of (..., 4, 4).

    The direct kets are built from the amplitude pairs (f2, f1) and
    (f3, f0) over their hypot, so the kets stay orthonormal however small
    the amplitudes.  Each pair is first rescaled by the power of two 2^-e
    that brings its larger component into [1/2, 1], with e at most 0: a
    pair whose larger component is 1.0 stays as it is, since scaling it
    down would cost a tiny partner bits below the normal range.
    """
    x, y = f[..., 2:], f[..., 1::-1]
    _, e = np.frexp(np.maximum(x, y))
    up = -np.minimum(e, 0)
    x, y = np.ldexp(x, up), np.ldexp(y, up)
    h = np.hypot(x, y)
    c, s = x / h, y / h
    c12, c03, s12, s03 = c[..., 0], c[..., 1], s[..., 0], s[..., 1]
    e1, e2 = np.exp([1j * beta1, 1j * beta2])
    kets = np.zeros(f.shape[:-1] + (4, 4), dtype=complex)
    kets[..., 0, 1], kets[..., 0, 2] = c12, e1 * s12
    kets[..., 1, 0], kets[..., 1, 3] = c03, e2 * s03
    kets[..., 2, 1], kets[..., 2, 2] = s12, -e1 * c12
    kets[..., 3, 0], kets[..., 3, 3] = s03, -e2 * c03
    return kets


_IDENTITY = np.eye(4)
_IDENTITY.flags.writeable = False


def _orthonormal_kets(kets: Sequence[np.ndarray]) -> np.ndarray:
    """Four kets as the rows of a (4, 4) array; raises unless they are an orthonormal basis.

    The check is one Gram product: the spectral norm of Gram - I must not
    exceed qmath.LOOSE_ATOL, the bound of every check of four kets.
    """
    phi = np.asarray(kets, dtype=complex)
    if phi.shape != (4, 4):
        raise ValueError(f"expected four dim-4 kets, got an array of shape {phi.shape}")
    if not np.isfinite(phi).all():
        raise ValueError("basis kets have non-finite entries")
    defect = phi.conj() @ phi.T - _IDENTITY
    if not qmath.spectral_norm_within(defect, qmath.LOOSE_ATOL):
        raise ValueError(f"basis kets are not orthonormal (Gram defect "
                         f"{np.linalg.norm(defect, 2):.3e} > {qmath.LOOSE_ATOL:.1e})")
    return phi


def _checked_phases(beta1: float, beta2: float) -> tuple[float, float]:
    """Both free phases as floats; raises ValueError naming the first that is not finite."""
    beta1, beta2 = float(beta1), float(beta2)
    for name, value in (("beta1", beta1), ("beta2", beta2)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    return beta1, beta2


def build_optimal_basis(theta: float, eta: float,
                        beta1: float = 0.0, beta2: float = 0.0) -> OptimalBasis:
    """Construct Clare's tuned basis for the given pair angles.

    The two free phases rotate the direct-success kets without changing
    any outcome probability; each must be finite.  The kets are orthonormal
    as built and go unchecked.
    """
    theta, eta, f = _checked_amplitudes(theta, eta)
    beta1, beta2 = _checked_phases(beta1, beta2)
    return OptimalBasis(theta=theta, eta=eta, beta1=beta1, beta2=beta2,
                        kets=_tuned_kets(f, beta1, beta2))


def bell_kets() -> np.ndarray:
    """The four standard Bell states on Clare's two qubits, one ket per row."""
    r = 1.0 / np.sqrt(2.0)
    return np.array([[r, 0, 0, r], [r, 0, 0, -r], [0, r, r, 0], [0, r, -r, 0]], dtype=complex)


def computational_kets() -> np.ndarray:
    """Clare's separable two-qubit basis |00>, |01>, |10>, |11>, one ket per row."""
    return _IDENTITY.astype(complex)


class _Outcomes(NamedTuple):
    """Per-outcome arrays, one entry per ket; zero where the outcome never fires.

    `scaled` is each outcome's leftover M, flattened, times the power of two
    that brings its largest entry into [1/2, 1), and `norm` the norm of
    `scaled` (floored for a zero leftover).
    """

    clare_prob: np.ndarray
    scaled: np.ndarray
    norm: np.ndarray
    maximal: np.ndarray
    bob_success_prob: np.ndarray

    @property
    def post_state(self) -> np.ndarray:
        """Each leftover normalized, zero where the outcome never fires.

        Divided by the rescaled leftover's own norm, since sqrt(clare_prob)
        has lost bits when the probability is subnormal.
        """
        return np.where(self.clare_prob[..., None] > 0.0,
                        self.scaled / self.norm[..., None], 0.0)

    @property
    def bob_action_prob(self) -> np.ndarray:
        """Probability that Bob has to act: the non-maximal outcomes summed in outcome order."""
        return np.add.reduce(np.where(self.maximal, 0.0, self.clare_prob), axis=-1)


_SQRT_HALF = np.sqrt(0.5)


def _outcomes(f: np.ndarray, kets: np.ndarray) -> _Outcomes:
    """Every Clare outcome at once, from closed-form 2x2 singular values.

    Projecting Clare onto ket phi leaves Alice and Bob the 2x2 matrix
    M = [[m0, m1], [m2, m3]], m_t = f[t] conj(phi[t]).  The outcome
    probability is its squared Frobenius norm, and Bob's best filter
    succeeds with weight 2 s_min^2, twice the smaller squared singular
    value.  That filter is the single-pair Procrustean step of Bennett,
    Bernstein, Popescu and Schumacher (PRA 53, 2046, 1996): on a pair
    cos(l)|00> + sin(l)|11> it damps the larger Schmidt amplitude down to
    the smaller one and succeeds with min(2cos^2 l, 2sin^2 l) = 2 s_min^2,
    the best any local filter can do.  On the normalized leftover the
    weight is 2 c_min^2, also when the leftover counts as maximal (both
    normalized singular values within LOOSE_ATOL of 1/sqrt(2)), which only
    the ledger and the sampler read.
    An outcome fires unless its probability is exactly 0.  The singular
    values come from qmath.singular_values_2x2, on each leftover rescaled
    by an exact power of two.

    Amplitudes f of shape (..., 4) and complex kets of shape (..., K, 4)
    broadcast over their leading axes; every field has shape (..., K),
    `scaled` (..., K, 4).
    """
    m = f[..., None, :] * kets.conj()
    k, scaled, total, s_max, s_min = qmath.singular_values_2x2(m)
    prob = np.ldexp(total, -2 * k)
    live = prob > 0.0
    # A nonzero rescaled leftover has total >= 2^-102: the floor only turns
    # 0/0 into 0 for a zero leftover.
    norm = np.sqrt(np.maximum(total, 2.0 ** -128))
    c_min = s_min / norm
    maximal = (live & (np.abs(s_max / norm - _SQRT_HALF) <= qmath.LOOSE_ATOL)
               & (np.abs(c_min - _SQRT_HALF) <= qmath.LOOSE_ATOL))
    # Within 8 eps (2^-49) of 1, 2 c_min^2 is read as 1: that is its
    # rounding error at an exactly maximal leftover.
    weight = 2.0 * c_min ** 2
    bob = np.where(weight >= 1.0 - 2.0 ** -49, 1.0, weight)
    return _Outcomes(clare_prob=prob,
                     scaled=scaled,
                     norm=norm,
                     maximal=maximal,
                     bob_success_prob=np.where(live, bob, 0.0))


def _success(out: _Outcomes) -> np.ndarray:
    """Per-outcome success probability, Clare's Born weight times Bob's."""
    return out.clare_prob * out.bob_success_prob


def _rate(out: _Outcomes) -> np.ndarray:
    """Success rate: the per-outcome successes summed in outcome order."""
    return np.add.reduce(_success(out), axis=-1)


def _rate_table(theta: np.ndarray, eta: np.ndarray) -> tuple[np.ndarray, ...]:
    """Tuned-basis rate, direct-success probability and projection bounds.

    Takes 1-D arrays of checked (snapped) angles and evaluates them in one
    kernel call.
    """
    f = _amplitudes(theta, eta)
    out = _outcomes(f, _tuned_kets(f))
    p = out.clare_prob
    return _rate(out), p[..., 1] + p[..., 0], p[..., 1], p[..., 0]


def _grid_angles(n: int) -> np.ndarray:
    """The grid angles i (pi/4) / n for i = 1..n, the last snapped where it rounds above pi/4."""
    return np.minimum(np.arange(1, n + 1) * ((np.pi / 4.0) / n), np.pi / 4)


# Grid points per kernel call in _grid_table.  The kernel's temporaries are
# a few dozen arrays of four outcomes per point, so taking a large grid in
# slices keeps its memory per point as low as a small grid's.
_TABLE_SLICE = 4096


def _grid_table(n: int) -> Iterator[tuple[np.ndarray, ...]]:
    """_rate_table over the n x n pairs of _grid_angles(n), row-major in theta.

    The pairs are cut into slices of _TABLE_SLICE points, one _rate_table
    call each.  Yields each slice's theta and eta indices, then its four
    columns, so a caller that drops each slice in turn holds one slice at a
    time, whatever n is.
    """
    angles = _grid_angles(n)
    for start in range(0, n * n, _TABLE_SLICE):
        i, k = np.divmod(np.arange(start, min(start + _TABLE_SLICE, n * n)), n)
        yield (i, k, *_rate_table(angles[i], angles[k]))


def _analysis(theta: float, eta: float, out: _Outcomes) -> AnalyticResult:
    """Per-outcome breakdown at checked angles, every scalar a Python float, int or bool."""
    bob = float(out.bob_action_prob)
    # Outcomes 1 to 4, each record's fields in declaration order.
    records = tuple(map(OutcomeRecord, range(1, 5), out.clare_prob.tolist(), out.maximal.tolist(),
                        out.bob_success_prob.tolist(), _success(out).tolist(), out.post_state))
    ledger = Ledger(classical_bits_sent=2, local_measurements_expected=1.0 + bob,
                    bob_action_prob=bob)
    return AnalyticResult(theta=theta, eta=eta, p_ms=float(_rate(out)), per_outcome=records,
                          ledger=ledger)


def _tuned_outcomes(theta: float, eta: float,
                    beta1: float = 0.0, beta2: float = 0.0) -> tuple[float, float, _Outcomes]:
    """Checked angles and every outcome of Clare's tuned basis."""
    theta, eta, f = _checked_amplitudes(theta, eta)
    return theta, eta, _outcomes(f, _tuned_kets(f, *_checked_phases(beta1, beta2)))


def run_protocol_with_kets(theta: float, eta: float,
                           kets: Sequence[np.ndarray]) -> AnalyticResult:
    """Exact analysis of the swap under an arbitrary orthonormal basis for Clare.

    Raises ValueError unless the kets are four orthonormal dim-4 vectors.
    """
    theta, eta, f = _checked_amplitudes(theta, eta)
    return _analysis(theta, eta, _outcomes(f, _orthonormal_kets(kets)))


def run_protocol_analytic(theta: float, eta: float,
                          beta1: float = 0.0, beta2: float = 0.0) -> AnalyticResult:
    """Exact success rate and per-outcome breakdown under the tuned basis.

    The rate always comes out as min(2 sin^2 theta, 2 sin^2 eta), the best
    any strategy can do with these resources.
    """
    return _analysis(*_tuned_outcomes(theta, eta, beta1, beta2))


def projection_bounds(theta: float, eta: float) -> tuple[float, float]:
    """Range of success probabilities for a single direct-success projection.

    A direct success is a Clare outcome after which Alice and Bob already
    hold a maximally entangled state.  The bounds are the tuned basis' own
    Born weights of its two direct outcomes: outcome 2 the lower, outcome 1
    the upper.
    """
    p = _tuned_outcomes(theta, eta)[2].clare_prob
    return float(p[1]), float(p[0])


def direct_success_prob(theta: float, eta: float) -> float:
    """Probability that Clare's outcome alone finishes the job: the sum of the projection bounds."""
    lower, upper = projection_bounds(theta, eta)
    return lower + upper


def run_protocol_sampled(theta: float, eta: float, n: int,
                         seed: int | None = None) -> SampledResult:
    """Monte-Carlo estimate of the success rate over n independent passes.

    Clare's outcome counts are one multinomial draw from the exact Born
    distribution; for each filterable outcome, the successes of Bob's
    filter are one binomial draw at its Born probability.  Memory does
    not grow with n, and runs are deterministic for a fixed seed.  Without
    one, the seed is fresh entropy, reported so the run can be repeated.
    n is a whole number from 1 to MAX_SAMPLES and the seed a nonnegative
    integer; anything else raises ValueError naming the argument.
    """
    # n % 1 is NaN, never 0, for NaN and inf.
    if not (isinstance(n, numbers.Real) and n >= 1 and n % 1 == 0):
        raise ValueError(f"n must be a whole number of at least 1, got n={n!r}")
    n = int(n)
    if n > MAX_SAMPLES:
        raise ValueError(f"n must be at most {MAX_SAMPLES}, got n={n}")
    if seed is None:
        seed = np.random.SeedSequence().entropy
    else:
        try:
            seed = operator.index(seed)
        except TypeError:
            raise ValueError(f"seed must be an integer, got seed={seed!r}") from None
        if seed < 0:
            raise ValueError(f"seed must be nonnegative, got seed={seed}")
    rng = np.random.default_rng(seed)
    theta, eta, out = _tuned_outcomes(theta, eta)
    counts = rng.multinomial(n, out.clare_prob / np.add.reduce(out.clare_prob))
    successes = 0
    for hits, maximal, bob_p in zip(counts, out.maximal, out.bob_success_prob):
        successes += int(hits) if maximal else int(rng.binomial(hits, bob_p))

    estimate = successes / n
    stderr = math.sqrt(estimate * (1.0 - estimate) / n)
    bob_freq = int(np.add.reduce(counts[~out.maximal])) / n
    ledger_stats = {
        "classical_bits_mean": 2.0,
        "local_measurements_mean": 1.0 + bob_freq,
        "bob_acted_freq": bob_freq,
        "outcome_counts": [int(c) for c in counts],
    }
    return SampledResult(theta=theta, eta=eta, n=n, seed=seed,
                         estimate=float(estimate), stderr=stderr,
                         ledger_stats=ledger_stats)


def compare_with_bell(theta: float, eta: float) -> ComparisonRecord:
    """Tuned basis versus plain Bell measurement on the same resources.

    Both reach the same success rate; the tuned basis spares Bob a local
    measurement whenever Clare's outcome already finished the job.  Both
    bases go through one kernel call.
    """
    theta, eta, f = _checked_amplitudes(theta, eta)
    kets = np.empty((2, 4, 4), dtype=complex)
    kets[0], kets[1] = _tuned_kets(f), bell_kets()
    out = _outcomes(f, kets)
    p_ms = _rate(out).tolist()
    optimal, bell = (BranchSummary(p_ms=p, bob_action_prob=b, expected_local_measurements=1.0 + b)
                     for p, b in zip(p_ms, out.bob_action_prob.tolist()))
    return ComparisonRecord(
        theta=theta, eta=eta, optimal=optimal, bell=bell,
        rates_equal=abs(p_ms[0] - p_ms[1]) <= qmath.LOOSE_ATOL,
    )
