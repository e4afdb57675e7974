"""Workload generators and output checks for the repeaterlab benchmark.

Each workload turns a seeded random generator into one round of CLI
commands.  A round has the same make-up on every seed and in every
repetition: only angle values, coefficients, bases and sampler seeds
change.  That keeps the per-command cost and the library's call counts
identical from round to round, so ratios of counts repeat exactly.

Every command comes with a check.  A check recomputes the expected
answer apart from the library (closed forms from the paper, the loop
oracles in ``tests/oracles.py``, plain numpy) or tests a property the
method must have, and raises ``CheckFailed`` when the output disagrees.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

QUARTER_PI = math.pi / 4
# The CLI snaps angles in (pi/4, pi/4 + 1e-4] down to pi/4.
SNAP_RANGE = 1e-4
EXACT_ATOL = 1e-12
ROUTE_ATOL = 1e-10
SIGMAS = 5.0


class CheckFailed(Exception):
    """A command's output disagrees with the benchmark's own computation."""


@dataclass
class Op:
    """One CLI command, the work it stands for and the check on its stdout."""

    argv: list[str]
    units: int
    check: Callable[[str], None]


def _num(x: float) -> str:
    return repr(float(x))


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _snapped(x: float) -> float:
    return min(x, QUARTER_PI)


def optimal_rate(theta: float, eta: float) -> float:
    """min(2 sin^2 theta, 2 sin^2 eta) at the angles the CLI computes with."""
    return min(2 * math.sin(_snapped(theta)) ** 2, 2 * math.sin(_snapped(eta)) ** 2)


def direct_success(theta: float, eta: float) -> float:
    """Closed-form probability that Clare's outcome alone leaves a maximal pair."""
    t, e = _snapped(theta), _snapped(eta)
    num = math.sin(2 * t) ** 2 * math.sin(2 * e) ** 2
    return num / (2 * (1 - (math.cos(2 * t) * math.cos(2 * e)) ** 2))


def tuned_kets(theta: float, eta: float, beta1: float = 0.0, beta2: float = 0.0):
    """Clare's tuned basis, written out from the pair amplitudes."""
    t, e = _snapped(theta), _snapped(eta)
    f0, f1, f2, f3 = (math.cos(t) * math.cos(e), math.cos(t) * math.sin(e),
                      math.sin(t) * math.cos(e), math.sin(t) * math.sin(e))
    e1, e2 = np.exp(1j * beta1), np.exp(1j * beta2)
    n12, n03 = math.hypot(f1, f2), math.hypot(f0, f3)
    return [np.array([0, f2, e1 * f1, 0]) / n12,
            np.array([f3, 0, 0, e2 * f0]) / n03,
            np.array([0, f1, -e1 * f2, 0]) / n12,
            np.array([f0, 0, 0, -e2 * f3]) / n03]


def bell_kets():
    r = 1 / math.sqrt(2)
    return [np.array([r, 0, 0, r]), np.array([r, 0, 0, -r]),
            np.array([0, r, r, 0]), np.array([0, r, -r, 0])]


def _generic_angle(rng: np.random.Generator) -> float:
    return float(rng.uniform(0.15, 0.75))


def _snap_angle(rng: np.random.Generator) -> float:
    return QUARTER_PI + float(rng.uniform(0.0, SNAP_RANGE))


def _split_angles(rng: np.random.Generator, theta_first: bool) -> tuple[float, float]:
    """A small and a large angle at least 0.15 apart, so no outcome is rare."""
    small = float(rng.uniform(0.2, 0.4))
    large = float(rng.uniform(0.55, 0.75))
    return (small, large) if theta_first else (large, small)


# ---------------------------------------------------------------- sweep

# Rate slots: equal angles, theta or eta or both in snapping range, generic.
_RATE_SLOTS = ("equal", "snap_theta", "snap_eta", "snap_both",
               "phases", "phases", "generic", "generic")
_COMPARE_SLOTS = ("equal", "snap_theta", "snap_eta", "generic",
                  "generic", "generic", "generic", "generic")
# p90 of command time lands inside the grid-8 sweeps, p50 inside rate/compare.
_SWEEP_GRIDS = (6, 8, 8, 10)
_ORACLE_ROWS_PER_SWEEP = 4


def _slot_angles(rng: np.random.Generator, slot: str) -> tuple[float, float]:
    if slot == "equal":
        a = _generic_angle(rng)
        return a, a
    if slot == "snap_theta":
        return _snap_angle(rng), _generic_angle(rng)
    if slot == "snap_eta":
        return _generic_angle(rng), _snap_angle(rng)
    if slot == "snap_both":
        return _snap_angle(rng), _snap_angle(rng)
    return _generic_angle(rng), _generic_angle(rng)


def _check_rate(theta, eta, kets, with_oracle, oracles) -> Callable[[str], None]:
    def check(out: str) -> None:
        rec = json.loads(out)
        want = optimal_rate(theta, eta)
        _require(abs(rec["p_ms"] - want) <= EXACT_ATOL,
                 f"rate p_ms {rec['p_ms']!r} != min(2 sin^2) {want!r}")
        total = sum(o["clare_prob"] for o in rec["per_outcome"])
        _require(abs(total - 1.0) <= EXACT_ATOL, f"clare_prob sums to {total!r}")
        if with_oracle:
            ref = oracles.swap_success_loop(_snapped(theta), _snapped(eta), kets)
            _require(abs(rec["p_ms"] - ref) <= EXACT_ATOL,
                     f"rate p_ms {rec['p_ms']!r} != oracle {ref!r}")
    return check


def _check_compare(theta, eta, with_oracle, oracles) -> Callable[[str], None]:
    def check(out: str) -> None:
        rec = json.loads(out)
        want = optimal_rate(theta, eta)
        for branch in ("optimal", "bell"):
            got = rec[branch]["p_ms"]
            _require(abs(got - want) <= EXACT_ATOL,
                     f"compare {branch} p_ms {got!r} != min(2 sin^2) {want!r}")
        opt = rec["optimal"]["expected_local_measurements"]
        bell = rec["bell"]["expected_local_measurements"]
        _require(opt <= bell + EXACT_ATOL,
                 f"tuned basis needs more local work ({opt!r}) than Bell ({bell!r})")
        if with_oracle:
            ref = oracles.swap_success_loop(_snapped(theta), _snapped(eta), bell_kets())
            _require(abs(rec["bell"]["p_ms"] - ref) <= EXACT_ATOL,
                     f"Bell p_ms {rec['bell']['p_ms']!r} != oracle {ref!r}")
    return check


def _check_sweep(grid, oracle_rows, oracles) -> Callable[[str], None]:
    def check(out: str) -> None:
        rows = list(csv.DictReader(io.StringIO(out)))
        _require(len(rows) == grid * grid, f"sweep has {len(rows)} rows, want {grid * grid}")
        for i, row in enumerate(rows):
            theta, eta = float(row["theta"]), float(row["eta"])
            p_ms = float(row["p_ms"])
            direct = float(row["direct_success_prob"])
            lower, upper = float(row["lower_bound"]), float(row["upper_bound"])
            want = optimal_rate(theta, eta)
            _require(abs(p_ms - want) <= EXACT_ATOL,
                     f"sweep row {i}: p_ms {p_ms!r} != min(2 sin^2) {want!r}")
            _require(abs(direct - (lower + upper)) <= EXACT_ATOL,
                     f"sweep row {i}: direct {direct!r} != lower + upper {lower + upper!r}")
            _require(direct <= p_ms + EXACT_ATOL,
                     f"sweep row {i}: direct {direct!r} > p_ms {p_ms!r}")
            if i in oracle_rows:
                ref = oracles.swap_success_loop(_snapped(theta), _snapped(eta),
                                                tuned_kets(theta, eta))
                _require(abs(p_ms - ref) <= EXACT_ATOL,
                         f"sweep row {i}: p_ms {p_ms!r} != oracle {ref!r}")
    return check


def sweep_round(rng: np.random.Generator, workdir: Path, oracles) -> list[Op]:
    """Rate and compare at seeded angle pairs, and sweeps over fixed grids."""
    ops = []
    for slot in _RATE_SLOTS:
        theta, eta = _slot_angles(rng, slot)
        argv = ["rate", "--theta", _num(theta), "--eta", _num(eta)]
        b1 = b2 = 0.0
        if slot == "phases":
            b1, b2 = (float(x) for x in rng.uniform(0.0, 2 * math.pi, 2))
            argv += ["--beta1", _num(b1), "--beta2", _num(b2)]
        with_oracle = bool(rng.random() < 0.5)
        ops.append(Op(argv, 1, _check_rate(theta, eta, tuned_kets(theta, eta, b1, b2),
                                           with_oracle, oracles)))
    for slot in _COMPARE_SLOTS:
        theta, eta = _slot_angles(rng, slot)
        with_oracle = bool(rng.random() < 0.5)
        ops.append(Op(["compare", "--theta", _num(theta), "--eta", _num(eta)], 1,
                      _check_compare(theta, eta, with_oracle, oracles)))
    for grid in _SWEEP_GRIDS:
        rows = set(int(i) for i in rng.choice(grid * grid, _ORACLE_ROWS_PER_SWEEP,
                                              replace=False))
        ops.append(Op(["sweep", "--grid", str(grid)], grid * grid,
                      _check_sweep(grid, rows, oracles)))
    return ops


# ---------------------------------------------------------------- sample

# p50 of command time lands inside the 1e5 runs, p90 inside the 1e7 runs.
_SAMPLE_SIZES = (10**4, 10**5, 10**6, 10**7, 10**4, 10**5,
                 10**4, 10**6, 10**7, 10**4, 10**5, 10**4)


def _check_sample(theta, eta, n) -> Callable[[str], None]:
    def check(out: str) -> None:
        rec = json.loads(out)
        p = optimal_rate(theta, eta)
        sigma = math.sqrt(p * (1 - p) / n)
        _require(abs(rec["estimate"] - p) <= SIGMAS * sigma,
                 f"estimate {rec['estimate']!r} is more than {SIGMAS} sigma from {p!r}")
        stats = rec["ledger_stats"]
        q = 1 - direct_success(theta, eta)
        sigma_q = math.sqrt(q * (1 - q) / n)
        _require(abs(stats["bob_acted_freq"] - q) <= SIGMAS * sigma_q,
                 f"bob_acted_freq {stats['bob_acted_freq']!r} is more than "
                 f"{SIGMAS} sigma from {q!r}")
        _require(sum(stats["outcome_counts"]) == n,
                 f"outcome counts sum to {sum(stats['outcome_counts'])}, want {n}")
    return check


def sample_round(rng: np.random.Generator, workdir: Path, oracles) -> list[Op]:
    """Sampled protocol runs from 1e4 to 1e7 passes at seeded angle pairs."""
    ops = []
    for i, n in enumerate(_SAMPLE_SIZES):
        theta, eta = _split_angles(rng, theta_first=i % 2 == 0)
        seed = int(rng.integers(0, 2**31))
        argv = ["simulate", "--theta", _num(theta), "--eta", _num(eta),
                "--n", str(n), "--seed", str(seed)]
        ops.append(Op(argv, n, _check_sample(theta, eta, n)))
    return ops


# ---------------------------------------------------------------- audit

_HAAR_KET_FILES = 6
_HAAR_PROJECTOR_FILES = 6


def _matrix_text(m: np.ndarray) -> str:
    lines = [f"{m.shape[0]} {m.shape[1]}"]
    for row in m:
        lines.append(" ".join(f"{z.real:.17g} {z.imag:.17g}" for z in row))
    return "\n".join(lines) + "\n"


def _write_measurement(path: Path, kets, projectors: bool) -> None:
    if projectors:
        blocks = [np.outer(k, np.conj(k)) for k in kets]
    else:
        blocks = [np.asarray(k, dtype=complex).reshape(4, 1) for k in kets]
    path.write_text("".join(_matrix_text(b) for b in blocks), encoding="utf-8")


def _check_criterion(theta, eta, kets, must_be_optimal, oracles) -> Callable[[str], None]:
    def check(out: str) -> None:
        rec = json.loads(out)
        lhs, rhs, p_s = rec["lhs"], rec["rhs"], rec["p_s"]
        _require(lhs >= rhs - EXACT_ATOL, f"lhs {lhs!r} < rhs {rhs!r}")
        best = optimal_rate(theta, eta)
        _require(p_s <= best + EXACT_ATOL, f"p_s {p_s!r} exceeds min(2 sin^2) {best!r}")
        _require(abs(p_s - (1 - lhs)) <= ROUTE_ATOL,
                 f"p_s {p_s!r} != 1 - lhs {1 - lhs!r}")
        if must_be_optimal:
            _require(rec["optimal"] is True, "tuned basis not judged optimal")
        ref = oracles.swap_success_loop(theta, eta, kets)
        _require(abs(p_s - ref) <= EXACT_ATOL, f"p_s {p_s!r} != oracle {ref!r}")
    return check


def audit_round(rng: np.random.Generator, workdir: Path, oracles) -> list[Op]:
    """Criterion over Haar-random and tuned bases from files, plus built-ins.

    Odd slots put the larger angle first, so the orientation swap runs.
    """
    # (source, projector form)
    slots = ([("haar", False)] * _HAAR_KET_FILES + [("haar", True)] * _HAAR_PROJECTOR_FILES
             + [("tuned", False), ("tuned", True),
                ("bell", None), ("optimal", None), ("computational", None)])
    ops = []
    for i, (source, projectors) in enumerate(slots):
        theta, eta = _split_angles(rng, theta_first=i % 2 == 0)
        argv = ["criterion", "--theta", _num(theta), "--eta", _num(eta)]
        if source == "haar":
            kets = oracles.random_orthonormal_kets(rng)
        elif source == "tuned":
            b1, b2 = (float(x) for x in rng.uniform(0.0, 2 * math.pi, 2))
            kets = tuned_kets(theta, eta, b1, b2)
        elif source == "bell":
            kets = bell_kets()
        elif source == "optimal":
            kets = tuned_kets(theta, eta)
        else:
            kets = [np.eye(4)[t] for t in range(4)]
        if projectors is None:
            argv += ["--measurement", source]
        else:
            path = workdir / f"measurement_{i}.txt"
            _write_measurement(path, kets, projectors)
            argv += ["--measurement-file", str(path)]
        ops.append(Op(argv, 1, _check_criterion(theta, eta, kets,
                                                source in ("tuned", "optimal"), oracles)))
    return ops


# ---------------------------------------------------------------- bound

# (dim of --a, dim of --b, kind, orders).  Instances with orders 2 also run
# with the lists swapped.  Blocks of equal cost hold the percentiles of
# command time: p50 falls among the eight (6, 6) commands and p90 among the
# six d = 12 commands, so each is read from many samples.
_BOUND_INSTANCES = (
    (2, 2, "qubits", 2), (2, 2, "uniform", 2), (2, 3, "random", 2),
    (3, 3, "uniform", 2), (3, 5, "random", 2), (4, 4, "random", 2),
    (5, 5, "uniform", 2),
    (6, 6, "random", 2), (6, 6, "random", 2), (6, 6, "random", 2), (6, 6, "random", 2),
    (5, 8, "random", 2), (8, 8, "random", 2), (8, 8, "uniform", 2),
    (12, 12, "random", 2), (12, 12, "random", 2), (8, 12, "random", 2),
    (24, 24, "random", 1),
)


def _schmidt_list(rng: np.random.Generator, d: int, kind: str) -> np.ndarray:
    if kind == "uniform":
        return np.full(d, 1.0 / d)
    # A floor keeps every coefficient well above the library's support cutoff.
    v = 0.2 / d + 0.8 * rng.dirichlet(np.full(d, 2.0))
    return np.sort(v / v.sum())[::-1]


def _qubit_list(rng: np.random.Generator) -> np.ndarray:
    angle = _generic_angle(rng)
    return np.array([math.cos(angle) ** 2, math.sin(angle) ** 2])


def _projection_upper(a: np.ndarray, b: np.ndarray) -> float:
    """Closed-form upper projection bound for qubit pairs with coefficients a, b."""
    t = math.atan(math.sqrt(a[1] / a[0]))
    e = math.atan(math.sqrt(b[1] / b[0]))
    num = math.sin(2 * t) ** 2 * math.sin(2 * e) ** 2
    return num / (4 * (1 - math.cos(2 * t) * math.cos(2 * e)))


def _pairs_to_complex(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def _recompute(a: np.ndarray, b: np.ndarray, rec: dict) -> tuple[float, float, float]:
    """Outcome probability, fidelity and largest eigenvalue of M^dag M, from m_i.

    The middle station holds a mirror copy of the end-node pair, indexed
    (i, j) -> i * d + j, with the shorter list padded to the longer one.
    """
    short, long_ = (a, b) if len(a) <= len(b) else (b, a)
    d = len(long_)
    pad = np.zeros(d)
    pad[:len(short)] = short
    g = np.sqrt(np.outer(pad, long_).reshape(-1))
    m = _pairs_to_complex(rec["m_i"])
    u = _pairs_to_complex(rec["optimal_u"])
    gram = m.conj().T @ m
    top = float(np.linalg.eigvalsh(gram)[-1])
    # Unnormalized end-node operator: rho[s, t] = g_s g_t <t|M^dag M|s>.
    rho = g[:, None] * gram.T * g[None, :]
    prob = float(np.trace(rho).real)
    # (u x I) sum_k |k>|k> / sqrt(d) has amplitude u[i, j] at (i, j).
    omega = u.reshape(-1) / math.sqrt(d)
    fidelity = float(np.real(np.vdot(omega, rho @ omega))) / prob
    return prob, fidelity, top


def _check_bound(a, b, kind, swapped, memo) -> Callable[[str], None]:
    def check(out: str) -> None:
        rec = json.loads(out)
        p = rec["p_max"]
        key = (tuple(a), tuple(b)) if not swapped else (tuple(b), tuple(a))
        if swapped:
            _require(key in memo, "unswapped instance missing")
            first = memo.pop(key)
            _require(abs(p - first) <= EXACT_ATOL * max(1.0, first),
                     f"swapping the lists moved p_max from {first!r} to {p!r}")
        else:
            memo[key] = p
        if kind == "uniform":
            want = 1.0 / len(a) ** 2
            _require(abs(p - want) <= EXACT_ATOL, f"uniform p_max {p!r} != 1/d^2 {want!r}")
        if kind == "qubits":
            upper = _projection_upper(a, b)
            _require(abs(p - upper) <= EXACT_ATOL,
                     f"qubit p_max {p!r} != projection upper bound {upper!r}")
        prob, fidelity, top = _recompute(a, b, rec)
        _require(top <= 1.0 + ROUTE_ATOL, f"M^dag M has eigenvalue {top!r} above 1")
        if len(a) == len(b):
            _require(abs(prob - p) <= EXACT_ATOL, f"achieved {prob!r} != p_max {p!r}")
            _require(abs(fidelity - 1.0) <= ROUTE_ATOL, f"fidelity {fidelity!r} != 1")
        else:
            _require(prob <= p + EXACT_ATOL, f"achieved {prob!r} exceeds p_max {p!r}")
    return check


def bound_round(rng: np.random.Generator, workdir: Path, oracles) -> list[Op]:
    """General-dimension ceilings; all but the largest also with lists swapped."""
    ops = []
    memo: dict = {}
    for da, db, kind, orders in _BOUND_INSTANCES:
        if kind == "qubits":
            a, b = _qubit_list(rng), _qubit_list(rng)
        else:
            a, b = _schmidt_list(rng, da, kind), _schmidt_list(rng, db, kind)
        for swapped in (False, True)[:orders]:
            first, second = (b, a) if swapped else (a, b)
            argv = ["bound", "--a", ",".join(_num(x) for x in first),
                    "--b", ",".join(_num(x) for x in second)]
            ops.append(Op(argv, 1, _check_bound(first, second, kind, swapped, memo)))
    return ops


WORKLOADS = {
    "sweep": sweep_round,
    "sample": sample_round,
    "audit": audit_round,
    "bound": bound_round,
}
