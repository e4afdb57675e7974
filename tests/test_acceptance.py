"""Acceptance gate: the eight release criteria, one printed verdict line each.

Run under pytest or directly (python3 tests/test_acceptance.py).  Every
criterion prints exactly one [PASS]/[FAIL] line with its headline numbers,
then asserts, so a red run still reports all verdicts.
"""

import sys
import time

import numpy as np

from repeaterlab.bounds import (
    achieving_operator,
    p_max,
    steering_bound,
    trace_rearrangement_lb,
)
from repeaterlab.criterion import achieved_rate, criterion_lhs, is_optimal
from repeaterlab.repeater import (
    bell_kets,
    build_optimal_basis,
    compare_with_bell,
    computational_kets,
    projection_bounds,
    run_protocol_analytic,
    run_protocol_sampled,
)
from oracles import random_density, random_hermitian, random_orthonormal_kets

GRID_50 = np.linspace(np.pi / 4 / 50, np.pi / 4, 50)
MC_SEED = 2024


def _report(number: int, description: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description} ({detail})"
    print(line)
    if sys.stdout is not sys.__stdout__:
        # Stay visible when pytest captures stdout.
        print(line, file=sys.__stdout__)


def test_criterion_1_optimal_rate_reproduction():
    start = time.perf_counter()
    worst = 0.0
    for theta in GRID_50:
        for eta in GRID_50:
            got = run_protocol_analytic(theta, eta).p_ms
            want = min(2 * np.sin(theta) ** 2, 2 * np.sin(eta) ** 2)
            worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    _report(1, "analytic rate equals min(2sin^2) on 50x50 grid", ok,
            f"worst error {worst:.3e}, runtime {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 5.0


def test_criterion_2_projection_bounds_saturation():
    worst = 0.0
    for theta in GRID_50:
        for eta in GRID_50:
            lower, upper = projection_bounds(theta, eta)
            result = run_protocol_analytic(theta, eta)
            worst = max(worst,
                        abs(result.per_outcome[0].clare_prob - upper),
                        abs(result.per_outcome[1].clare_prob - lower))
    ok = worst <= 1e-12
    _report(2, "direct-success kets saturate both projection bounds", ok,
            f"worst error {worst:.3e}")
    assert worst <= 1e-12


def test_criterion_3_monte_carlo_agreement():
    start = time.perf_counter()
    n = 100_000
    sampled = run_protocol_sampled(np.pi / 6, np.pi / 4, n=n, seed=MC_SEED)
    exact = run_protocol_analytic(np.pi / 6, np.pi / 4)
    p_bob = 1.0 - exact.per_outcome[0].clare_prob - exact.per_outcome[1].clare_prob
    rate_sigma = np.sqrt(0.5 * 0.5 / n)
    bob_sigma = np.sqrt(p_bob * (1.0 - p_bob) / n)
    rate_dev = abs(sampled.estimate - 0.5)
    bob_dev = abs(sampled.ledger_stats["bob_acted_freq"] - p_bob)
    elapsed = time.perf_counter() - start
    ok = rate_dev <= 3 * rate_sigma and bob_dev <= 3 * bob_sigma and elapsed < 30.0
    _report(3, "sampled rate and Bob-acts frequency match Born values", ok,
            f"rate off {rate_dev / rate_sigma:.2f} sigma, "
            f"bob off {bob_dev / bob_sigma:.2f} sigma, runtime {elapsed:.2f}s")
    assert rate_dev <= 3 * rate_sigma
    assert bob_dev <= 3 * bob_sigma
    assert elapsed < 30.0


def test_criterion_4_criterion_iff():
    rng = np.random.default_rng(20240501)
    verdicts_ok = True
    worst_identity = 0.0
    for _ in range(10):
        theta, eta = rng.uniform(0.05, np.pi / 4, size=2)
        tuned = build_optimal_basis(theta, eta).kets
        verdicts_ok &= is_optimal(tuned, theta, eta).optimal
        verdicts_ok &= is_optimal(bell_kets(), theta, eta).optimal
        verdicts_ok &= not is_optimal(computational_kets(), theta, eta).optimal
        for _ in range(5):
            kets = random_orthonormal_kets(rng)
            gap = abs(achieved_rate(kets, theta, eta)
                      - (1.0 - criterion_lhs(kets, theta, eta)))
            worst_identity = max(worst_identity, gap)
    ok = verdicts_ok and worst_identity <= 1e-10
    _report(4, "optimality verdicts and p_s = 1 - lhs identity", ok,
            f"verdicts {'ok' if verdicts_ok else 'WRONG'}, "
            f"worst identity gap {worst_identity:.3e}")
    assert verdicts_ok
    assert worst_identity <= 1e-10


def test_criterion_5_general_dimension_ceiling():
    worst_grid = 0.0
    for theta in GRID_50:
        for eta in GRID_50:
            a = sorted([np.cos(theta) ** 2, np.sin(theta) ** 2], reverse=True)
            b = sorted([np.cos(eta) ** 2, np.sin(eta) ** 2], reverse=True)
            _, upper = projection_bounds(theta, eta)
            worst_grid = max(worst_grid, abs(p_max(a, b) - upper))

    rng = np.random.default_rng(20240502)
    instances = [([0.5, 0.5], [0.5, 0.5]), ([0.5, 0.3, 0.2], [0.6, 0.25, 0.15])]
    for _ in range(10):
        w = np.sort(rng.dirichlet([2.0, 2.0]))[::-1]
        v = np.sort(rng.dirichlet([2.0, 2.0]))[::-1]
        instances.append((list(w), list(v)))
    worst_reach = 0.0
    worst_fid = 1.0
    for a, b in instances:
        result = achieving_operator(a, b)
        worst_reach = max(worst_reach, abs(result.achieved_p - result.p_max))
        worst_fid = min(worst_fid, result.post_fidelity)
    ok = worst_grid <= 1e-12 and worst_reach <= 1e-10 and worst_fid >= 1.0 - 1e-10
    _report(5, "closed-form ceiling matches bounds and is attained", ok,
            f"grid error {worst_grid:.3e}, reach gap {worst_reach:.3e}, "
            f"min fidelity {worst_fid:.12f}")
    assert worst_grid <= 1e-12
    assert worst_reach <= 1e-10
    assert worst_fid >= 1.0 - 1e-10


def test_criterion_6_same_state_case():
    # Interior grid: at theta = pi/4 itself a fourth outcome turns maximal.
    worst = 0.0
    counts_ok = True
    for i in range(1, 21):
        theta = i * (np.pi / 4) / 21
        result = run_protocol_analytic(theta, theta)
        n_maximal = sum(r.maximal for r in result.per_outcome)
        counts_ok &= n_maximal == 3
        total = sum(r.clare_prob for r in result.per_outcome if r.maximal)
        s2 = np.sin(2 * theta) ** 2
        c2 = np.cos(2 * theta) ** 2
        worst = max(worst, abs(total - s2 * (3 + c2) / (4 * (1 + c2))))
    ok = counts_ok and worst <= 1e-12
    _report(6, "equal angles give exactly three direct outcomes", ok,
            f"counts {'ok' if counts_ok else 'WRONG'}, worst total error {worst:.3e}")
    assert counts_ok
    assert worst <= 1e-12


def test_criterion_7_inequality_fuzzing():
    rng = np.random.default_rng(20240503)
    worst_slack = 0.0
    worst_equality = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 9))
        a = random_hermitian(rng, d)
        b = random_hermitian(rng, d)
        floor = trace_rearrangement_lb(a, b)
        worst_slack = max(worst_slack, floor - float(np.trace(a @ b).real))
        _, va = np.linalg.eigh(a)
        opposed = va @ np.diag(np.linalg.eigvalsh(b)[::-1]) @ va.conj().T
        worst_equality = max(worst_equality,
                             abs(float(np.trace(a @ opposed).real) - floor))

    worst_weight = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 5))
        k = int(rng.integers(2, 5))
        weights = rng.dirichlet(np.ones(k))
        members = [random_density(rng, d) for _ in range(k)]
        rho = sum(w * m for w, m in zip(weights, members))
        for w, m in zip(weights, members):
            worst_weight = max(worst_weight, w - steering_bound(rho, m))
    ok = worst_slack <= 1e-10 and worst_equality <= 1e-10 and worst_weight <= 1e-10
    _report(7, "trace floor and steering bound survive fuzzing", ok,
            f"trace slack {worst_slack:.3e}, equality gap {worst_equality:.3e}, "
            f"weight excess {worst_weight:.3e}")
    assert worst_slack <= 1e-10
    assert worst_equality <= 1e-10
    assert worst_weight <= 1e-10


def test_criterion_8_locc_ledger():
    grid = np.linspace(np.pi / 4 / 20, np.pi / 4, 20)
    cost_ok = True
    strict_ok = True
    worst_rate_gap = 0.0
    for theta in grid:
        for eta in grid:
            record = compare_with_bell(theta, eta)
            opt = record.optimal.expected_local_measurements
            bell = record.bell.expected_local_measurements
            cost_ok &= opt <= bell + 1e-12
            if theta < np.pi / 4 and eta < np.pi / 4:
                strict_ok &= opt < bell
            worst_rate_gap = max(worst_rate_gap,
                                 abs(record.optimal.p_ms - record.bell.p_ms))
    ok = cost_ok and strict_ok and worst_rate_gap <= 1e-10
    _report(8, "tuned basis never costs more local work than Bell", ok,
            f"cost {'ok' if cost_ok else 'WRONG'}, "
            f"strict {'ok' if strict_ok else 'WRONG'}, "
            f"worst rate gap {worst_rate_gap:.3e}")
    assert cost_ok
    assert strict_ok
    assert worst_rate_gap <= 1e-10


if __name__ == "__main__":
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_criterion_") and callable(fn):
            try:
                fn()
            except AssertionError:
                failures += 1
    raise SystemExit(1 if failures else 0)
