"""Swap protocol: checked angles, tuned basis, rates, sampling, cost comparison."""

import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repeaterlab import qmath, repeater
from repeaterlab.criterion import achieved_rate, measurement_from_text
from repeaterlab.repeater import (
    AnalyticResult,
    bell_kets,
    build_optimal_basis,
    compare_with_bell,
    computational_kets,
    direct_success_prob,
    projection_bounds,
    run_protocol_analytic,
    run_protocol_sampled,
    run_protocol_with_kets,
)
from oracles import (
    best_filter_grid,
    eig2_min,
    joint_ket_loop,
    project_clare_loop,
    random_orthonormal_kets,
    reduced_alice_loop,
    successful_projection,
    swap_success_loop,
)

protocol_angles = st.floats(min_value=1e-2, max_value=np.pi / 4)
# Log-uniform in [1e-150, pi/4], where 2 sin^2 of either angle is a normal float.
small_angles = st.floats(min_value=np.log(1e-150), max_value=np.log(np.pi / 4)).map(
    lambda x: min(float(np.exp(x)), np.pi / 4))
# Log-uniform down to 1e-160, where outcome probabilities turn subnormal.
tiny_angles = st.floats(min_value=np.log(1e-160), max_value=np.log(np.pi / 4)).map(
    lambda x: min(float(np.exp(x)), np.pi / 4))
EPS = np.finfo(float).eps
# The smallest subnormal, the rounding step of a square that underflows.
SUBNORMAL = 5e-324
# Log-uniform over every positive float up to pi/4, subnormals included.
any_angles = st.floats(min_value=np.log(SUBNORMAL), max_value=np.log(np.pi / 4)).map(
    lambda x: min(max(float(np.exp(x)), SUBNORMAL), np.pi / 4))
# Any finite phase, up to nearly the largest float.
phases = st.floats(min_value=-1.7e308, max_value=1.7e308)
angles_strict = st.floats(min_value=1e-3, max_value=np.pi / 4)


def family_grid(theta, eta, n_alpha=41, n_phase=9):
    """All sampled direct-success kets with their Born probabilities."""
    f = build_optimal_basis(theta, eta).f
    joint = joint_ket_loop(theta, eta)
    out = []
    for alpha in np.linspace(0.0, np.pi / 2, n_alpha):
        for beta in np.linspace(0.0, 2 * np.pi, n_phase):
            for beta2 in np.linspace(0.0, 2 * np.pi, n_phase):
                phi = successful_projection(f, alpha, beta, beta2)
                prob, post = project_clare_loop(joint, phi)
                out.append((phi, prob, post))
    return out


class TestProjectionBounds:
    def test_balanced_angles_pin_the_range(self):
        lower, upper = projection_bounds(np.pi / 4, np.pi / 4)
        assert lower == pytest.approx(0.25, abs=1e-15)
        assert upper == pytest.approx(0.25, abs=1e-15)

    def test_equal_tilted_angles(self):
        lower, upper = projection_bounds(np.pi / 6, np.pi / 6)
        assert lower == pytest.approx(9 / 80, abs=1e-15)
        assert upper == pytest.approx(3 / 16, abs=1e-15)

    def test_family_saturates_and_respects_bounds(self):
        theta, eta = 0.3, 0.5
        lower, upper = projection_bounds(theta, eta)
        probs = []
        for phi, prob, post in family_grid(theta, eta):
            probs.append(prob)
            # Every member must leave Alice and Bob maximally entangled.
            reduced = reduced_alice_loop(post)
            assert 2 * eig2_min(reduced) - 1 == pytest.approx(0.0, abs=1e-9)
        probs = np.array(probs)
        assert np.all(probs >= lower - 1e-12)
        assert np.all(probs <= upper + 1e-12)
        assert probs.min() == pytest.approx(lower, abs=1e-12)
        assert probs.max() == pytest.approx(upper, abs=1e-12)

    @given(protocol_angles, protocol_angles)
    @settings(max_examples=60, deadline=None)
    def test_ordering(self, theta, eta):
        lower, upper = projection_bounds(theta, eta)
        assert 0.0 < lower <= upper + 1e-15

    @pytest.mark.parametrize("theta,eta", [(0.0, 0.3), (0.3, 1.0), (-0.1, 0.3)])
    def test_angles_out_of_range(self, theta, eta):
        with pytest.raises(ValueError):
            projection_bounds(theta, eta)

    def test_computes_with_the_snapped_angle(self):
        # At pi/4 the two bounds coincide; 0.7854 snaps down onto it.
        lower, upper = projection_bounds(0.7854, 0.3)
        exact = projection_bounds(np.pi / 4, 0.3)
        assert abs(lower - exact[0]) <= 1e-15
        assert abs(upper - exact[1]) <= 1e-15
        assert direct_success_prob(0.7854, 0.3) == direct_success_prob(np.pi / 4, 0.3)

    def test_reports_echo_the_snapped_angle(self):
        assert build_optimal_basis(0.7854, 0.3).theta == np.pi / 4
        assert run_protocol_analytic(0.3, 0.7854).eta == np.pi / 4
        assert run_protocol_sampled(0.7854, 0.3, n=10, seed=1).theta == np.pi / 4
        assert compare_with_bell(0.7854, 0.7854).eta == np.pi / 4


class TestOptimalBasis:
    def test_balanced_angles_give_bell_basis(self):
        basis = build_optimal_basis(np.pi / 4, np.pi / 4)
        for ket in basis.kets:
            assert any(abs(abs(np.vdot(ket, b)) - 1.0) <= 1e-12 for b in bell_kets())

    def test_direct_success_ket_probability(self):
        basis = build_optimal_basis(np.pi / 6, np.pi / 4)
        result = run_protocol_with_kets(np.pi / 6, np.pi / 4, basis.kets)
        assert result.per_outcome[0].clare_prob == pytest.approx(3 / 16, abs=1e-12)
        assert result.per_outcome[1].clare_prob == pytest.approx(3 / 16, abs=1e-12)

    def test_first_ket_hits_upper_bound(self):
        theta, eta = 0.3, 0.6
        _, upper = projection_bounds(theta, eta)
        result = run_protocol_analytic(theta, eta)
        assert result.per_outcome[0].clare_prob == pytest.approx(upper, abs=1e-12)

    def test_second_ket_hits_lower_bound(self):
        theta, eta = 0.3, 0.6
        lower, _ = projection_bounds(theta, eta)
        result = run_protocol_analytic(theta, eta)
        assert result.per_outcome[1].clare_prob == pytest.approx(lower, abs=1e-12)

    def test_phases_enter_the_kets(self):
        beta1, beta2 = 0.7, -1.1
        basis = build_optimal_basis(0.3, 0.5, beta1, beta2)
        f = basis.f
        n12 = np.hypot(f[1], f[2])
        expected = np.array([0, f[2], np.exp(1j * beta1) * f[1], 0]) / n12
        assert np.allclose(basis.kets[0], expected, atol=1e-15)
        n03 = np.hypot(f[0], f[3])
        expected4 = np.array([f[0], 0, 0, -np.exp(1j * beta2) * f[3]]) / n03
        assert np.allclose(basis.kets[3], expected4, atol=1e-15)

    def test_filterable_post_state_form(self):
        theta, eta, beta1 = 0.3, 0.5, 0.7
        basis = build_optimal_basis(theta, eta, beta1=beta1)
        result = run_protocol_with_kets(theta, eta, basis.kets)
        f = basis.f
        expected = np.zeros(4, dtype=complex)
        expected[1] = f[1] ** 2
        expected[2] = -np.exp(-1j * beta1) * f[2] ** 2
        expected /= np.linalg.norm(expected)
        assert abs(abs(np.vdot(result.per_outcome[2].post_state, expected)) - 1.0) <= 1e-12

    @given(any_angles, any_angles, phases, phases)
    @example(SUBNORMAL, np.pi / 4, 1.7e308, -1.7e308)
    @example(SUBNORMAL, SUBNORMAL, -1.7e308, 1e-300)
    @settings(max_examples=300, deadline=None)
    def test_measurement_is_projective(self, theta, eta, beta1, beta2):
        # No command checks the basis it builds; this test vouches for it.
        phi = build_optimal_basis(theta, eta, beta1, beta2).kets
        assert phi.shape == (4, 4)
        assert np.linalg.norm(phi.conj() @ phi.T - np.eye(4), 2) <= qmath.STRICT_ATOL

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("name", ["beta1", "beta2"])
    @pytest.mark.parametrize("route", [build_optimal_basis, run_protocol_analytic],
                             ids=["build_optimal_basis", "run_protocol_analytic"])
    def test_rejects_a_non_finite_phase_without_a_warning(self, route, name, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                route(0.3, 0.6, **{name: bad})

    def test_every_basis_is_one_array(self):
        # A basis is a (4, 4) complex array, one ket per row, wherever it comes from.
        for kets in (bell_kets(), computational_kets(), build_optimal_basis(0.3, 0.6).kets):
            assert type(kets) is np.ndarray
            assert (kets.shape, kets.dtype) == ((4, 4), np.complex128)


class TestAnalyticRate:
    def test_balanced_angles_always_succeed(self):
        result = run_protocol_analytic(np.pi / 4, np.pi / 4)
        assert result.p_ms == pytest.approx(1.0, abs=1e-12)
        assert result.bob_action_prob == pytest.approx(0.0, abs=1e-12)
        assert all(r.maximal for r in result.per_outcome)

    def test_mixed_angles_per_outcome(self):
        result = run_protocol_analytic(np.pi / 6, np.pi / 4)
        assert result.p_ms == pytest.approx(0.5, abs=1e-12)
        probs = [r.clare_prob for r in result.per_outcome]
        assert probs == pytest.approx([3 / 16, 3 / 16, 5 / 16, 5 / 16], abs=1e-12)
        conds = [r.bob_success_prob for r in result.per_outcome]
        assert conds == pytest.approx([1.0, 1.0, 0.2, 0.2], abs=1e-12)
        assert [r.maximal for r in result.per_outcome] == [True, True, False, False]
        assert result.bob_action_prob == pytest.approx(0.625, abs=1e-12)

    def test_matches_index_loop_oracle(self):
        theta, eta = 0.3, 0.6
        basis = build_optimal_basis(theta, eta)
        expected = swap_success_loop(theta, eta, basis.kets)
        assert run_protocol_analytic(theta, eta).p_ms == pytest.approx(expected, abs=1e-12)

    def test_filterable_conditional_rates(self):
        # For eta >= theta the smaller amplitude of each leftover is known in
        # closed form; the engine's Schmidt route must agree.
        theta, eta = 0.3, 0.6
        f = build_optimal_basis(theta, eta).f
        q3 = 2 * f[2] ** 4 / (f[1] ** 4 + f[2] ** 4)
        q4 = 2 * f[3] ** 4 / (f[0] ** 4 + f[3] ** 4)
        result = run_protocol_analytic(theta, eta)
        assert result.per_outcome[2].bob_success_prob == pytest.approx(q3, abs=1e-12)
        assert result.per_outcome[3].bob_success_prob == pytest.approx(q4, abs=1e-12)

    def test_filterable_conditional_rates_swapped_order(self):
        theta, eta = 0.6, 0.3
        f = build_optimal_basis(theta, eta).f
        q3 = 2 * min(f[1], f[2]) ** 4 / (f[1] ** 4 + f[2] ** 4)
        result = run_protocol_analytic(theta, eta)
        assert result.per_outcome[2].bob_success_prob == pytest.approx(q3, abs=1e-12)

    def test_phase_invariance(self):
        base = run_protocol_analytic(0.3, 0.6)
        shifted = run_protocol_analytic(0.3, 0.6, beta1=0.9, beta2=-1.3)
        assert shifted.p_ms == pytest.approx(base.p_ms, abs=1e-12)
        for a, b in zip(base.per_outcome, shifted.per_outcome):
            assert b.clare_prob == pytest.approx(a.clare_prob, abs=1e-12)

    def test_closed_form_on_grid(self):
        for theta in np.linspace(0.05, np.pi / 4, 12):
            for eta in np.linspace(0.05, np.pi / 4, 12):
                expected = min(2 * np.sin(theta) ** 2, 2 * np.sin(eta) ** 2)
                got = run_protocol_analytic(theta, eta).p_ms
                assert abs(got - expected) <= 1e-12

    @given(small_angles, small_angles)
    @example(1e-8, 1e-8)
    @example(1e-4, 1e-4)
    @example(1e-150, 3e-150)
    @example(0.3, 0.3 * (1 + 1.3e-10))
    @example(1.0000000000000687e-150, 1.0000000000000118e-150)
    @settings(max_examples=200, deadline=None)
    def test_rate_is_exact_at_small_angles(self, theta, eta):
        # Every route, relative to the rate: an outcome of probability 1e-16
        # still fires, and tiny ket components keep their precision.
        want = min(2 * np.sin(theta) ** 2, 2 * np.sin(eta) ** 2)
        record = compare_with_bell(theta, eta)
        table = repeater._rate_table(np.array([theta]), np.array([eta]))[0]
        for p_ms in (run_protocol_analytic(theta, eta).p_ms, record.optimal.p_ms,
                     record.bell.p_ms, table[0]):
            assert abs(p_ms - want) <= 8 * EPS * want

    @pytest.mark.parametrize("theta", [1e-150, 1e-8, 0.05, 0.3, 0.6, 0.78])
    @pytest.mark.parametrize("offset", [s * 10.0 ** -k for k in (4, 7, 10, 13, 15)
                                        for s in (1, -1)])
    def test_rate_is_exact_near_equal_angles(self, theta, offset):
        # A filtered leftover within qmath.LOOSE_ATOL of maximal still counts
        # as maximal in the ledger, but Bob's weight is its own 2 c_min^2:
        # snapped to 1, the rate at (0.3, 0.3 (1 + 1.3e-10)) was 1.3e-10 high.
        eta = theta * (1 + offset)
        want = min(2 * np.sin(theta) ** 2, 2 * np.sin(eta) ** 2)
        assert abs(run_protocol_analytic(theta, eta).p_ms - want) <= 8 * EPS * want

    @given(tiny_angles, tiny_angles)
    @example(1e-160, 1e-160)
    @example(1e-160, np.pi / 4)
    @example(3e-162, 1e-150)
    @settings(max_examples=100, deadline=None)
    def test_post_states_are_normalized_at_tiny_angles(self, theta, eta):
        # A subnormal clare_prob has lost bits; the post state is the
        # leftover over its own rescaled norm, not over sqrt(clare_prob).
        for record in run_protocol_analytic(theta, eta).per_outcome:
            if record.clare_prob > 0.0:
                assert abs(np.linalg.norm(record.post_state) - 1.0) <= 4 * EPS
            else:
                assert not record.post_state.any()

    def test_order_of_angles_does_not_matter(self):
        a = run_protocol_analytic(0.6, 0.3)
        b = run_protocol_analytic(0.3, 0.6)
        assert a.p_ms == pytest.approx(b.p_ms, abs=1e-12)

    def test_ledger(self):
        result = run_protocol_analytic(np.pi / 6, np.pi / 4)
        ledger = result.ledger()
        assert ledger["classical_bits_sent"] == 2
        assert ledger["local_measurements_expected"] == pytest.approx(1.625, abs=1e-12)
        assert ledger["bob_action_prob"] == pytest.approx(0.625, abs=1e-12)

    def test_to_dict_is_json_ready(self):
        payload = run_protocol_analytic(0.3, 0.6).to_dict()
        text = json.dumps(payload)
        assert json.loads(text)["p_ms"] == pytest.approx(2 * np.sin(0.3) ** 2)


class TestDirectSuccess:
    def test_balanced_angles(self):
        assert direct_success_prob(np.pi / 4, np.pi / 4) == pytest.approx(0.5, abs=1e-15)

    def test_equal_tilted_angles(self):
        assert direct_success_prob(np.pi / 6, np.pi / 6) == pytest.approx(0.3, abs=1e-15)

    @pytest.mark.parametrize("theta, eta", [
        (1e-7, 2e-7), (1e-5, 2e-5), (2e-5, 1e-5), (1e-3, 0.7), (0.3, 0.6), (0.2, 0.2),
        (np.pi / 4, 0.1), (np.pi / 4, np.pi / 4),
        # Tiny angles, equal and mixed: the direct probability at (1e-160, 1e-160)
        # is the subnormal 1e-320, and below it the values underflow to 0.
        *[pair for a in (SUBNORMAL, 1e-300, 1e-200, 1e-160, 1e-90)
          for pair in ((a, a), (a, 0.5), (0.5, a))],
        # A subnormal lower bound, 2e-312: multiplying the two squares before
        # dividing by their sum puts it 9 rounding steps off.
        (1e-72, 1e-84),
        # cos theta cos eta rounds to 1.0 here: scaling that pair down by 2
        # dropped bits of its subnormal partner, 4.2 steps of the lower bound.
        (1.012587883590337e-77, 7.43530591898161e-78)])
    def test_closed_forms_match_extended_precision(self, theta, eta):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            t, e = mpmath.mpf(theta), mpmath.mpf(eta)
            numerator = mpmath.sin(2 * t) ** 2 * mpmath.sin(2 * e) ** 2
            # 1 - c with c = cos 2theta cos 2eta, from sines: subtracting c
            # from 1 cancels below angles of about 1e-30 even at 60 digits.
            one_plus_c = 1 + mpmath.cos(2 * t) * mpmath.cos(2 * e)
            one_minus_c = 2 * (mpmath.sin(t) ** 2 + mpmath.sin(e) ** 2 * mpmath.cos(2 * t))
            want = (numerator / (4 * one_plus_c), numerator / (4 * one_minus_c),
                    numerator / (2 * one_minus_c * one_plus_c))
        got = projection_bounds(theta, eta) + (direct_success_prob(theta, eta),)
        for value, exact in zip(got, map(float, want)):
            # A few ulps, and a subnormal result at most one rounding step more.
            assert abs(value - exact) <= 4 * EPS * exact + SUBNORMAL

    @given(protocol_angles, protocol_angles)
    @settings(max_examples=40, deadline=None)
    def test_equals_sum_of_direct_outcomes(self, theta, eta):
        result = run_protocol_analytic(theta, eta)
        direct = result.per_outcome[0].clare_prob + result.per_outcome[1].clare_prob
        assert direct_success_prob(theta, eta) == pytest.approx(direct, abs=1e-12)

    @given(any_angles, any_angles)
    @settings(max_examples=100, deadline=None)
    def test_bounds_are_the_direct_outcome_probabilities(self, theta, eta):
        upper_outcome, lower_outcome = run_protocol_analytic(theta, eta).per_outcome[:2]
        lower, upper = projection_bounds(theta, eta)
        for bound, outcome in ((lower, lower_outcome), (upper, upper_outcome)):
            assert abs(bound - outcome.clare_prob) <= 8 * EPS * bound + 8 * SUBNORMAL

    def test_equal_angles_grow_a_third_direct_outcome(self):
        for theta in np.linspace(0.05, np.pi / 4 - 0.01, 20):
            result = run_protocol_analytic(theta, theta)
            n_maximal = sum(r.maximal for r in result.per_outcome)
            assert n_maximal == 3
            total = sum(r.clare_prob for r in result.per_outcome if r.maximal)
            s2, c2 = np.sin(2 * theta) ** 2, np.cos(2 * theta) ** 2
            expected = s2 * (3 + c2) / (4 * (1 + c2))
            assert total == pytest.approx(expected, abs=1e-12)

    def test_unequal_angles_have_exactly_two_direct_outcomes(self):
        result = run_protocol_analytic(0.3, 0.6)
        assert sum(r.maximal for r in result.per_outcome) == 2

    def test_no_third_orthogonal_direct_ket_generic(self):
        # Every direct-success ket keeps sizable overlap with the two the
        # basis already uses, so no third orthogonal one can be added.
        theta, eta = 0.3, 0.5
        basis = build_optimal_basis(theta, eta)
        phi1, phi2 = basis.kets[0], basis.kets[1]
        residuals = [
            abs(np.vdot(phi1, phi)) ** 2 + abs(np.vdot(phi2, phi)) ** 2
            for phi, _, _ in family_grid(theta, eta)
        ]
        assert min(residuals) > 0.1

    def test_third_direct_ket_appears_at_equal_angles(self):
        theta = 0.4
        basis = build_optimal_basis(theta, theta)
        phi1, phi2 = basis.kets[0], basis.kets[1]
        residuals = [
            abs(np.vdot(phi1, phi)) ** 2 + abs(np.vdot(phi2, phi)) ** 2
            for phi, _, _ in family_grid(theta, theta)
        ]
        assert min(residuals) < 1e-9


class TestBobFilter:
    """Bob's filter weight from the kernel, against an explicit filter on the leftover."""

    def test_matches_concentration_rate(self):
        # Bob's weight is the concentration rate 2 c1^2 of the leftover pair,
        # read from its LAPACK Schmidt coefficients.
        filtered = [r for r in run_protocol_analytic(0.3, 0.6).per_outcome if not r.maximal]
        assert len(filtered) == 2
        for record in filtered:
            _, c1 = np.linalg.svd(record.post_state.reshape(2, 2), compute_uv=False)
            assert record.bob_success_prob == pytest.approx(2 * c1**2, abs=1e-12)

    def test_matches_exhaustive_filter_search(self):
        # Best diagonal filter over a dense grid, on the leftover's LAPACK
        # Schmidt coefficients, must attain and never exceed Bob's weight.
        filtered = [r for r in run_protocol_analytic(0.3, 0.6).per_outcome if not r.maximal]
        assert len(filtered) == 2
        for record in filtered:
            c0, c1 = np.linalg.svd(record.post_state.reshape(2, 2), compute_uv=False)
            best = best_filter_grid(c0, c1, 4000)
            assert best <= record.bob_success_prob + 1e-12
            assert best == pytest.approx(record.bob_success_prob, abs=1e-6)

    def test_success_branch_is_maximal(self):
        # Damp Bob's larger Schmidt component down to the smaller one.
        record = run_protocol_analytic(0.3, 0.6).per_outcome[3]
        _, coeffs, (v0, v1) = np.linalg.svd(record.post_state.reshape(2, 2))
        ratio = coeffs[1] / coeffs[0]
        m0 = ratio * np.outer(v0, v0.conj()) + np.outer(v1, v1.conj())
        branch = np.kron(np.eye(2), m0) @ record.post_state
        prob = float(np.vdot(branch, branch).real)
        assert prob == pytest.approx(record.bob_success_prob, abs=1e-12)
        coeffs = np.linalg.svd((branch / np.sqrt(prob)).reshape(2, 2), compute_uv=False)
        assert np.all(np.abs(coeffs - np.sqrt(0.5)) <= 1e-10)

    def test_rejects_product_state(self):
        # A separable basis leaves product states, which no filter can help.
        result = run_protocol_with_kets(0.3, 0.6, computational_kets())
        assert all(r.bob_success_prob == 0.0 and not r.maximal for r in result.per_outcome)
        assert result.p_ms == 0.0


class TestSampled:
    def test_mixed_angles_estimate(self):
        result = run_protocol_sampled(np.pi / 6, np.pi / 4, n=100_000, seed=11)
        sigma = np.sqrt(0.5 * 0.5 / result.n)
        assert abs(result.estimate - 0.5) <= 3 * sigma
        assert result.stderr == pytest.approx(sigma, rel=0.05)

    def test_bob_frequency_tracks_exact_action_probability(self):
        result = run_protocol_sampled(np.pi / 6, np.pi / 4, n=100_000, seed=11)
        p = 0.625
        sigma = np.sqrt(p * (1 - p) / result.n)
        assert abs(result.ledger_stats["bob_acted_freq"] - p) <= 3 * sigma
        assert result.ledger_stats["local_measurements_mean"] == pytest.approx(
            1.0 + result.ledger_stats["bob_acted_freq"])
        assert result.ledger_stats["classical_bits_mean"] == 2.0

    def test_balanced_angles_succeed_without_bob(self):
        result = run_protocol_sampled(np.pi / 4, np.pi / 4, n=10_000, seed=7)
        assert result.estimate == 1.0
        assert result.ledger_stats["bob_acted_freq"] == 0.0
        counts = result.ledger_stats["outcome_counts"]
        assert sum(counts) == result.n
        # The two leftover-style outcomes still fire half the time; they just
        # arrive already maximal at these angles.
        freq = (counts[2] + counts[3]) / result.n
        sigma = np.sqrt(0.5 * 0.5 / result.n)
        assert abs(freq - 0.5) <= 3 * sigma

    def test_seed_determinism(self):
        a = run_protocol_sampled(0.3, 0.6, n=2_000, seed=123)
        b = run_protocol_sampled(0.3, 0.6, n=2_000, seed=123)
        assert a.estimate == b.estimate
        assert a.ledger_stats == b.ledger_stats

    def test_rejects_empty_sample(self):
        with pytest.raises(ValueError):
            run_protocol_sampled(0.3, 0.6, n=0)

    @pytest.mark.parametrize("n", [1.9, 2.5, np.float64(3.5), np.nan, np.inf, "5", None])
    def test_rejects_a_fractional_sample_count(self, n):
        with pytest.raises(ValueError, match="whole number"):
            run_protocol_sampled(0.3, 0.6, n, seed=1)

    @pytest.mark.parametrize("n", [repeater.MAX_SAMPLES + 1, 2 ** 64, 1e19, 10 ** 30])
    def test_rejects_a_sample_count_above_the_cap(self, n):
        with pytest.raises(ValueError, match=f"n must be at most {repeater.MAX_SAMPLES}"):
            run_protocol_sampled(0.3, 0.5, n, seed=1)

    def test_takes_a_sample_count_at_the_cap(self):
        result = run_protocol_sampled(0.3, 0.5, repeater.MAX_SAMPLES, seed=1)
        assert result.n == sum(result.ledger_stats["outcome_counts"]) == repeater.MAX_SAMPLES

    @pytest.mark.parametrize("seed", [1.5, 1.0, np.float64(2.0), "1", [1, 2], np.array([1])])
    def test_rejects_a_seed_that_is_not_an_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            run_protocol_sampled(0.3, 0.5, 10, seed=seed)

    @pytest.mark.parametrize("seed", [-1, np.int64(-3), -(2 ** 70)])
    def test_rejects_a_negative_seed(self, seed):
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            run_protocol_sampled(0.3, 0.5, 10, seed=seed)

    @pytest.mark.parametrize("seed", [np.int64(5), np.uint8(5), True])
    def test_an_integer_seed_is_reported_as_an_int(self, seed):
        result = run_protocol_sampled(0.3, 0.5, 10, seed=seed)
        assert type(result.seed) is int
        assert result.to_dict() == run_protocol_sampled(0.3, 0.5, 10, seed=int(seed)).to_dict()

    @pytest.mark.parametrize("n", [7, 7.0, np.int64(7), np.float64(7.0)])
    def test_reported_n_is_the_count_total_and_the_denominator(self, n):
        result = run_protocol_sampled(0.3, 0.6, n, seed=1)
        assert type(result.n) is int
        assert result.n == sum(result.ledger_stats["outcome_counts"]) == 7
        assert result.estimate == round(result.estimate * 7) / 7
        assert result.to_dict() == run_protocol_sampled(0.3, 0.6, 7, seed=1).to_dict()

    def test_memory_does_not_grow_with_n(self):
        # A first call pays one-off lazy imports; measure a warm sampler.
        run_protocol_sampled(0.3, 0.6, n=10, seed=1)
        tracemalloc.start()
        try:
            run_protocol_sampled(0.3, 0.6, n=10 ** 7, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_unseeded_run_reports_the_seed_it_drew(self):
        first = run_protocol_sampled(0.3, 0.6, n=1000)
        assert type(first.seed) is int
        assert first.seed != run_protocol_sampled(0.3, 0.6, n=1000).seed
        again = run_protocol_sampled(0.3, 0.6, n=1000, seed=first.seed)
        assert again.to_dict() == first.to_dict()

    def test_to_dict_is_json_ready(self):
        payload = run_protocol_sampled(0.3, 0.6, n=500, seed=1).to_dict()
        round_tripped = json.loads(json.dumps(payload))
        assert round_tripped["n"] == 500
        assert round_tripped["seed"] == 1


class TestCompareWithBell:
    def test_generic_angles(self):
        record = compare_with_bell(0.3, 0.7)
        assert record.rates_equal
        assert record.optimal.p_ms == pytest.approx(record.bell.p_ms, abs=1e-12)
        assert record.bell.bob_action_prob == pytest.approx(1.0, abs=1e-12)
        assert record.optimal.bob_action_prob < 1.0
        assert record.optimal.expected_local_measurements < record.bell.expected_local_measurements

    def test_balanced_angles_tie(self):
        record = compare_with_bell(np.pi / 4, np.pi / 4)
        assert record.optimal.p_ms == pytest.approx(1.0, abs=1e-12)
        assert record.bell.p_ms == pytest.approx(1.0, abs=1e-12)
        assert record.optimal.bob_action_prob == pytest.approx(0.0, abs=1e-12)
        assert record.bell.bob_action_prob == pytest.approx(0.0, abs=1e-12)

    def test_classical_cost_is_fixed(self):
        record = compare_with_bell(0.2, 0.5)
        assert record.optimal.classical_bits_sent == 2
        assert record.bell.classical_bits_sent == 2

    def test_to_dict_is_json_ready(self):
        payload = compare_with_bell(0.3, 0.6).to_dict()
        round_tripped = json.loads(json.dumps(payload))
        assert round_tripped["rates_equal"] is True


def projector_text(blocks) -> str:
    return "".join(qmath.format_matrix_text(np.asarray(b, dtype=complex)) for b in blocks)


BELL_PROJECTORS = [np.outer(k, k.conj()) for k in bell_kets()]


class TestProjectiveMeasurement:
    """A measurement is four orthonormal kets, the rows of one checked (4, 4) array.

    Kets are checked by one Gram product; projector blocks are checked and
    converted to kets where a measurement file is read.
    """

    def test_from_bell_kets(self):
        phi = repeater._orthonormal_kets(bell_kets())
        assert phi.shape == (4, 4)
        assert np.array_equal(phi, bell_kets())

    def test_computational_kets_are_complete(self):
        assert np.array_equal(repeater._orthonormal_kets(computational_kets()), np.eye(4))

    def test_rejects_incomplete_set(self):
        with pytest.raises(ValueError):
            repeater._orthonormal_kets(bell_kets()[:3])
        # A zero block is a projector of rank 0: the set fails as incomplete.
        with pytest.raises(ValueError, match="sum to the identity") as info:
            measurement_from_text(projector_text(BELL_PROJECTORS[:3] + [np.zeros((4, 4))]))
        assert type(info.value) is ValueError

    def test_rejects_non_idempotent(self):
        with pytest.raises(ValueError, match="not orthonormal"):
            repeater._orthonormal_kets([2.0 * k for k in bell_kets()])
        # Trace 2 as well, but the idempotence check comes first.
        with pytest.raises(ValueError, match="projector 0 is not idempotent") as info:
            measurement_from_text(projector_text([0.5 * np.eye(4)] * 4))
        assert type(info.value) is ValueError

    def test_rejects_non_orthogonal(self):
        kets = bell_kets()
        with pytest.raises(ValueError, match="not orthonormal"):
            repeater._orthonormal_kets([kets[0], kets[0], kets[2], kets[3]])
        p = BELL_PROJECTORS
        with pytest.raises(ValueError, match="not orthogonal"):
            measurement_from_text(projector_text([p[0], p[0], p[2], p[3]]))

    def test_rejects_non_hermitian(self):
        t = BELL_PROJECTORS[0] + np.triu(np.full((4, 4), 1e-3), 1)
        with pytest.raises(ValueError, match="projector 0 is not Hermitian"):
            measurement_from_text(projector_text([t] + BELL_PROJECTORS[1:]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            repeater._orthonormal_kets([np.ones(4), np.ones(3), np.ones(4), np.ones(4)])
        with pytest.raises(ValueError, match="dim-4 kets"):
            repeater._orthonormal_kets(np.eye(3))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            repeater._orthonormal_kets([])
        with pytest.raises(ValueError):
            measurement_from_text("")

    def test_every_check_of_four_kets_is_loose(self):
        # A ket file at Gram defect ~9e-11, between the strict and the loose
        # bound: read, judged and run alike.
        kets = bell_kets()
        kets[0] *= 1.0 + 4.5e-11
        text = "".join(qmath.format_matrix_text(k) for k in kets)
        phi = measurement_from_text(text)
        defect = np.linalg.norm(phi.conj() @ phi.T - np.eye(4), 2)
        assert qmath.STRICT_ATOL < 8e-11 < defect <= qmath.LOOSE_ATOL
        result = run_protocol_with_kets(0.3, 0.6, phi)
        assert result.p_ms == achieved_rate(phi, 0.3, 0.6)

    def test_rejects_non_finite_kets(self):
        kets = bell_kets()
        kets[1, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            repeater._orthonormal_kets(kets)
        with pytest.raises(ValueError, match="non-finite"):
            run_protocol_with_kets(0.3, 0.6, kets)


class TestArbitraryBases:
    def test_bell_basis_rate_equals_optimal(self):
        optimal = run_protocol_analytic(0.3, 0.6)
        bell = run_protocol_with_kets(0.3, 0.6, bell_kets())
        assert bell.p_ms == pytest.approx(optimal.p_ms, abs=1e-12)
        assert all(not r.maximal for r in bell.per_outcome)

    def test_computational_basis_never_succeeds(self):
        result = run_protocol_with_kets(0.3, 0.6, computational_kets())
        assert result.p_ms == pytest.approx(0.0, abs=1e-12)


def kets_of(kind, theta, eta, seed):
    if kind == "random":
        return random_orthonormal_kets(np.random.default_rng(seed))
    if kind == "tuned":
        phase = np.random.default_rng(seed).uniform(-np.pi, np.pi, size=2)
        return build_optimal_basis(theta, eta, *phase).kets
    if kind == "bell":
        return bell_kets()
    return computational_kets()


class TestOutcomeKernel:
    """The per-outcome rate route against the index-loop oracles."""

    @given(st.floats(min_value=0.0, max_value=np.pi / 4, exclude_min=True),
           st.floats(min_value=0.0, max_value=np.pi / 4, exclude_min=True),
           st.sampled_from(["random", "tuned", "bell", "computational"]),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_loop_oracles(self, theta, eta, kind, seed):
        kets = kets_of(kind, theta, eta, seed)
        result = run_protocol_with_kets(theta, eta, kets)
        joint = joint_ket_loop(theta, eta)
        for record, ket in zip(result.per_outcome, kets):
            prob, post = project_clare_loop(joint, ket)
            weight = 2.0 * max(eig2_min(reduced_alice_loop(post)), 0.0)
            assert abs(record.clare_prob - prob) <= 1e-12
            assert abs(record.success_prob - prob * weight) <= 1e-12
        expected = swap_success_loop(theta, eta, kets)
        assert abs(result.p_ms - expected) <= 1e-12
        assert abs(achieved_rate(kets, theta, eta) - expected) <= 1e-12

    def test_rejects_kets_of_the_wrong_size(self):
        with pytest.raises(ValueError):
            run_protocol_with_kets(0.3, 0.6, [np.ones(3)] * 4)

    @pytest.mark.parametrize("kets", [
        [np.ones(4)] * 4,
        bell_kets()[:3],
        (*computational_kets(), np.ones(4) / 2),
        (bell_kets()[0],) * 4,
    ], ids=["all-ones", "three-kets", "five-kets", "repeated-ket"])
    def test_rejects_sets_that_are_not_an_orthonormal_basis(self, kets):
        with pytest.raises(ValueError):
            run_protocol_with_kets(0.3, 0.6, kets)


kinds = st.sampled_from(["random", "tuned", "bell", "computational"])
open_angles = st.floats(min_value=0.0, max_value=np.pi / 4, exclude_min=True)


class TestBatchedKernel:
    """A stack of angle pairs and bases through one kernel call."""

    @given(st.lists(st.tuples(open_angles, open_angles, kinds, st.integers(0, 2 ** 32 - 1)),
                    min_size=1, max_size=6),
           st.integers(1, 4))
    @settings(max_examples=100, deadline=None)
    def test_stack_equals_separate_calls(self, cases, n_kets):
        f = np.array([repeater._amplitudes(theta, eta) for theta, eta, _, _ in cases])
        kets = np.array([np.asarray(kets_of(kind, theta, eta, seed), dtype=complex)[:n_kets]
                         for theta, eta, kind, seed in cases])
        stacked = repeater._outcomes(f, kets)
        for i in range(len(cases)):
            single = repeater._outcomes(f[i], kets[i])
            for name, field in single._asdict().items():
                assert np.array_equal(getattr(stacked, name)[i], field), name

    @given(st.lists(st.tuples(open_angles, open_angles), min_size=1, max_size=8))
    @example([(0.3, 0.6), (np.pi / 4, np.pi / 4), (1e-160, 1e-160)])
    @settings(max_examples=100, deadline=None)
    def test_rate_table_equals_scalar_functions(self, pairs):
        theta, eta = np.array(pairs).T
        columns = repeater._rate_table(theta, eta)
        for t, e, p_ms, direct, lower, upper in zip(theta, eta, *columns):
            assert p_ms == run_protocol_analytic(t, e).p_ms
            assert direct == direct_success_prob(t, e)
            assert (lower, upper) == projection_bounds(t, e)
            expected = swap_success_loop(t, e, build_optimal_basis(t, e).kets)
            assert abs(p_ms - expected) <= 1e-12

    def test_closed_forms_equal_scalar_functions_on_a_dense_batch(self):
        # Enough points that a rounding difference between the scalar and
        # the batch routes, were there one, would show.
        theta, eta = np.random.default_rng(5).uniform(1e-3, np.pi / 4, size=(2, 2000))
        _, direct, lower, upper = repeater._rate_table(theta, eta)
        for i, (t, e) in enumerate(zip(theta, eta)):
            assert direct[i] == direct_success_prob(t, e)
            assert (lower[i], upper[i]) == projection_bounds(t, e)

    def test_grid_table_memory_per_point(self):
        # Consumed a slice at a time, the table's peak is one slice's
        # temporaries and columns.  One kernel call over the whole grid
        # peaked at 896 B per point.
        grid = 200
        for _ in repeater._grid_table(1):
            pass
        tracemalloc.start()
        try:
            for _ in repeater._grid_table(grid):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / grid ** 2 < 400

    def test_grid_table_covers_the_grid_row_major(self, monkeypatch):
        monkeypatch.setattr(repeater, "_TABLE_SLICE", 7)
        slices = list(repeater._grid_table(9))
        assert [len(i) for i, *_ in slices] == [7] * 11 + [4]
        i, k, *columns = map(np.concatenate, zip(*slices))
        assert i.tolist() == [t for t in range(9) for _ in range(9)]
        assert k.tolist() == list(range(9)) * 9
        angles = repeater._grid_angles(9)
        whole = repeater._rate_table(np.repeat(angles, 9), np.tile(angles, 9))
        assert len(columns) == len(whole) == 4
        for column, expected in zip(columns, whole):
            assert column.tobytes() == expected.tobytes()


class TestClosedFormKernel:
    """The kernel's closed-form 2x2 singular values against np.linalg.svd."""

    @given(open_angles, open_angles, kinds, st.integers(0, 2 ** 32 - 1), st.integers(0, 1000))
    @example(0.4, 0.4, "tuned", 0, 0)
    @example(0.4, 0.4, "tuned", 0, 1000)
    @example(np.pi / 4, np.pi / 4, "tuned", 0, 0)
    @example(np.pi / 4, np.pi / 4, "tuned", 0, 600)
    @settings(max_examples=300, deadline=None)
    def test_singular_values_match_lapack(self, theta, eta, kind, seed, shift):
        """s_min within 4 eps s_max of LAPACK's, on leftovers scaled by 2^-shift.

        Seen through the fields that carry it: the success weight, Clare's
        probability times Bob's weight min(1, 2 c_min^2) of the normalized
        values c, which is 2 s_min^2; Bob's weight itself; and the maximal
        flags.
        """
        f = np.ldexp(repeater._amplitudes(theta, eta), -shift)
        kets = np.asarray(kets_of(kind, theta, eta, seed), dtype=complex)
        out = repeater._outcomes(f, kets)
        leftover = f * kets.conj()
        s = np.linalg.svd(leftover.reshape(-1, 2, 2), compute_uv=False)
        s_max, s_min = s[:, 0], s[:, 1]
        # |2 s^2 - 2 t^2| = 2 |s - t| (s + t) <= 16 eps s_max^2, plus two
        # roundings of a product that underflows.
        assert np.all(np.abs(repeater._success(out) - 2 * s_min ** 2)
                      <= 16 * EPS * s_max ** 2 + 2 * SUBNORMAL)
        live = out.clare_prob > 0.0
        norm = np.hypot(s_max, s_min)
        c = s / np.where(norm > 0.0, norm, 1.0)[:, None]
        balanced = np.all(np.abs(c - np.sqrt(0.5)) <= qmath.LOOSE_ATOL, axis=-1)
        assert np.array_equal(out.maximal, live & balanced)
        bob = np.minimum(1.0, 2 * c[:, 1] ** 2)
        assert np.all(np.abs(out.bob_success_prob - np.where(live, bob, 0.0)) <= 32 * EPS)
        if kind == "tuned" and shift == 0 and theta == eta >= 0.1:
            # Equal angles add a third maximal outcome, and pi/4 (or an
            # angle within about 1e-10 of it) a fourth.
            assert out.maximal.sum() >= 3
            assert out.maximal.all() or theta != np.pi / 4


class TestCheckedAmplitudes:
    def test_balanced_amplitudes(self):
        _, _, f = repeater._checked_amplitudes(np.pi / 4, np.pi / 4)
        assert np.allclose(f, [0.5, 0.5, 0.5, 0.5], atol=1e-15)

    def test_mixed_angle_amplitudes(self):
        _, _, f = repeater._checked_amplitudes(np.pi / 6, np.pi / 4)
        expected = [np.sqrt(6) / 4, np.sqrt(6) / 4, np.sqrt(2) / 4, np.sqrt(2) / 4]
        assert np.allclose(f, expected, atol=1e-15)

    def test_boundary_input_snaps(self):
        # 0.7854 is the four-decimal rounding of pi/4 and must be accepted.
        theta, eta, snapped = repeater._checked_amplitudes(0.7854, 0.7854)
        assert theta == np.pi / 4
        assert eta == np.pi / 4
        assert np.array_equal(snapped, repeater._checked_amplitudes(np.pi / 4, np.pi / 4)[2])

    def test_strict_range(self):
        with pytest.raises(ValueError):
            repeater._checked_amplitudes(1.2, 0.3)
        with pytest.raises(ValueError):
            repeater._checked_amplitudes(0.3, 0.0)

    @given(angles_strict, angles_strict)
    @settings(max_examples=60, deadline=None)
    def test_amplitudes_normalized(self, theta, eta):
        _, _, f = repeater._checked_amplitudes(theta, eta)
        assert np.sum(f ** 2) == pytest.approx(1.0, abs=1e-12)
