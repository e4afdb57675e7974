"""Swap protocol: tuned basis, rates, sampling, cost comparison."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repeaterlab import qmath, repeater, states
from repeaterlab.concentration import p_e
from repeaterlab.criterion import achieved_rate, measurement_from_text
from repeaterlab.repeater import (
    AnalyticResult,
    bell_kets,
    bob_filter,
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
    eig2_min,
    joint_ket_loop,
    project_clare_loop,
    random_orthonormal_kets,
    reduced_alice_loop,
    successful_projection,
    swap_success_loop,
)

protocol_angles = st.floats(min_value=1e-2, max_value=np.pi / 4)
phases = st.floats(min_value=-np.pi, max_value=np.pi)


def family_grid(theta, eta, n_alpha=41, n_phase=9):
    """All sampled direct-success kets with their Born probabilities."""
    f = states.make_joint(theta, eta).f
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
            assert any(qmath.same_up_to_phase(ket, b, atol=1e-12) for b in bell_kets())

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
        assert qmath.same_up_to_phase(result.per_outcome[2].post_state, expected, atol=1e-12)

    @given(protocol_angles, protocol_angles, phases, phases)
    @settings(max_examples=40, deadline=None)
    def test_measurement_is_projective(self, theta, eta, beta1, beta2):
        phi = np.asarray(build_optimal_basis(theta, eta, beta1, beta2).kets)
        assert phi.shape == (4, 4)
        assert np.allclose(phi.conj() @ phi.T, np.eye(4), atol=1e-12)


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
        f = states.make_joint(theta, eta).f
        q3 = 2 * f[2] ** 4 / (f[1] ** 4 + f[2] ** 4)
        q4 = 2 * f[3] ** 4 / (f[0] ** 4 + f[3] ** 4)
        result = run_protocol_analytic(theta, eta)
        assert result.per_outcome[2].bob_success_prob == pytest.approx(q3, abs=1e-12)
        assert result.per_outcome[3].bob_success_prob == pytest.approx(q4, abs=1e-12)

    def test_filterable_conditional_rates_swapped_order(self):
        theta, eta = 0.6, 0.3
        f = states.make_joint(theta, eta).f
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
        (np.pi / 4, 0.1), (np.pi / 4, np.pi / 4)])
    def test_closed_forms_match_extended_precision(self, theta, eta):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            t, e = mpmath.mpf(theta), mpmath.mpf(eta)
            numerator = mpmath.sin(2 * t) ** 2 * mpmath.sin(2 * e) ** 2
            c = mpmath.cos(2 * t) * mpmath.cos(2 * e)
            want = (numerator / (4 * (1 + c)), numerator / (4 * (1 - c)),
                    numerator / (2 * (1 - c * c)))
        got = projection_bounds(theta, eta) + (direct_success_prob(theta, eta),)
        for value, exact in zip(got, map(float, want)):
            assert abs(value - exact) <= 2e-15 * exact

    def test_tiny_angles_give_zero(self):
        assert direct_success_prob(1e-160, 1e-160) == 0.0
        assert projection_bounds(1e-160, 1e-160) == (0.0, 0.0)

    @given(protocol_angles, protocol_angles)
    @settings(max_examples=40, deadline=None)
    def test_equals_sum_of_direct_outcomes(self, theta, eta):
        result = run_protocol_analytic(theta, eta)
        direct = result.per_outcome[0].clare_prob + result.per_outcome[1].clare_prob
        assert direct_success_prob(theta, eta) == pytest.approx(direct, abs=1e-12)

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
    def test_matches_concentration_rate(self):
        post = run_protocol_analytic(0.3, 0.6).per_outcome[2].post_state
        filt, born_p0 = bob_filter(post)
        assert born_p0 == pytest.approx(p_e(post), abs=1e-12)

    def test_success_branch_is_maximal(self):
        from repeaterlab.concentration import apply_measurement
        post = run_protocol_analytic(0.3, 0.6).per_outcome[3].post_state
        filt, _ = bob_filter(post)
        branches = apply_measurement(filt, post, wire=1, dims=(2, 2))
        assert states.is_max_entangled(branches[0][1], 2, 2)

    def test_rejects_product_state(self):
        with pytest.raises(ValueError):
            bob_filter(qmath.basis_ket(0, 4))


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
        assert np.array_equal(phi, np.asarray(bell_kets()))

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

    def test_rejects_non_finite_kets(self):
        kets = np.asarray(bell_kets())
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
        computational_kets() + (np.ones(4) / 2,),
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
        f = np.array([states._amplitudes(theta, eta) for theta, eta, _, _ in cases])
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
            # Angles whose squared sines underflow read 0/0 on both routes alike.
            assert np.array_equal(direct, direct_success_prob(t, e), equal_nan=True)
            assert (lower, upper) == projection_bounds(t, e)
            expected = swap_success_loop(t, e, build_optimal_basis(t, e).kets)
            assert abs(p_ms - expected) <= 1e-12

    def test_closed_forms_equal_scalar_functions_on_a_dense_batch(self):
        # Enough points that rounding differences between squaring routes
        # (about one result in a thousand) would show.
        theta, eta = np.random.default_rng(5).uniform(1e-3, np.pi / 4, size=(2, 2000))
        _, direct, lower, upper = repeater._rate_table(theta, eta)
        for i, (t, e) in enumerate(zip(theta, eta)):
            assert direct[i] == direct_success_prob(t, e)
            assert (lower[i], upper[i]) == projection_bounds(t, e)
