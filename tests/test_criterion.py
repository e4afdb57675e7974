"""Closed-form optimality test versus the simulated concentration rate."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repeaterlab import criterion, qmath
from repeaterlab.criterion import (
    CriterionReport,
    RankOneRequiredError,
    achieved_rate,
    criterion_lhs,
    is_optimal,
    measurement_from_text,
    t_operators,
)
from repeaterlab.repeater import (
    ProjectiveMeasurement,
    bell_kets,
    build_optimal_basis,
    computational_kets,
)
from oracles import random_orthonormal_kets

RNG = np.random.default_rng(20240814)

ordered_angles = st.tuples(
    st.floats(min_value=1e-2, max_value=np.pi / 4),
    st.floats(min_value=1e-2, max_value=np.pi / 4),
).map(lambda pair: (min(pair), max(pair)))


def optimal_measurement(theta, eta, beta1=0.0, beta2=0.0):
    return build_optimal_basis(theta, eta, beta1, beta2).measurement()


class TestTOperators:
    def test_values(self):
        t1, t2 = t_operators(np.pi / 6, np.pi / 4)
        assert np.allclose(t1, np.diag([0.75, -0.25]), atol=1e-15)
        assert np.allclose(t2, np.diag([0.5, 0.5]), atol=1e-15)

    @given(ordered_angles)
    @settings(max_examples=60, deadline=None)
    def test_traces(self, pair):
        theta, eta = pair
        t1, t2 = t_operators(theta, eta)
        assert np.trace(t1).real == pytest.approx(np.cos(2 * theta), abs=1e-12)
        assert np.trace(t2).real == pytest.approx(1.0, abs=1e-12)

    def test_rejects_misordered_angles(self):
        with pytest.raises(ValueError):
            t_operators(0.6, 0.3)

    def test_order_check_can_be_disabled(self):
        t1, _ = t_operators(0.6, 0.3, strict=False)
        assert t1[0, 0].real == pytest.approx(np.cos(0.6) ** 2)

    def test_boundary_input_snaps(self):
        t1, _ = t_operators(0.7854, 0.7854)
        assert np.trace(t1).real == pytest.approx(0.0, abs=1e-15)


class TestCriterionLhs:
    def test_tuned_basis_hits_target(self):
        lhs = criterion_lhs(optimal_measurement(np.pi / 6, np.pi / 4), np.pi / 6, np.pi / 4)
        assert lhs == pytest.approx(0.5, abs=1e-12)

    def test_bell_basis_hits_target(self):
        lhs = criterion_lhs(bell_kets(), np.pi / 6, np.pi / 4)
        assert lhs == pytest.approx(0.5, abs=1e-12)

    def test_computational_basis_misses(self):
        lhs = criterion_lhs(computational_kets(), np.pi / 6, np.pi / 4)
        assert lhs == pytest.approx(1.0, abs=1e-12)

    def test_accepts_ket_lists(self):
        kets = list(optimal_measurement(0.3, 0.6).projectors)
        as_proj = criterion_lhs(ProjectiveMeasurement(kets), 0.3, 0.6)
        as_kets = criterion_lhs(build_optimal_basis(0.3, 0.6).kets, 0.3, 0.6)
        assert as_proj == pytest.approx(as_kets, abs=1e-12)

    def test_rejects_higher_rank_projectors(self):
        p01 = np.diag([1.0, 1.0, 0.0, 0.0])
        p23 = np.diag([0.0, 0.0, 1.0, 1.0])
        with pytest.raises(RankOneRequiredError):
            criterion_lhs([p01, p23], 0.3, 0.6)

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            criterion_lhs([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], 0.3, 0.6)

    @given(ordered_angles, st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_never_below_target(self, pair, seed):
        theta, eta = pair
        kets = random_orthonormal_kets(np.random.default_rng(seed))
        lhs = criterion_lhs(kets, theta, eta)
        assert lhs >= np.cos(2 * theta) - 1e-10


class TestAchievedRate:
    def test_tuned_basis(self):
        rate = achieved_rate(optimal_measurement(np.pi / 6, np.pi / 4), np.pi / 6, np.pi / 4)
        assert rate == pytest.approx(0.5, abs=1e-12)

    def test_computational_basis(self):
        rate = achieved_rate(computational_kets(), np.pi / 6, np.pi / 4)
        assert rate == pytest.approx(0.0, abs=1e-12)

    def test_complements_closed_form_on_random_bases(self):
        # Dual route: delivered rate and closed-form sum always total 1.
        theta, eta = 0.3, 0.6
        for _ in range(50):
            kets = random_orthonormal_kets(RNG)
            lhs = criterion_lhs(kets, theta, eta)
            p_s = achieved_rate(kets, theta, eta)
            assert abs(p_s - (1.0 - lhs)) <= 1e-10

    @given(ordered_angles, st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_never_above_best_rate(self, pair, seed):
        theta, eta = pair
        kets = random_orthonormal_kets(np.random.default_rng(seed))
        rate = achieved_rate(kets, theta, eta)
        assert rate <= 2 * np.sin(theta) ** 2 + 1e-10


class TestIsOptimal:
    def test_tuned_basis(self):
        report = is_optimal(optimal_measurement(np.pi / 6, np.pi / 4), np.pi / 6, np.pi / 4)
        assert report.optimal
        assert report.rhs == pytest.approx(0.5, abs=1e-12)
        assert report.p_s == pytest.approx(0.5, abs=1e-12)

    def test_bell_basis(self):
        assert is_optimal(bell_kets(), 0.3, 0.6).optimal

    def test_computational_basis(self):
        report = is_optimal(computational_kets(), 0.3, 0.6)
        assert not report.optimal
        assert report.p_s == pytest.approx(0.0, abs=1e-12)

    def test_report_identity(self):
        for meas in (optimal_measurement(0.3, 0.6), bell_kets(), computational_kets()):
            report = is_optimal(meas, 0.3, 0.6)
            assert report.p_s == pytest.approx(1.0 - report.lhs, abs=1e-10)

    def test_routes_that_disagree_raise(self, monkeypatch):
        # A delivered rate forged 2e-10 away from 1 - lhs must not pass.
        honest = criterion.achieved_rate
        monkeypatch.setattr(criterion, "achieved_rate",
                            lambda meas, theta, eta: honest(meas, theta, eta) + 2e-10)
        with pytest.raises(ValueError, match="disagree"):
            is_optimal(bell_kets(), 0.3, 0.6)
        monkeypatch.setattr(criterion, "achieved_rate", lambda meas, theta, eta: float("nan"))
        with pytest.raises(ValueError, match="disagree"):
            is_optimal(bell_kets(), 0.3, 0.6)

    def test_misordered_angles_relabel(self):
        # The larger angle may sit first; the verdict must not change.
        meas = optimal_measurement(0.7, 0.3)
        report = is_optimal(meas, 0.7, 0.3)
        assert report.optimal
        assert report.rhs == pytest.approx(np.cos(0.6), abs=1e-12)
        assert report.p_s == pytest.approx(2 * np.sin(0.3) ** 2, abs=1e-12)

    def test_phase_freedom_preserves_optimality(self):
        meas = optimal_measurement(0.3, 0.6, beta1=1.1, beta2=-0.4)
        assert is_optimal(meas, 0.3, 0.6).optimal

    def test_tolerance_is_respected(self):
        meas = computational_kets()
        assert not is_optimal(meas, 0.3, 0.6, tol=1e-9).optimal
        assert is_optimal(meas, 0.3, 0.6, tol=1.0).optimal

    def test_to_dict_is_json_ready(self):
        report = is_optimal(bell_kets(), 0.3, 0.6)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["optimal"] is True
        assert set(payload) == {"lhs", "rhs", "p_s", "optimal", "tolerance"}


class TestMeasurementFromText:
    def test_ket_blocks(self, tmp_path):
        basis = build_optimal_basis(np.pi / 6, np.pi / 4)
        text = "\n".join(qmath.format_matrix_text(k) for k in basis.kets)
        meas = measurement_from_text(text)
        assert is_optimal(meas, np.pi / 6, np.pi / 4).optimal

    def test_projector_blocks(self):
        reference = optimal_measurement(0.3, 0.6)
        text = "\n".join(qmath.format_matrix_text(p) for p in reference.projectors)
        meas = measurement_from_text(text)
        for got, want in zip(meas.projectors, reference.projectors):
            assert np.allclose(got, want, atol=1e-12)

    def test_row_vector_blocks(self):
        text = "\n".join(qmath.format_matrix_text(k.reshape(1, 4)) for k in bell_kets())
        meas = measurement_from_text(text)
        assert len(meas) == 4

    def test_wrong_block_count(self):
        text = "\n".join(qmath.format_matrix_text(k) for k in bell_kets()[:3])
        with pytest.raises(ValueError):
            measurement_from_text(text)

    def test_wrong_block_shape(self):
        text = "\n".join(qmath.format_matrix_text(np.eye(2)) for _ in range(4))
        with pytest.raises(ValueError):
            measurement_from_text(text)

    def test_mixed_block_shapes(self):
        kets = bell_kets()
        blocks = [qmath.format_matrix_text(np.outer(kets[0], kets[0].conj()))]
        blocks += [qmath.format_matrix_text(k) for k in kets[1:]]
        with pytest.raises(ValueError):
            measurement_from_text("\n".join(blocks))

    def test_non_orthogonal_kets_rejected(self):
        k = bell_kets()[0]
        text = "\n".join(qmath.format_matrix_text(k) for _ in range(4))
        with pytest.raises(ValueError):
            measurement_from_text(text)
