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
    return build_optimal_basis(theta, eta, beta1, beta2).kets


def measurement_text(kets, projectors: bool) -> str:
    """A measurement file holding the kets, or their projectors."""
    blocks = [np.outer(k, np.conj(k)) if projectors else k for k in kets]
    return "".join(qmath.format_matrix_text(b) for b in blocks)


def reference_lhs(kets, theta, eta):
    """The closed-form sum as a trace over each projector, one 4x4 product at a time."""
    projectors = [np.outer(k, np.conj(k)) for k in kets]
    if theta > eta:
        perm = (0, 2, 1, 3)
        projectors = [p[np.ix_(perm, perm)] for p in projectors]
        theta, eta = eta, theta
    t1, t2 = t_operators(theta, eta)
    diag_op = np.kron(t1, t2)
    flip_op = np.kron(np.array([[0.0, 1.0], [0.0, 0.0]]), t2)
    total = 0.0
    for p in projectors:
        straight = np.trace(diag_op @ p).real
        cross = np.trace(flip_op @ p)
        total += np.sqrt(straight ** 2 + np.sin(2 * theta) ** 2 * abs(cross) ** 2)
    return total


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
        kets = optimal_measurement(0.3, 0.6)
        want = criterion_lhs(kets, 0.3, 0.6)
        for form in (list(kets), np.asarray(kets),
                     measurement_from_text(measurement_text(kets, projectors=False))):
            assert criterion_lhs(form, 0.3, 0.6) == pytest.approx(want, abs=1e-15)

    def test_rejects_higher_rank_projectors(self):
        # The test takes kets; projectors become kets at the text boundary,
        # which admits rank-one projectors only.
        p01 = np.diag([1.0, 1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="dim-4 kets"):
            criterion_lhs([p01, np.diag([0.0, 0.0, 1.0, 1.0])], 0.3, 0.6)
        blocks = [p01, np.diag([0.0, 0.0, 1.0, 0.0]), np.diag([0.0, 0.0, 0.0, 1.0]),
                  np.zeros((4, 4))]
        with pytest.raises(RankOneRequiredError, match="projector 0 has rank 2"):
            measurement_from_text("".join(qmath.format_matrix_text(b) for b in blocks))

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            criterion_lhs([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], 0.3, 0.6)

    @given(ordered_angles, st.booleans(), st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_projector_trace_formula(self, pair, larger_first, seed):
        theta, eta = pair[::-1] if larger_first else pair
        kets = random_orthonormal_kets(np.random.default_rng(seed))
        assert abs(criterion_lhs(kets, theta, eta) - reference_lhs(kets, theta, eta)) <= 1e-12

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
        # Each projector becomes its ket, up to a global phase.
        reference = optimal_measurement(0.3, 0.6, beta1=0.7, beta2=-1.2)
        kets = measurement_from_text(measurement_text(reference, projectors=True))
        assert kets.shape == (4, 4)
        for got, want in zip(kets, reference):
            assert abs(abs(np.vdot(got, want)) - 1.0) <= 1e-12

    @given(ordered_angles, st.booleans(), st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_ket_and_projector_files_agree(self, pair, larger_first, seed):
        theta, eta = pair[::-1] if larger_first else pair
        kets = random_orthonormal_kets(np.random.default_rng(seed))
        reports = [is_optimal(measurement_from_text(measurement_text(kets, projectors)),
                              theta, eta) for projectors in (False, True)]
        for field in ("lhs", "rhs", "p_s"):
            assert abs(getattr(reports[0], field) - getattr(reports[1], field)) <= 1e-12
        assert reports[0].optimal == reports[1].optimal

    def test_row_vector_blocks(self):
        text = "\n".join(qmath.format_matrix_text(k.reshape(1, 4)) for k in bell_kets())
        meas = measurement_from_text(text)
        assert np.array_equal(meas, np.asarray(bell_kets()))

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e999"])
    @pytest.mark.parametrize("projectors", [False, True])
    def test_rejects_non_finite_entries(self, token, projectors):
        lines = measurement_text(bell_kets(), projectors).split("\n")
        lines[1] = " ".join([token] + lines[1].split()[1:])
        with pytest.raises(ValueError, match="non-finite entry"):
            measurement_from_text("\n".join(lines))

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
