"""Closed-form optimality test versus the simulated concentration rate."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repeaterlab import criterion, qmath, repeater
from repeaterlab.criterion import (
    CriterionReport,
    RankOneRequiredError,
    achieved_rate,
    criterion_lhs,
    is_optimal,
    measurement_from_text,
)
from repeaterlab.repeater import (
    bell_kets,
    build_optimal_basis,
    computational_kets,
    run_protocol_with_kets,
)
from oracles import random_orthonormal_kets

RNG = np.random.default_rng(20240814)
EPS = np.finfo(float).eps
# The smallest subnormal, the rounding step of a result that underflows.
SUBNORMAL = 5e-324

protocol_angle = st.floats(min_value=0.0, max_value=np.pi / 4, exclude_min=True)
ordered_angles = st.tuples(
    st.floats(min_value=1e-2, max_value=np.pi / 4),
    st.floats(min_value=1e-2, max_value=np.pi / 4),
).map(lambda pair: (min(pair), max(pair)))


def optimal_measurement(theta, eta, beta1=0.0, beta2=0.0):
    return build_optimal_basis(theta, eta, beta1, beta2).kets


def log_uniform_draws(n: int):
    """n seeded (theta, eta, kets): angles log-uniform from 1e-150 to pi/4, Haar kets as rows.

    The first draws of a longer run are the draws of a shorter one.
    """
    rng = np.random.default_rng(1150)
    for _ in range(n):
        theta, eta = np.exp(rng.uniform(np.log(1e-150), np.log(np.pi / 4), 2)).tolist()
        yield theta, eta, np.array(random_orthonormal_kets(rng))


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
    t1 = np.diag([np.cos(theta) ** 2, -np.sin(theta) ** 2])
    t2 = np.diag([np.cos(eta) ** 2, np.sin(eta) ** 2])
    diag_op = np.kron(t1, t2)
    flip_op = np.kron(np.array([[0.0, 1.0], [0.0, 0.0]]), t2)
    total = 0.0
    for p in projectors:
        straight = np.trace(diag_op @ p).real
        cross = np.trace(flip_op @ p)
        total += np.sqrt(straight ** 2 + np.sin(2 * theta) ** 2 * abs(cross) ** 2)
    return total


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

    @given(ordered_angles, st.booleans(), st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_reads_the_t_operator_diagonals(self, pair, larger_first, seed):
        # Bit for bit the sum over the diagonal of t1 (x) t2, built from t1 and t2.
        theta, eta = pair[::-1] if larger_first else pair
        kets = np.array(random_orthonormal_kets(np.random.default_rng(seed)))
        assert criterion_lhs(kets, theta, eta) == self._lhs_from_t_operators(kets, theta, eta)

    @staticmethod
    def _lhs_from_t_operators(phi, theta, eta):
        if theta > eta:
            # With the larger angle first, the lhs swaps Clare's qubits.
            phi, theta, eta = phi[:, [0, 2, 1, 3]], eta, theta
        d1 = np.array([np.cos(theta) ** 2, -np.sin(theta) ** 2])
        d2 = np.array([np.cos(eta) ** 2, np.sin(eta) ** 2])
        straight = np.abs(phi) ** 2 @ np.outer(d1, d2).ravel()
        cross = (phi[:, :2].conj() * phi[:, 2:]) @ d2
        return float(np.sum(np.sqrt(straight ** 2 + np.sin(2 * theta) ** 2 * np.abs(cross) ** 2)))

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

    def test_is_the_rate_of_the_swap_report(self):
        # One success sum: the p_ms that rate, compare and sweep report.
        rng = np.random.default_rng(19)
        for _ in range(1000):
            kets = random_orthonormal_kets(rng)
            theta, eta = rng.uniform(1e-3, np.pi / 4, size=2)
            rate = achieved_rate(kets, theta, eta)
            assert rate == run_protocol_with_kets(theta, eta, kets).p_ms

    def test_reports_a_bad_angle_before_bad_kets(self):
        # Every route from kets and angles checks the angles first.
        for fn in (achieved_rate, criterion_lhs, is_optimal):
            with pytest.raises(ValueError, match="theta must lie"):
                fn(bell_kets()[:3], 1.0, 0.3)
            with pytest.raises(ValueError, match="theta must lie"):
                fn(np.zeros((4, 4)), -1.0, 0.5)


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

    @given(ordered_angles, st.booleans(), st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_verdict_of_checked_kets(self, pair, larger_first, seed):
        # The report the CLI builds from kets it has already checked.
        theta, eta = pair[::-1] if larger_first else pair
        phi = np.array(random_orthonormal_kets(np.random.default_rng(seed)))
        assert criterion._verdict(phi, theta, eta, 1e-6) == is_optimal(phi, theta, eta, 1e-6)

    def test_routes_that_disagree_raise(self, monkeypatch):
        # A delivered rate forged 2e-10 away from 1 - lhs must not pass.
        honest = criterion._rate
        monkeypatch.setattr(criterion, "_rate", lambda out: honest(out) + 2e-10)
        with pytest.raises(ValueError, match="disagree"):
            is_optimal(bell_kets(), 0.3, 0.6)
        monkeypatch.setattr(criterion, "_rate", lambda out: float("nan"))
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

    @given(protocol_angle, protocol_angle, st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=100, deadline=None)
    def test_tuned_basis_meets_the_criterion_everywhere(self, theta, eta, beta1, beta2):
        for first, second in ((theta, eta), (eta, theta)):
            kets = build_optimal_basis(first, second, beta1, beta2).kets
            report = is_optimal(kets, first, second)
            assert report.optimal
            assert abs(report.lhs - report.rhs) <= 1e-12

    def test_the_flag_at_subnormal_rates(self):
        # Where the optimal rate is subnormal, tol times it underflows and the
        # rates round to the subnormal grid: the tuned and Bell bases stay
        # optimal, and a basis that delivers nothing is not, down to an
        # optimal rate of a few grid steps.
        rng = np.random.default_rng(11)
        for theta in np.geomspace(1e-165, 1e-150, 300).tolist():
            eta = float(rng.uniform(theta, np.pi / 4))
            for kets in (optimal_measurement(theta, eta, *rng.uniform(-3, 3, 2)), bell_kets()):
                assert is_optimal(kets, theta, eta).optimal, theta
        for theta in (1e-155, 1e-160, 5e-162):
            assert not is_optimal(computational_kets(), theta, 0.5).optimal, theta

    def test_the_shortfall_is_lhs_minus_rhs(self):
        # Over Haar bases at uniform angles, the rate's shortfall from the
        # optimal rate is the closed form's lhs - rhs.
        rng = np.random.default_rng(7)
        for _ in range(500):
            theta, eta = rng.uniform(0.0, np.pi / 4, 2)
            report = is_optimal(random_orthonormal_kets(rng), theta, eta)
            best = 2.0 * np.sin(min(theta, eta)) ** 2
            assert abs((report.lhs - report.rhs) - (best - report.p_s)) <= 1e-12

    def test_the_flag_at_tolerance_zero(self):
        # tol = 0 means optimal up to rounding: the tuned and Bell rates round
        # a few ulps below the optimal rate, and still read optimal.
        assert is_optimal(optimal_measurement(0.1, 0.2), 0.1, 0.2, 0.0).optimal
        grid = np.linspace(0.1, 0.7, 7).tolist()
        for theta, eta in itertools.product(grid, grid):
            assert is_optimal(optimal_measurement(theta, eta), theta, eta, 0.0).optimal
            assert is_optimal(bell_kets(), theta, eta, 0.0).optimal
            assert not is_optimal(computational_kets(), theta, eta, 0.0).optimal
        rng = np.random.default_rng(3)
        for theta, eta, beta1, beta2 in rng.uniform(0.0, np.pi / 4, (1000, 4)).tolist():
            kets = optimal_measurement(theta, eta, 4 * beta1, -4 * beta2)
            assert is_optimal(kets, theta, eta, 0.0).optimal, (theta, eta)
            assert is_optimal(bell_kets(), theta, eta, 0.0).optimal, (theta, eta)

    def test_tolerance_is_respected(self):
        meas = computational_kets()
        assert not is_optimal(meas, 0.3, 0.6, tol=1e-9).optimal
        assert is_optimal(meas, 0.3, 0.6, tol=1.0).optimal

    @pytest.mark.parametrize("tol, message", [
        (float("nan"), "expected a finite number, got nan"),
        (float("inf"), "expected a finite number, got inf"),
        (-1.0, "tolerance must be nonnegative, got -1.0"),
        (-5e-324, "tolerance must be nonnegative, got -5e-324"),
    ])
    def test_rejects_a_tolerance_the_cli_rejects(self, tol, message):
        with pytest.raises(ValueError) as excinfo:
            is_optimal(bell_kets(), 0.3, 0.6, tol=tol)
        assert str(excinfo.value) == message

    def test_to_dict_is_json_ready(self):
        report = is_optimal(bell_kets(), 0.3, 0.6)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["optimal"] is True
        assert set(payload) == {"lhs", "rhs", "p_s", "optimal", "tolerance"}


class TestClosedFormAgainstTheKernel:
    """The closed form and the delivered rate against the kernel's singular values
    and a 60-digit reference, over Haar bases at angles down to 1e-150."""

    def test_lhs_is_the_sum_of_singular_value_gaps(self):
        # lhs = 1 - p_s = sum_k (s_max^2 - s_min^2) of each ket's leftover,
        # with the singular values of qmath's closed form, unscaled by 2^-k.
        for theta, eta, kets in log_uniform_draws(1000):
            m = repeater._amplitudes(theta, eta) * kets.conj()
            k, _, _, s_max, s_min = qmath.singular_values_2x2(m)
            gaps = np.add.reduce(np.ldexp(s_max ** 2 - s_min ** 2, -2 * k))
            assert abs(criterion_lhs(kets, theta, eta) - gaps) <= 8 * EPS, (theta, eta)

    def test_the_delivered_rate_against_mpmath(self):
        # p_s = sum_k 2 s_min^2, with s_min^2 = |det M|^2 / s_max^2 at 60
        # digits: a few eps of the rate, and a few subnormal steps where the
        # rate underflows.
        mpmath = pytest.importorskip("mpmath")
        for theta, eta, kets in log_uniform_draws(1000):
            p_s = is_optimal(kets, theta, eta).p_s
            with mpmath.workdps(60):
                t, e = mpmath.mpf(theta), mpmath.mpf(eta)
                f = [mpmath.cos(t) * mpmath.cos(e), mpmath.cos(t) * mpmath.sin(e),
                     mpmath.sin(t) * mpmath.cos(e), mpmath.sin(t) * mpmath.sin(e)]
                ref = 0
                for phi in kets.tolist():
                    m = [a * mpmath.conj(mpmath.mpc(z)) for a, z in zip(f, phi)]
                    total = mpmath.fsum(abs(z) ** 2 for z in m)
                    det2 = abs(m[0] * m[3] - m[1] * m[2]) ** 2
                    # 2 s_min^2 = 2 det2 / s_max^2, s_max^2 = (total + sqrt(total^2 - 4 det2)) / 2.
                    ref += 4 * det2 / (total + mpmath.sqrt(total ** 2 - 4 * det2))
                ref = float(ref)
            assert abs(p_s - ref) <= 8 * EPS * ref + 4 * SUBNORMAL, (theta, eta, p_s, ref)


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
        assert np.array_equal(meas, bell_kets())

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
