"""Command-line layer: parsing, dispatch, serialization, exit codes."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import repeaterlab
from repeaterlab import cli, criterion, qmath
from repeaterlab.cli import (
    MAX_GRID,
    MAX_SAMPLES,
    SEED_ENV_VAR,
    RunConfig,
    UsageError,
    main,
    parse_args,
    run,
)
from repeaterlab.repeater import (
    bell_kets,
    direct_success_prob,
    projection_bounds,
    run_protocol_analytic,
)


class TestParseArgs:
    def test_rate(self):
        config = parse_args(["rate", "--theta", "0.5236", "--eta", "0.7854"])
        assert config.command == "rate"
        assert config.theta == 0.5236
        assert config.eta == 0.7854
        assert config.output_format == "json"
        assert config.output_path is None

    def test_degrees(self):
        config = parse_args(["rate", "--theta", "30", "--eta", "45", "--degrees"])
        assert config.theta == pytest.approx(np.pi / 6, abs=1e-12)
        assert config.eta == pytest.approx(np.pi / 4, abs=1e-12)

    def test_simulate(self):
        config = parse_args(["simulate", "--theta", "0.3", "--eta", "0.6",
                             "--n", "1000", "--seed", "7"])
        assert config.command == "simulate"
        assert config.n_samples == 1000
        assert config.seed == 7

    def test_simulate_seed_from_environment(self, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "42")
        config = parse_args(["simulate", "--theta", "0.3", "--eta", "0.6", "--n", "10"])
        assert config.seed == 42

    def test_simulate_seed_flag_wins_over_environment(self, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "42")
        config = parse_args(["simulate", "--theta", "0.3", "--eta", "0.6",
                             "--n", "10", "--seed", "5"])
        assert config.seed == 5

    def test_simulate_seed_defaults_to_none(self, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        config = parse_args(["simulate", "--theta", "0.3", "--eta", "0.6", "--n", "10"])
        assert config.seed is None

    def test_simulate_rejects_malformed_environment_seed(self, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
        with pytest.raises(UsageError):
            parse_args(["simulate", "--theta", "0.3", "--eta", "0.6", "--n", "10"])

    def test_simulate_rejects_negative_environment_seed(self, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "-1")
        with pytest.raises(UsageError, match="nonnegative"):
            parse_args(["simulate", "--theta", "0.3", "--eta", "0.6", "--n", "10"])

    def test_simulate_accepts_the_largest_sample_count(self):
        config = parse_args(["simulate", "--theta", "0.3", "--eta", "0.6",
                             "--n", str(MAX_SAMPLES), "--seed", "0"])
        assert config.n_samples == MAX_SAMPLES
        status, report = run(config)
        assert status == 0
        assert json.loads(report)["n"] == MAX_SAMPLES

    def test_simulate_rejects_empty_sample(self):
        with pytest.raises(UsageError):
            parse_args(["simulate", "--theta", "0.3", "--eta", "0.6", "--n", "0"])

    def test_bound_sorts_and_normalizes(self):
        config = parse_args(["bound", "--a", "0.25,0.75", "--b", "0.5,0.5"])
        assert config.schmidt_a == (0.75, 0.25)
        assert config.schmidt_b == (0.5, 0.5)

    def test_bound_rejects_bad_sum(self):
        with pytest.raises(UsageError):
            parse_args(["bound", "--a", "0.5,0.4", "--b", "0.5,0.5"])

    def test_bound_rejects_malformed_list(self):
        with pytest.raises(UsageError):
            parse_args(["bound", "--a", "0.5,x", "--b", "0.5,0.5"])

    def test_criterion_builtin(self):
        config = parse_args(["criterion", "--theta", "0.3", "--eta", "0.6",
                             "--measurement", "bell"])
        assert config.measurement == "bell"
        assert config.measurement_file is None
        assert config.tolerance == pytest.approx(1e-9)

    def test_criterion_tolerance_flag(self):
        config = parse_args(["criterion", "--theta", "0.3", "--eta", "0.6",
                             "--measurement", "bell", "--tol", "1e-6"])
        assert config.tolerance == pytest.approx(1e-6)

    def test_criterion_sources_are_exclusive(self):
        with pytest.raises(UsageError):
            parse_args(["criterion", "--theta", "0.3", "--eta", "0.6",
                        "--measurement", "bell", "--measurement-file", "x.txt"])
        with pytest.raises(UsageError):
            parse_args(["criterion", "--theta", "0.3", "--eta", "0.6"])

    def test_criterion_rejects_unknown_builtin(self):
        with pytest.raises(UsageError):
            parse_args(["criterion", "--theta", "0.3", "--eta", "0.6",
                        "--measurement", "haar"])

    def test_sweep_defaults(self):
        config = parse_args(["sweep"])
        assert config.grid == 20
        assert config.output_format == "csv"

    def test_sweep_rejects_empty_grid(self):
        with pytest.raises(UsageError):
            parse_args(["sweep", "--grid", "0"])

    def test_sweep_grid_is_capped(self):
        assert parse_args(["sweep", "--grid", str(MAX_GRID)]).grid == MAX_GRID
        with pytest.raises(UsageError):
            parse_args(["sweep", "--grid", str(MAX_GRID + 1)])

    def test_basis_defaults_to_text(self):
        config = parse_args(["basis", "--theta", "0.3", "--eta", "0.6"])
        assert config.output_format == "text"

    @pytest.mark.parametrize("argv", [
        [],
        ["swap"],
        ["rate", "--theta", "0.3"],
        ["rate", "--theta", "0.3", "--eta", "0.6", "--volume", "11"],
        ["rate", "--theta", "abc", "--eta", "0.6"],
        ["simulate", "--theta", "0.3", "--eta", "0.6", "--n", str(MAX_SAMPLES + 1)],
        ["simulate", "--theta", "0.3", "--eta", "0.6", "--n", "99999999999999999999"],
        ["simulate", "--theta", "0.3", "--eta", "0.6", "--n", "10", "--seed", "-1"],
    ])
    def test_bad_command_lines(self, argv):
        with pytest.raises(UsageError):
            parse_args(argv)


class TestRun:
    def test_rate_json(self):
        status, report = run(parse_args(["rate", "--theta", "0.5236", "--eta", "0.7854"]))
        assert status == 0
        payload = json.loads(report)
        assert payload["p_ms"] == pytest.approx(0.5, abs=1e-3)
        assert len(payload["per_outcome"]) == 4
        assert payload["ledger"]["classical_bits_sent"] == 2

    def test_rate_csv_is_one_flat_row(self):
        status, report = run(parse_args(["rate", "--theta", "0.3", "--eta", "0.6",
                                         "--format", "csv"]))
        assert status == 0
        lines = report.strip().split("\n")
        assert len(lines) == 2
        header = lines[0].split(",")
        assert {"theta", "eta", "p_ms"} <= set(header)
        row = dict(zip(header, lines[1].split(",")))
        assert float(row["p_ms"]) == pytest.approx(2 * np.sin(0.3) ** 2, abs=1e-12)

    def test_criterion_builtin_bell(self):
        status, report = run(parse_args(["criterion", "--theta", "0.3", "--eta", "0.6",
                                         "--measurement", "bell"]))
        assert status == 0
        assert json.loads(report)["optimal"] is True

    def test_criterion_builtin_computational(self):
        status, report = run(parse_args(["criterion", "--theta", "0.3", "--eta", "0.6",
                                         "--measurement", "computational"]))
        assert status == 0
        payload = json.loads(report)
        assert payload["optimal"] is False
        assert payload["p_s"] == pytest.approx(0.0, abs=1e-12)

    def test_criterion_from_file(self, tmp_path):
        from repeaterlab.repeater import build_optimal_basis
        kets = build_optimal_basis(0.3, 0.6).kets
        path = tmp_path / "meas.txt"
        path.write_text("\n".join(qmath.format_matrix_text(k) for k in kets),
                        encoding="utf-8")
        status, report = run(parse_args(["criterion", "--theta", "0.3", "--eta", "0.6",
                                         "--measurement-file", str(path)]))
        assert status == 0
        assert json.loads(report)["optimal"] is True

    @pytest.mark.parametrize("token", ["nan", "inf"])
    def test_criterion_non_finite_file_reports_only_json(self, tmp_path, capsys, token):
        lines = "".join(qmath.format_matrix_text(k) for k in bell_kets()).split("\n")
        lines[1] = " ".join([token] + lines[1].split()[1:])
        path = tmp_path / "meas.txt"
        path.write_text("\n".join(lines), encoding="utf-8")
        assert main(["criterion", "--theta", "0.3", "--eta", "0.6",
                     "--measurement-file", str(path)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        error = json.loads(out.err)["error"]
        assert (error["type"], error["message"]) == ("ValueError", "non-finite entry in matrix body")

    def test_criterion_missing_file(self, tmp_path):
        status, report = run(parse_args(["criterion", "--theta", "0.3", "--eta", "0.6",
                                         "--measurement-file", str(tmp_path / "none.txt")]))
        assert status == 1
        assert json.loads(report)["error"]["command"] == "criterion"

    def test_basis_text_round_trips(self):
        status, report = run(parse_args(["basis", "--theta", "0.3", "--eta", "0.6"]))
        assert status == 0
        blocks = qmath.parse_matrix_blocks(report)
        assert len(blocks) == 4
        kets = [b.reshape(4) for b in blocks]
        gram = np.array([[np.vdot(a, b) for b in kets] for a in kets])
        assert np.allclose(gram, np.eye(4), atol=1e-12)

    def test_basis_json(self):
        status, report = run(parse_args(["basis", "--theta", "0.3", "--eta", "0.6",
                                         "--beta1", "0.5", "--format", "json"]))
        assert status == 0
        payload = json.loads(report)
        assert payload["beta1"] == 0.5
        assert np.asarray(payload["kets"]).shape == (4, 4, 2)

    def test_simulate_is_deterministic_for_a_seed(self):
        argv = ["simulate", "--theta", "0.3", "--eta", "0.6", "--n", "2000", "--seed", "9"]
        assert run(parse_args(argv)) == run(parse_args(argv))

    def test_simulate_report_fields(self):
        status, report = run(parse_args(["simulate", "--theta", "0.5236", "--eta", "0.7854",
                                         "--n", "20000", "--seed", "3"]))
        assert status == 0
        payload = json.loads(report)
        assert abs(payload["estimate"] - 0.5) <= 3 * np.sqrt(0.25 / payload["n"])
        assert payload["ledger_stats"]["classical_bits_mean"] == 2.0

    def test_bound(self):
        status, report = run(parse_args(["bound", "--a", "0.5,0.5", "--b", "0.5,0.5"]))
        assert status == 0
        payload = json.loads(report)
        assert payload["p_max"] == pytest.approx(0.25, abs=1e-12)
        assert payload["achieved_p"] == pytest.approx(0.25, abs=1e-12)
        assert payload["post_fidelity"] == pytest.approx(1.0, abs=1e-12)

    def test_sweep_csv(self):
        status, report = run(parse_args(["sweep", "--grid", "5"]))
        assert status == 0
        lines = report.strip().split("\n")
        assert lines[0] == "theta,eta,p_ms,direct_success_prob,lower_bound,upper_bound"
        assert len(lines) == 1 + 25
        last = dict(zip(lines[0].split(","), lines[-1].split(",")))
        assert float(last["theta"]) == pytest.approx(np.pi / 4, abs=1e-12)
        assert float(last["p_ms"]) == pytest.approx(1.0, abs=1e-12)

    def test_sweep_rates_follow_the_smaller_angle(self):
        status, report = run(parse_args(["sweep", "--grid", "4", "--format", "json"]))
        assert status == 0
        rows = json.loads(report)
        assert len(rows) == 16
        for row in rows:
            expected = min(2 * np.sin(row["theta"]) ** 2, 2 * np.sin(row["eta"]) ** 2)
            assert row["p_ms"] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("grid", list(range(1, 13)) + [50])
    def test_sweep_rows_equal_the_scalar_functions(self, grid):
        _, text = run(parse_args(["sweep", "--grid", str(grid)]))
        _, report = run(parse_args(["sweep", "--grid", str(grid), "--format", "json"]))
        csv_rows = [{k: float(v) for k, v in row.items()}
                    for row in csv.DictReader(io.StringIO(text))]
        json_rows = json.loads(report)
        assert csv_rows == json_rows
        assert len(json_rows) == grid * grid
        if grid == 1:
            assert (json_rows[0]["theta"], json_rows[0]["eta"]) == (np.pi / 4, np.pi / 4)
        assert max(max(row["theta"], row["eta"]) for row in json_rows) <= np.pi / 4
        for row in json_rows:
            theta, eta = row["theta"], row["eta"]
            assert row["p_ms"] == run_protocol_analytic(theta, eta).p_ms
            assert row["direct_success_prob"] == direct_success_prob(theta, eta)
            assert (row["lower_bound"], row["upper_bound"]) == projection_bounds(theta, eta)

    @pytest.mark.parametrize("grid", [25, 41, 50])
    def test_sweep_echoes_the_snapped_end_of_the_grid(self, grid):
        # grid * (pi/4 / grid) rounds an ulp above pi/4 on these grids.
        assert grid * ((np.pi / 4) / grid) > np.pi / 4
        _, text = run(parse_args(["sweep", "--grid", str(grid)]))
        rows = list(csv.DictReader(io.StringIO(text)))
        assert float(rows[-1]["theta"]) == float(rows[-1]["eta"]) == np.pi / 4
        assert max(float(row["theta"]) for row in rows) == np.pi / 4

    def test_criterion_routes_that_disagree_exit_one(self, monkeypatch):
        monkeypatch.setattr(criterion, "achieved_rate", lambda meas, theta, eta: 0.5)
        status, report = run(parse_args(["criterion", "--theta", "0.3", "--eta", "0.6",
                                         "--measurement", "bell"]))
        assert status == 1
        assert json.loads(report)["error"]["type"] == "ValueError"

    def test_compare(self):
        status, report = run(parse_args(["compare", "--theta", "0.3", "--eta", "0.6"]))
        assert status == 0
        payload = json.loads(report)
        assert payload["rates_equal"] is True
        assert payload["optimal"]["expected_local_measurements"] <= \
            payload["bell"]["expected_local_measurements"]

    def test_snapped_angle_is_echoed(self):
        status, report = run(parse_args(["rate", "--theta", "0.7854", "--eta", "0.3"]))
        assert status == 0
        assert json.loads(report)["theta"] == np.pi / 4

    def test_domain_error_reports_status_one(self):
        status, report = run(parse_args(["rate", "--theta", "0.0", "--eta", "0.6"]))
        assert status == 1
        payload = json.loads(report)
        assert payload["error"]["type"] == "ValueError"
        assert "theta" in payload["error"]["message"]


class TestMain:
    def test_success_prints_to_stdout(self, capsys):
        assert main(["rate", "--theta", "0.3", "--eta", "0.6"]) == 0
        out = capsys.readouterr()
        assert json.loads(out.out)["p_ms"] == pytest.approx(2 * np.sin(0.3) ** 2)
        assert out.err == ""

    def test_usage_error_exits_two(self, capsys):
        assert main(["simulate", "--theta", "0.3", "--eta", "0.6"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert json.loads(out.err)["error"]["type"] == "UsageError"

    def test_domain_error_exits_one(self, capsys):
        assert main(["rate", "--theta", "0.0", "--eta", "0.6"]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert json.loads(out.err)["error"]["type"] == "ValueError"

    @pytest.mark.parametrize("argv", [
        ["rate", "--theta=nan", "--eta", "0.6"],
        ["rate", "--theta", "0.3", "--eta=inf"],
        ["rate", "--theta", "0.3", "--eta", "0.6", "--beta1=-inf"],
        ["simulate", "--theta", "0.3", "--eta", "0.6", "--n", "10", "--beta2=nan"],
        ["criterion", "--theta", "0.3", "--eta", "0.6", "--measurement", "optimal", "--tol=nan"],
        ["criterion", "--theta", "0.3", "--eta", "0.6", "--measurement", "optimal", "--tol=inf"],
        ["criterion", "--theta", "0.3", "--eta", "0.6", "--measurement", "optimal", "--tol=-1e-9"],
        ["bound", "--a", "nan,1", "--b", "0.5,0.5"],
        ["bound", "--a", "0.5,0.5", "--b", "0.5,inf"],
        ["bound", "--a=-inf,1", "--b", "0.5,0.5"],
    ])
    def test_non_finite_or_negative_number_exits_two(self, argv, capsys):
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert json.loads(out.err)["error"]["type"] == "UsageError"

    def test_memory_error_exits_one(self, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError("cannot allocate the stack")
        monkeypatch.setattr(np.linalg, "svd", exhausted)
        assert main(["sweep", "--grid", "3"]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        error = json.loads(out.err)["error"]
        assert error["type"] == "MemoryError"
        assert error["command"] == "sweep"

    def test_output_file(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert main(["rate", "--theta", "0.3", "--eta", "0.6",
                     "--output", str(path)]) == 0
        assert capsys.readouterr().out == ""
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["p_ms"] == pytest.approx(2 * np.sin(0.3) ** 2)

    def test_unwritable_output_exits_one(self, tmp_path, capsys):
        path = tmp_path / "missing-dir" / "report.json"
        assert main(["rate", "--theta", "0.3", "--eta", "0.6",
                     "--output", str(path)]) == 1
        assert json.loads(capsys.readouterr().err)["error"]["type"] in (
            "FileNotFoundError", "NotADirectoryError", "OSError")

    def test_module_entry_point(self):
        # The child finds the package where this process did, installed or not.
        src = str(Path(repeaterlab.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "repeaterlab.cli", "rate",
             "--theta", "0.3", "--eta", "0.6"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["p_ms"] == pytest.approx(2 * np.sin(0.3) ** 2)


any_float = st.floats() | st.sampled_from([-0.0, 0.0, 1e308, -1e308, 5e-324, 1e-300])
# Mostly finite leaves, so that most blocks take the bulk route.
leaf = st.one_of(st.floats(allow_nan=False, allow_infinity=False), any_float)


@st.composite
def float_blocks(draw):
    """A rectangular nested list of floats, 1-D to 3-D."""
    shape = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))

    def build(dims):
        return draw(leaf) if not dims else [build(dims[1:]) for _ in range(dims[0])]
    return build(shape)


@st.composite
def float_rows(draw):
    """Dicts that share one key order and hold floats, like the sweep rows."""
    keys = draw(st.lists(st.text(max_size=4), min_size=1, max_size=4, unique=True))
    return [{k: draw(leaf) for k in keys} for _ in range(draw(st.integers(1, 4)))]


scalars = (any_float | st.integers() | st.booleans() | st.none() | st.text(max_size=6)
           | st.floats(allow_nan=False).map(np.float64))
documents = st.recursive(
    scalars | float_blocks() | float_rows(),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=4) | st.integers(), children,
                                        max_size=4)),
    max_leaves=24)


class TestDumps:
    """The report writer against json.dumps(value, indent=2)."""

    @given(documents)
    @example([[1.0, -0.0], [float("nan"), 2.5]])
    @example([[1.0, 2.0], [3.0]])
    @example([{"a%r": 1.0}, {"a%r": 2.0}])
    @example([{"a": 1.0, "b": 2.0}, {"b": 2.0, "a": 1.0}])
    @example([[[]], [[]]])
    @example({"rows": [{"x": 1e308, "y": 1e308}], "block": [[1e308, 1e308]]})
    @settings(max_examples=200, deadline=None)
    def test_matches_json_dumps_with_indent(self, value):
        assert cli._dumps(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("argv", [
        ["rate", "--theta", "0.3", "--eta", "0.6"],
        ["compare", "--theta", "0.3", "--eta", "0.6"],
        ["simulate", "--theta", "0.3", "--eta", "0.6", "--n", "1000", "--seed", "1"],
        ["criterion", "--theta", "0.3", "--eta", "0.6", "--measurement", "computational"],
        ["basis", "--theta", "0.3", "--eta", "0.6", "--format", "json"],
        ["bound", "--a", "0.5,0.3,0.2", "--b", "0.6,0.4"],
        ["sweep", "--grid", "4", "--format", "json"],
    ])
    def test_reports_match_json_dumps_with_indent(self, argv):
        _, report = run(parse_args(argv))
        assert report == json.dumps(json.loads(report), indent=2) + "\n"
