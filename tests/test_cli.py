"""Command-line layer: parsing, dispatch, serialization, exit codes."""

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import repeaterlab
from repeaterlab import cli, criterion, qmath, repeater
from repeaterlab.bounds import achieving_operator
from repeaterlab.cli import (
    MAX_BOUND_DIM,
    MAX_GRID,
    MAX_SAMPLES,
    SEED_ENV_VAR,
    UsageError,
    main,
    parse_args,
    run,
)
from repeaterlab.criterion import is_optimal, measurement_from_text
from repeaterlab.repeater import (
    bell_kets,
    build_optimal_basis,
    compare_with_bell,
    computational_kets,
    direct_success_prob,
    projection_bounds,
    run_protocol_analytic,
    run_protocol_sampled,
)
from oracles import random_orthonormal_kets

# The sweep report's columns, in order.
SWEEP_COLUMNS = ("theta", "eta", "p_ms", "direct_success_prob", "lower_bound", "upper_bound")
# Measurement files that fail as read: None is a missing file.
BAD_MEASUREMENT_FILES = {
    "missing": None,
    "malformed": qmath.format_matrix_text(np.eye(4)[0]),
    "non-orthonormal": qmath.format_matrix_text(np.eye(4)[0]) * 4,
    "projector": "".join(qmath.format_matrix_text(p) for p in (
        np.diag([1.0, 1.0, 0.0, 0.0]), np.diag([0.0, 0.0, 1.0, 1.0]), np.zeros((4, 4)),
        np.zeros((4, 4)))),
}



def child_env() -> dict:
    """Environment of a child that finds the package where this process did, installed or not.

    PYTHONUNBUFFERED is dropped, so the child's stdout is buffered, as is
    Python's default, whatever this process's environment says.
    """
    src = str(Path(repeaterlab.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return env


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
        assert MAX_SAMPLES is repeater.MAX_SAMPLES  # the sampler owns the cap
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
        # The list is converted in one pass; the error still names its first bad token.
        for text, token in (("0.5,x", "x"), ("x,nan", "x"), ("nan,x", "nan"),
                            ("0.5,inf", "inf"), ("1e999,0.5", "1e999")):
            with pytest.raises(UsageError) as excinfo:
                parse_args(["bound", "--a", text, "--b", "0.5,0.5"])
            with pytest.raises(argparse.ArgumentTypeError) as want:
                cli._finite(token)
            assert str(excinfo.value) == f"argument --a: {want.value}"

    def test_bound_lists_are_capped(self, capsys):
        at_cap = ",".join([repr(1 / MAX_BOUND_DIM)] * MAX_BOUND_DIM)
        over = ",".join([repr(1 / (MAX_BOUND_DIM + 1))] * (MAX_BOUND_DIM + 1))
        config = parse_args(["bound", "--a", at_cap, "--b", at_cap])
        assert len(config.schmidt_a) == len(config.schmidt_b) == MAX_BOUND_DIM
        for argv in (["bound", "--a", over, "--b", "0.5,0.5"],
                     ["bound", "--a", "0.5,0.5", "--b", over]):
            with pytest.raises(UsageError, match=f"at most {MAX_BOUND_DIM}"):
                parse_args(argv)
            assert main(argv) == 2
            assert capsys.readouterr().out == ""

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
        ["rate", "--theta", "0.3", "--eta", "0.6", "--beta1", "-inf"],
    ])
    def test_bad_command_lines(self, argv):
        with pytest.raises(UsageError):
            parse_args(argv)

    @pytest.mark.parametrize("token", ["-1e-5", "-7.8e-191", "-1E+2", "-.5e3", "-5.", "-1.e-5"])
    def test_negative_exponent_is_a_number(self, token):
        angles = ["rate", "--theta", "0.3", "--eta", "0.6"]
        for option in ("--beta1", "--beta2"):
            spaced = parse_args([*angles, option, token])
            assert spaced == parse_args([*angles, f"{option}={token}"])
            assert getattr(spaced, option[2:]) == float(token)
        assert run(parse_args([*angles, "--beta1", token])) == \
            run(parse_args([*angles, f"--beta1={token}"]))

    def test_negative_exponent_angle_is_a_domain_error(self, capsys):
        assert main(["rate", "--theta", "-1e-5", "--eta", "0.3"]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert json.loads(out.err)["error"]["type"] == "ValueError"


def _top_level(argv):
    """What parse_args gives when the top-level parser reads the whole command line."""
    parser, _ = cli._build_parser()
    return cli._checked(parser.parse_args(argv))


def _outcome(parse, argv, capsys):
    """A parsed namespace, or the UsageError message, or the -h exit code with its stdout."""
    try:
        return parse(argv)
    except UsageError as exc:
        return ("UsageError", str(exc))
    except SystemExit as exc:
        return ("SystemExit", exc.code, capsys.readouterr().out)


DISPATCH_CASES = [
    [], ["-h"], ["--help"], ["--he"], ["swap"], ["rat"], ["-x"], ["--theta", "0.3"],
    ["rate", "--theta", "0.3", "--eta", "0.6"],
    ["rate", "--the", "0.3", "--et", "0.6", "--deg"],
    ["rate", "--theta=0.3", "--eta=-0.6", "--beta1", "-1e-3"],
    ["rate", "--theta", "0.3", "--eta", "0.6", "--beta1", "-1e-5", "--beta2", "-1E+2"],
    ["rate", "--theta", "0.3", "--eta", "0.6", "--beta1", "-5.", "--beta2", "-1.e-5"],
    ["rate", "--theta", "-0.3", "--eta", "0.6"],
    ["rate", "--theta", "0.3", "--eta", "0.6", "--", "x"],
    ["rate", "--", "--theta", "0.3"],
    ["rate", "--theta", "0.3", "--eta", "0.6", "extra"],
    ["rate", "--theta", "0.3"],
    ["rate", "--theta", "nan", "--eta", "0.6"],
    ["criterion", "--theta", "0.3", "--eta", "0.6", "--measurement", "bell",
     "--measurement-file", "x.txt"],
    ["criterion", "--theta", "0.3", "--eta", "0.6", "--measurement", "ghz"],
    ["criterion", "--theta", "0.3", "--eta", "0.6", "--measurement-file=m.txt", "--tol", "0"],
    ["simulate", "--theta", "0.3", "--eta", "0.6", "--n", "10", "--seed", "-1"],
    ["sweep", "--grid", "7", "--format", "text"],
    ["bound", "--a", "0.5,0.5", "--b", "0.7,0.3", "--output", "-"],
    ["compare", "--theta", "0.3", "--eta", "0.6", "--format", "csv"],
    ["basis", "--theta", "0.3", "--eta", "0.6", "-h"],
    ["rate", "--he"],
] + [[command, "-h"] for command in
     ("rate", "basis", "simulate", "criterion", "bound", "sweep", "compare")]


class TestDispatch:
    @pytest.mark.parametrize("argv", DISPATCH_CASES, ids=" ".join)
    def test_same_as_the_top_level_parser(self, argv, capsys):
        assert _outcome(parse_args, argv, capsys) == _outcome(_top_level, argv, capsys)

    def test_every_command_is_dispatched(self):
        _, commands = cli._build_parser()
        assert set(commands) == {"rate", "basis", "simulate", "criterion", "bound",
                                 "sweep", "compare"}


def _count_gram_checks(monkeypatch):
    """Counts calls of qmath.spectral_norm_within; returns the running count."""
    calls = [0]
    honest = qmath.spectral_norm_within

    def counted(a, atol):
        calls[0] += 1
        return honest(a, atol)
    monkeypatch.setattr(qmath, "spectral_norm_within", counted)
    return calls


class TestCriterionChecksOnce:
    """A basis is checked where its kets arrive, once; a basis the library builds is not."""

    @pytest.mark.parametrize("builtin, checks", [("bell", 0), ("optimal", 0),
                                                 ("computational", 0)],
                             ids=["bell", "optimal", "computational"])
    def test_builtin(self, builtin, checks, monkeypatch):
        # Every built-in basis, the tuned one included, is orthonormal as built.
        calls = _count_gram_checks(monkeypatch)
        status, _ = run(parse_args(["criterion", "--theta", "0.6", "--eta", "0.3",
                                    "--measurement", builtin]))
        assert (status, calls[0]) == (0, checks)

    @pytest.mark.parametrize("argv", [
        ["rate", "--theta", "0.3", "--eta", "0.6", "--beta1", "0.5"],
        ["compare", "--theta", "0.3", "--eta", "0.6"],
        ["simulate", "--theta", "0.3", "--eta", "0.6", "--n", "1000", "--seed", "1"],
        ["basis", "--theta", "0.3", "--eta", "0.6", "--beta2", "-1.5"],
        ["basis", "--theta", "0.3", "--eta", "0.6", "--format", "json"],
    ], ids=" ".join)
    def test_commands_on_the_tuned_basis_check_nothing(self, argv, monkeypatch):
        calls = _count_gram_checks(monkeypatch)
        status, _ = run(parse_args(argv))
        assert (status, calls[0]) == (0, 0)

    @pytest.mark.parametrize("route", [
        lambda kets: repeaterlab.run_protocol_with_kets(0.3, 0.6, kets),
        lambda kets: repeaterlab.criterion_lhs(kets, 0.3, 0.6),
        lambda kets: repeaterlab.achieved_rate(kets, 0.3, 0.6),
        lambda kets: repeaterlab.is_optimal(kets, 0.3, 0.6),
        lambda kets: repeaterlab.measurement_from_text(
            "".join(qmath.format_matrix_text(k) for k in kets)),
    ], ids=["run_protocol_with_kets", "criterion_lhs", "achieved_rate", "is_optimal",
            "measurement_from_text"])
    def test_each_public_ket_route_checks_once(self, route, monkeypatch):
        kets = random_orthonormal_kets(np.random.default_rng(5))
        calls = _count_gram_checks(monkeypatch)
        route(kets)
        assert calls[0] == 1

    @pytest.mark.parametrize("projectors, checks", [(False, 1), (True, 3)])
    def test_file(self, projectors, checks, tmp_path, monkeypatch):
        # A projector file also checks Hermiticity and completeness.
        kets = random_orthonormal_kets(np.random.default_rng(3))
        blocks = [np.outer(k, k.conj()) if projectors else k for k in kets]
        path = tmp_path / "meas.txt"
        path.write_text("".join(qmath.format_matrix_text(b) for b in blocks), encoding="utf-8")
        calls = _count_gram_checks(monkeypatch)
        status, _ = run(parse_args(["criterion", "--theta", "0.3", "--eta", "0.6",
                                    "--measurement-file", str(path)]))
        assert (status, calls[0]) == (0, checks)


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

    @pytest.mark.parametrize("output_format", ["json", "csv"])
    def test_unseeded_simulate_reports_a_seed_that_repeats_it(self, output_format, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        argv = ["simulate", "--theta", "0.3", "--eta", "0.6", "--n", "2000",
                "--format", output_format]
        reports = [run(parse_args(argv))[1] for _ in range(2)]
        if output_format == "json":
            seeds = [json.loads(report)["seed"] for report in reports]
        else:
            seeds = [int(next(csv.DictReader(io.StringIO(report)))["seed"]) for report in reports]
        assert all(type(seed) is int for seed in seeds)
        assert seeds[0] != seeds[1]
        for seed, report in zip(seeds, reports):
            assert run(parse_args(argv + ["--seed", str(seed)])) == (0, report)

    def test_criterion_optimal_p_s_is_the_rate_report_p_ms(self):
        # criterion --measurement optimal and rate read one success sum.
        rng = np.random.default_rng(19)
        for theta, eta in rng.uniform(1e-3, np.pi / 4, size=(300, 2)).tolist():
            angles = ["--theta", repr(theta), "--eta", repr(eta)]
            _, verdict = run(parse_args(["criterion", *angles, "--measurement", "optimal"]))
            _, rate = run(parse_args(["rate", *angles]))
            assert json.loads(verdict)["p_s"] == json.loads(rate)["p_ms"]

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

    @pytest.mark.parametrize("grid", list(range(1, 13)) + [25, 50])
    def test_sweep_reports_are_what_csv_and_json_write(self, grid):
        angles = repeater._grid_angles(grid).tolist()
        rows = [(angles[t], angles[e], *rest)
                for i, k, *table in repeater._grid_table(grid)
                for t, e, *rest in zip(i.tolist(), k.tolist(), *(c.tolist() for c in table))]
        assert len(rows) == grid * grid
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(SWEEP_COLUMNS)
        writer.writerows(rows)
        assert "".join(cli._sweep_report(grid, "csv")) == buf.getvalue()
        records = [dict(zip(SWEEP_COLUMNS, row)) for row in rows]
        assert "".join(cli._sweep_report(grid, "json")) == json.dumps(records, indent=2) + "\n"

    @pytest.mark.parametrize("grid", [25, 41, 50])
    def test_sweep_echoes_the_snapped_end_of_the_grid(self, grid):
        # grid * (pi/4 / grid) rounds an ulp above pi/4 on these grids.
        assert grid * ((np.pi / 4) / grid) > np.pi / 4
        _, text = run(parse_args(["sweep", "--grid", str(grid)]))
        rows = list(csv.DictReader(io.StringIO(text)))
        assert float(rows[-1]["theta"]) == float(rows[-1]["eta"]) == np.pi / 4
        assert max(float(row["theta"]) for row in rows) == np.pi / 4

    def test_criterion_routes_that_disagree_exit_one(self, monkeypatch):
        monkeypatch.setattr(criterion, "_rate", lambda out: 0.5)
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

    def test_compare_csv_flattens_both_branches(self):
        status, report = run(parse_args(["compare", "--theta", "0.3", "--eta", "0.6",
                                         "--format", "csv"]))
        assert status == 0
        header, row = csv.reader(io.StringIO(report))
        fields = ("p_ms", "bob_action_prob", "expected_local_measurements",
                  "classical_bits_sent")
        assert header == ["theta", "eta", *(f"{branch}.{name}" for branch in ("optimal", "bell")
                                            for name in fields), "rates_equal"]
        want = compare_with_bell(0.3, 0.6).to_dict()
        cells = dict(zip(header, row))
        for branch in ("optimal", "bell"):
            for name in fields:
                assert cells[f"{branch}.{name}"] == repr(want[branch][name])
        assert (cells["theta"], cells["eta"], cells["rates_equal"]) == ("0.3", "0.6", "true")

    @pytest.mark.parametrize("argv, nested, dropped", [
        (["rate"], "ledger", "per_outcome"),
        (["simulate", "--n", "1000", "--seed", "1"], "ledger_stats", "ledger_stats.outcome_counts"),
    ])
    def test_csv_flattens_nested_scalars_and_drops_lists(self, argv, nested, dropped):
        status, report = run(parse_args([*argv, "--theta", "0.3", "--eta", "0.6",
                                         "--format", "csv"]))
        assert status == 0
        header, row = csv.reader(io.StringIO(report))
        _, json_report = run(parse_args([*argv, "--theta", "0.3", "--eta", "0.6"]))
        want = {f"{nested}.{k}": v for k, v in json.loads(json_report)[nested].items()
                if not isinstance(v, list)}
        assert header[-len(want):] == list(want)
        assert row[-len(want):] == [repr(v) for v in want.values()]
        assert dropped not in header

    @pytest.mark.parametrize("argv, lines", [
        (["criterion", "--theta", "0.3", "--eta", "0.6", "--measurement", "computational"],
         ["lhs,rhs,p_s,optimal,tolerance",
          "0.9999999999999999,0.8253356149096783,0.0,false,1e-09"]),
        (["criterion", "--theta", "0.3", "--eta", "0.6", "--measurement", "bell"],
         ["lhs,rhs,p_s,optimal,tolerance",
          "0.8253356149096782,0.8253356149096783,0.17466438509032164,true,1e-09"]),
        (["bound", "--a", "0.75,0.25", "--b", "0.5,0.5"],
         ["p_max,achieved_p,post_fidelity", "0.1875,0.18749999999999992,0.9999999999999997"]),
    ])
    def test_one_row_csv_reports(self, argv, lines):
        status, report = run(parse_args([*argv, "--format", "csv"]))
        assert status == 0
        assert report == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("argv, path, keys", [
        (["simulate", "--n", "1000", "--seed", "1"], (),
         ["theta", "eta", "n", "seed", "estimate", "stderr", "ledger_stats"]),
        (["criterion", "--measurement", "bell"], (),
         ["lhs", "rhs", "p_s", "optimal", "tolerance"]),
        (["compare"], (), ["theta", "eta", "optimal", "bell", "rates_equal"]),
        (["compare"], ("optimal",),
         ["p_ms", "bob_action_prob", "expected_local_measurements", "classical_bits_sent"]),
        (["compare"], ("bell",),
         ["p_ms", "bob_action_prob", "expected_local_measurements", "classical_bits_sent"]),
        (["rate"], ("per_outcome", 0),
         ["outcome", "clare_prob", "maximal", "bob_success_prob", "success_prob", "post_state"]),
    ])
    def test_record_reports_list_their_keys_in_order(self, argv, path, keys):
        status, report = run(parse_args([*argv, "--theta", "0.3", "--eta", "0.6"]))
        assert status == 0
        node = json.loads(report)
        for step in path:
            node = node[step]
        assert list(node) == keys

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
    def test_readme_examples_run(self, capsys, monkeypatch, tmp_path):
        # Each line of the README's CLI block, its comment dropped; a "> file"
        # redirect writes the report there, as the basis line writes meas.txt.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        monkeypatch.chdir(tmp_path)
        for line in block.splitlines():
            command, _, target = line.split("#", 1)[0].partition(">")
            program, *argv = command.split()
            assert program == "repeaterlab"
            assert main(argv) == 0, line
            report = capsys.readouterr().out
            if target.strip():
                (tmp_path / target.strip()).write_text(report, encoding="utf-8")
        assert (tmp_path / "meas.txt").is_file()

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
        ["simulate", "--theta=nan", "--eta", "0.6", "--n", "10"],
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

    def test_underflowing_ceiling_is_quiet(self, capsys):
        # 0.6 * 1e-320 is subnormal and its reciprocal overflows: the ceiling is 0.
        assert main(["bound", "--a", "0.6,0.4", "--b", "1e-320,1"]) == 0
        out = capsys.readouterr()
        assert out.err == ""
        assert json.loads(out.out)["p_max"] == 0.0

    def test_memory_error_exits_one(self, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError("cannot allocate the stack")
        monkeypatch.setattr(repeater, "_rate_table", exhausted)
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
        proc = subprocess.run(
            [sys.executable, "-m", "repeaterlab.cli", "rate",
             "--theta", "0.3", "--eta", "0.6"],
            capture_output=True, text=True, timeout=60,
            env=child_env())
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["p_ms"] == pytest.approx(2 * np.sin(0.3) ** 2)

    def test_closed_pipe_exits_one_with_one_error_line(self):
        # A reader that closes the pipe after a few bytes makes the later
        # writes fail: one JSON error line, as for any failed write, and no
        # traceback.
        proc = subprocess.Popen(
            [sys.executable, "-m", "repeaterlab.cli", "sweep", "--grid", "200"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=child_env())
        try:
            assert proc.stdout.read(64).startswith(b"theta,eta,p_ms,")
        finally:
            proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1
        lines = err.decode("utf-8").splitlines()
        assert len(lines) == 1, lines
        error = json.loads(lines[0])["error"]
        assert (error["type"], error["command"]) == ("BrokenPipeError", "sweep")
        assert b"Traceback" not in err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device_exits_one_with_one_error_line(self):
        # Buffered, the report fails only when stdout is flushed: that flush
        # is the command's, and the interpreter's at exit finds nothing left.
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "repeaterlab.cli", "rate", "--theta", "0.3", "--eta", "0.6"],
                stdout=full, stderr=subprocess.PIPE, timeout=60, env=child_env())
        assert proc.returncode == 1
        lines = proc.stderr.decode("utf-8").splitlines()
        assert len(lines) == 1, lines
        error = json.loads(lines[0])["error"]
        assert (error["type"], error["command"]) == ("OSError", "rate")

    def test_a_failed_write_to_a_substituted_stdout_leaves_fd_1(self, monkeypatch, capsys):
        # Only the process's own stdout is pointed at os.devnull after a
        # failed write; an in-process caller's stream is left as it is.
        class Full(io.StringIO):
            def write(self, text):
                raise OSError(28, "No space left on device")

        before = os.fstat(1)
        monkeypatch.setattr(sys, "stdout", Full())
        assert main(["rate", "--theta", "0.3", "--eta", "0.6"]) == 1
        after = os.fstat(1)
        assert (after.st_dev, after.st_ino) == (before.st_dev, before.st_ino)
        error = json.loads(capsys.readouterr().err)["error"]
        assert (error["type"], error["command"]) == ("OSError", "rate")

    def test_pipe_closed_before_the_write_exits_one_with_one_error_line(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repeaterlab.cli", "rate", "--theta", "0.3", "--eta", "0.6"],
                stdout=write_end, stderr=subprocess.PIPE, timeout=60, env=child_env())
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        lines = proc.stderr.decode("utf-8").splitlines()
        assert len(lines) == 1, lines
        error = json.loads(lines[0])["error"]
        assert (error["type"], error["command"]) == ("BrokenPipeError", "rate")

    @pytest.mark.parametrize("kind", BAD_MEASUREMENT_FILES)
    @pytest.mark.parametrize("theta, eta", [(0.9, 0.3), (0.3, -0.2)])
    def test_criterion_reports_a_bad_angle_before_a_bad_file(self, kind, theta, eta,
                                                             tmp_path, capsys):
        path = tmp_path / "meas.txt"
        if BAD_MEASUREMENT_FILES[kind] is not None:
            path.write_text(BAD_MEASUREMENT_FILES[kind], encoding="utf-8")
        argv = ["criterion", "--measurement-file", str(path)]
        # The file fails on its own, with good angles.
        assert main([*argv, "--theta", "0.3", "--eta", "0.6"]) == 1
        file_error = json.loads(capsys.readouterr().err)["error"]["message"]
        with pytest.raises(ValueError) as angle_error:
            is_optimal(bell_kets(), theta, eta)
        assert main([*argv, "--theta", str(theta), "--eta", str(eta)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        error = json.loads(out.err)["error"]
        assert (error["type"], error["message"], error["command"]) == (
            "ValueError", str(angle_error.value), "criterion")
        assert error["message"] != file_error


finite_part = (st.floats(allow_nan=False, allow_infinity=False)
               | st.sampled_from([-0.0, 0.0, 1e308, -1e308, 5e-324, 1e-300]))


@st.composite
def complex_arrays(draw):
    """Finite complex vectors and matrices whose rows repeat, with signed zeros."""
    cols = draw(st.integers(0, 4))
    row = st.lists(st.builds(complex, finite_part, finite_part), min_size=cols, max_size=cols)
    pool = draw(st.lists(row, min_size=1, max_size=3))
    if draw(st.booleans()):
        return np.array(pool[0], dtype=complex)
    rows = draw(st.lists(st.sampled_from(pool), max_size=6))
    return np.array(rows, dtype=complex).reshape(len(rows), cols)


# Log-uniform Schmidt coefficients, before normalizing, from 1e-300 to 1.
schmidt_entries = st.floats(math.log(1e-300), 0.0).map(math.exp)


def schmidt_texts(da, db):
    """Two seeded, unsorted coefficient lists of the given lengths, as --a and --b take them."""
    rng = np.random.default_rng(100 * da + db)
    return [",".join(map(repr, rng.dirichlet(np.ones(d)).tolist())) for d in (da, db)]


QUARTER_PI = math.pi / 4
# Log-uniform from 1e-300 to pi/4, subnormal angles, and inputs that snap to pi/4.
protocol_angles = (st.floats(math.log(1e-300), math.log(QUARTER_PI)).map(math.exp)
                   | st.sampled_from([5e-324, 1e-320, 2.2250738585072014e-308, QUARTER_PI])
                   | st.floats(QUARTER_PI, QUARTER_PI + qmath.BOUNDARY_SLACK, exclude_min=True))
phases = st.floats(-100.0, 100.0) | st.sampled_from([0.0, -0.0])


@st.composite
def angle_pairs(draw):
    """theta, eta: equal half the time."""
    theta = draw(protocol_angles)
    return theta, (theta if draw(st.booleans()) else draw(protocol_angles))


@st.composite
def rate_inputs(draw):
    """theta, eta, beta1, beta2: equal angles half the time, random phases half the time."""
    theta, eta = draw(angle_pairs())
    beta1, beta2 = (draw(phases), draw(phases)) if draw(st.booleans()) else (0.0, 0.0)
    return theta, eta, beta1, beta2


class TestRateReport:
    """The rate report, filled from the kernel's arrays, against json.dumps of to_dict."""

    @given(rate_inputs())
    @example((5e-324, 5e-324, 0.0, 0.0))
    @example((5e-324, QUARTER_PI + qmath.BOUNDARY_SLACK, 1.0, -2.0))
    @example((1e-300, 0.3, -0.0, 3.0))
    @example((0.3, 0.3, 0.0, 0.0))
    @example((QUARTER_PI, QUARTER_PI, 0.5, 0.5))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_writer_on_to_dict(self, inputs):
        theta, eta, beta1, beta2 = inputs
        status, report = run(parse_args(["rate", "--theta", repr(theta), "--eta", repr(eta),
                                         "--beta1", repr(beta1), "--beta2", repr(beta2)]))
        assert status == 0
        # json writes a non-finite float as NaN or Infinity, %r does not: equal
        # reports also show that every cell is finite.
        want = run_protocol_analytic(theta, eta, beta1, beta2).to_dict()
        assert report == json.dumps(want, indent=2) + "\n"


def _angles(theta, eta):
    return ["--theta", repr(theta), "--eta", repr(eta)]


def _json_of(result):
    """What json.dumps writes for result.to_dict(): the report each template must give."""
    return json.dumps(result.to_dict(), indent=2) + "\n"


class TestRecordReports:
    """The simulate, compare and criterion reports, each one template fill, against
    json.dumps of to_dict.  json writes a non-finite float as NaN or Infinity, %r
    does not: equal reports also show that every cell is finite."""

    @given(angle_pairs(), st.integers(1, MAX_SAMPLES), st.integers(0, 2 ** 128 - 1))
    @example((0.3, 0.6), 1, 0)
    @example((0.3, 0.6), MAX_SAMPLES, 0)
    @example((5e-324, QUARTER_PI + qmath.BOUNDARY_SLACK), MAX_SAMPLES, 2 ** 128 - 1)
    @example((0.3, 0.3), 1000, 7)
    @settings(max_examples=300, deadline=None)
    def test_simulate(self, angles, n, seed):
        status, report = run(parse_args(["simulate", *_angles(*angles), "--n", str(n),
                                         "--seed", str(seed)]))
        assert status == 0
        assert report == _json_of(run_protocol_sampled(*angles, n, seed))

    @pytest.mark.parametrize("n", [1, MAX_SAMPLES])
    def test_unseeded_simulate(self, n):
        config = parse_args(["simulate", "--theta", "0.3", "--eta", "0.6", "--n", str(n)])
        config.seed = None  # as parse_args leaves it without --seed or $REPEATERLAB_SEED
        status, report = run(config)
        assert status == 0
        seed = json.loads(report)["seed"]
        # Fresh entropy is a 128-bit int, past what a 64-bit field holds.
        assert 64 < seed.bit_length() <= 128
        assert report == _json_of(run_protocol_sampled(0.3, 0.6, n, seed))

    @given(angle_pairs())
    @example((5e-324, 5e-324))
    @example((5e-324, QUARTER_PI))
    @example((0.3, 0.3))
    @example((QUARTER_PI + qmath.BOUNDARY_SLACK, 0.3))
    @example((QUARTER_PI + qmath.BOUNDARY_SLACK, QUARTER_PI))
    @settings(max_examples=300, deadline=None)
    def test_compare(self, angles):
        status, report = run(parse_args(["compare", *_angles(*angles)]))
        assert status == 0
        assert report == _json_of(compare_with_bell(*angles))

    @given(angle_pairs(), st.sampled_from(cli.BUILTIN_MEASUREMENTS + ("file",)),
           st.integers(0, 2 ** 32 - 1),
           st.sampled_from([0.0, 5e-324, 1e300, qmath.FLAG_TOL]) | st.floats(0.0, 1e300))
    @example((0.3, 0.6), "bell", 0, 0.0)
    @example((0.6, 0.3), "optimal", 0, 5e-324)
    @example((0.3, 0.6), "computational", 0, 1e300)
    @example((5e-324, QUARTER_PI), "file", 1, 0.0)
    @example((QUARTER_PI + qmath.BOUNDARY_SLACK, 0.3), "optimal", 0, 1e300)
    @settings(max_examples=300, deadline=None)
    def test_criterion(self, tmp_path_factory, angles, measurement, seed, tol):
        if measurement == "file":
            path = tmp_path_factory.getbasetemp() / "haar-kets.txt"
            path.write_text("".join(qmath.format_matrix_text(k) for k in
                                    random_orthonormal_kets(np.random.default_rng(seed))),
                            encoding="utf-8")
            source = ["--measurement-file", str(path)]
            kets = measurement_from_text(path.read_text(encoding="utf-8"))
        else:
            source = ["--measurement", measurement]
            kets = {"bell": bell_kets, "computational": computational_kets,
                    "optimal": lambda: build_optimal_basis(*angles).kets}[measurement]()
        status, report = run(parse_args(["criterion", *_angles(*angles), *source,
                                         "--tol", repr(tol)]))
        assert status == 0
        assert report == _json_of(is_optimal(kets, *angles, tol))


def _csv_of(result):
    """csv.writer's one-row table of result.to_dict(): the CSV report each layout must give.

    The top-level scalars, then each nested dict's scalars as dotted
    columns, in report order; lists stay out, and a flag is true or false.
    """
    flat = {}
    for key, value in result.to_dict().items():
        if isinstance(value, dict):
            flat.update((f"{key}.{k}", v) for k, v in value.items() if not isinstance(v, list))
        elif not isinstance(value, list):
            flat[key] = value
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        [flat, [("true" if v else "false") if isinstance(v, bool) else v for v in flat.values()]])
    return buf.getvalue()


def _csv_report(argv):
    status, report = run(parse_args([*argv, "--format", "csv"]))
    assert status == 0
    return report


class TestCsvReports:
    """Every one-row CSV report against csv.writer on a flattening of to_dict."""

    @given(rate_inputs())
    @example((5e-324, QUARTER_PI + qmath.BOUNDARY_SLACK, 1.0, -2.0))
    @example((0.3, 0.3, -0.0, 3.0))
    @settings(max_examples=100, deadline=None)
    def test_rate(self, inputs):
        theta, eta, beta1, beta2 = inputs
        report = _csv_report(["rate", *_angles(theta, eta), "--beta1", repr(beta1),
                              "--beta2", repr(beta2)])
        assert report == _csv_of(run_protocol_analytic(*inputs))

    @given(angle_pairs(), st.integers(1, MAX_SAMPLES), st.integers(0, 2 ** 128 - 1))
    @example((0.3, 0.6), MAX_SAMPLES, 2 ** 128 - 1)
    @settings(max_examples=100, deadline=None)
    def test_simulate(self, angles, n, seed):
        report = _csv_report(["simulate", *_angles(*angles), "--n", str(n), "--seed", str(seed)])
        assert report == _csv_of(run_protocol_sampled(*angles, n, seed))

    @given(angle_pairs())
    @example((5e-324, QUARTER_PI))
    @settings(max_examples=100, deadline=None)
    def test_compare(self, angles):
        assert _csv_report(["compare", *_angles(*angles)]) == _csv_of(compare_with_bell(*angles))

    @given(angle_pairs(), st.sampled_from(cli.BUILTIN_MEASUREMENTS + ("kets", "projectors")),
           st.integers(0, 2 ** 32 - 1), st.sampled_from([0.0, 5e-324, 1e300, qmath.FLAG_TOL]))
    @example((0.3, 0.6), "kets", 0, 0.0)
    @example((0.6, 0.3), "projectors", 1, 1e300)
    @settings(max_examples=100, deadline=None)
    def test_criterion(self, tmp_path_factory, angles, measurement, seed, tol):
        if measurement in cli.BUILTIN_MEASUREMENTS:
            source = ["--measurement", measurement]
            kets = {"bell": bell_kets, "computational": computational_kets,
                    "optimal": lambda: build_optimal_basis(*angles).kets}[measurement]()
        else:
            kets = random_orthonormal_kets(np.random.default_rng(seed))
            blocks = kets if measurement == "kets" else [np.outer(k, k.conj()) for k in kets]
            path = tmp_path_factory.getbasetemp() / f"csv-{measurement}.txt"
            path.write_text("".join(map(qmath.format_matrix_text, blocks)), encoding="utf-8")
            source = ["--measurement-file", str(path)]
            kets = measurement_from_text(path.read_text(encoding="utf-8"))
        report = _csv_report(["criterion", *_angles(*angles), *source, "--tol", repr(tol)])
        assert report == _csv_of(is_optimal(kets, *angles, tol))

    @given(st.integers(1, 13), st.integers(1, 13) | st.just(0), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_bound(self, da, db, swapped):
        # db = 0 draws lists of equal length.
        a, b = schmidt_texts(da, db or da)
        if swapped:
            a, b = b, a
        config = parse_args(["bound", "--a", a, "--b", b])
        report = _csv_report(["bound", "--a", a, "--b", b])
        assert report == _csv_of(achieving_operator(config.schmidt_a, config.schmidt_b))


def _json_pairs_text(a, newline):
    """json.dumps of a's [re, im] pairs, its newlines made newline, as _pairs_text writes it."""
    return json.dumps(qmath.as_real_pairs(a), indent=2).replace("\n", newline)


class TestDumps:
    """Reports and the bulk-array helpers against json.dumps(value, indent=2)."""

    @pytest.mark.parametrize("argv", [
        ["rate", "--theta", "0.3", "--eta", "0.6"],
        ["compare", "--theta", "0.3", "--eta", "0.6"],
        ["simulate", "--theta", "0.3", "--eta", "0.6", "--n", "1000", "--seed", "1"],
        ["criterion", "--theta", "0.3", "--eta", "0.6", "--measurement", "computational"],
        ["basis", "--theta", "0.3", "--eta", "0.6", "--format", "json"],
        ["bound", "--a", "0.5,0.3,0.2", "--b", "0.6,0.4"],
        ["sweep", "--grid", "4", "--format", "json"],
        ["bound", "--a", "1", "--b", "1"],
        ["bound", "--a", "1,1e-320", "--b", "0.5,0.5"],
        ["basis", "--theta", "0.3", "--eta", "0.6", "--beta1", "0.5", "--beta2", "-1.25",
         "--format", "json"],
        ["rate", "--theta", "0.3", "--eta", "0.6", "--beta1", "-0.0", "--beta2", "2.5"],
    ])
    def test_reports_match_json_dumps_with_indent(self, argv):
        _, report = run(parse_args(argv))
        assert report == json.dumps(json.loads(report), indent=2) + "\n"

    def test_template_fills_only_its_placeholders(self):
        template = cli._template({"a%r": "%r", "b%%s": ["%s", 2, "%d"]})
        want = json.dumps({"a%r": -0.0, "b%%s": [True, 2, "%d"]}, indent=2) + "\n"
        assert template % (-0.0, "true") == want

    @given(complex_arrays())
    @example(np.array([[0.0, 1.0], [-0.0, 1.0]], dtype=complex))
    @example(np.array([[0j, 1j], [complex(0.0, -0.0), 1j]]))
    @example(np.zeros((2, 0), dtype=complex))
    @example(np.zeros((0, 3), dtype=complex))
    @example(np.zeros(3, dtype=complex))
    @settings(max_examples=200, deadline=None)
    def test_arrays_match_json_dumps_of_real_pairs(self, a):
        for newline in ("\n", "\n    "):
            assert cli._pairs_text(a, newline) == _json_pairs_text(a, newline)

    @given(st.lists(schmidt_entries, min_size=1, max_size=8),
           st.lists(schmidt_entries, min_size=1, max_size=8), st.booleans())
    @example([1.0, 1e-300], [1.0, 1e-320], False)
    @example([1.0], [1.0], False)
    @settings(max_examples=200, deadline=None)
    def test_rank_one_matches_json_dumps_of_real_pairs(self, a, b, swapped):
        # The writer relies on the structure of achieving_operator's factors,
        # so it is checked on the operators that function builds.
        a, b = (sorted((x / math.fsum(v) for x in v), reverse=True) for v in (a, b))
        result = achieving_operator(*((b, a) if swapped else (a, b)))
        for newline in ("\n", "\n  "):
            pieces = cli._rank_one_pieces(result, newline)
            assert "".join(pieces) == _json_pairs_text(result.m_i, newline)

    @pytest.mark.parametrize("swapped", [False, True])
    @pytest.mark.parametrize("dims", [(1, 1), (2, 2), (2, 3), (3, 5), (1, 4),
                                      (8, 8), (12, 12), (8, 12), (24, 24), (1, 32),
                                      ("1,1e-13", "0.5,0.3,0.2"), ("1,1e-160", "0.5,0.5"),
                                      ("1,1e-300", "0.6,0.4"), ("1,1e-300", "1,1e-300")])
    def test_bound_report_is_to_dict_written_by_json(self, dims, swapped):
        # Integer dims are lengths of seeded lists; strings are the lists.
        a, b = schmidt_texts(*dims) if isinstance(dims[0], int) else dims
        if swapped:
            a, b = b, a
        config = parse_args(["bound", "--a", a, "--b", b])
        status, report = run(config)
        assert status == 0
        want = achieving_operator(config.schmidt_a, config.schmidt_b).to_dict()
        assert report == json.dumps(want, indent=2) + "\n"

    def test_bound_report_memory(self):
        # Nested [re, im] lists for the d^2 x d^2 operator peaked near 6x the
        # report, and wrapping the joined rows in further strings near 2.4x.
        a, b = schmidt_texts(24, 24)
        config = parse_args(["bound", "--a", a, "--b", b])
        run(config)  # a first call pays one-off lazy imports
        tracemalloc.start()
        try:
            _, report = run(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * len(report)


class Sink:
    """A stdout that keeps only the size of each write."""

    def __init__(self):
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return len(text)


# Each command line, with every format it takes; MEAS stands for a file of kets.
MEAS = "MEAS"
STREAMED = [[*argv, "--format", fmt] for argv, formats in (
    (["rate", "--theta", "0.3", "--eta", "0.6", "--beta1", "0.5"], ("json", "csv")),
    (["basis", "--theta", "0.3", "--eta", "0.6"], ("text", "json")),
    (["simulate", "--theta", "0.3", "--eta", "0.6", "--n", "1000", "--seed", "1"],
     ("json", "csv")),
    (["criterion", "--theta", "0.6", "--eta", "0.3", "--measurement", "optimal"],
     ("json", "csv")),
    (["criterion", "--theta", "0.3", "--eta", "0.6", "--measurement-file", MEAS],
     ("json", "csv")),
    (["compare", "--theta", "0.3", "--eta", "0.6"], ("json", "csv")),
    (["bound", "--a", "0.5,0.3,0.2", "--b", "0.6,0.4"], ("json", "csv")),
    (["bound", "--a", schmidt_texts(24, 24)[0], "--b", schmidt_texts(24, 24)[1]],
     ("json", "csv")),
    (["sweep", "--grid", "9"], ("csv", "json")),
) for fmt in formats]
# A grid of 81 points in slices of 7 is twelve slices, the last of four points.
SMALL_SLICE = 7
# A sweep slice of repeater._TABLE_SLICE (4096) points peaks near 6.7 MB, most
# of it the kernel's temporaries.  A report made whole peaked near 2.5x its
# bytes: 23 MB for the 9.4 MB JSON report of grid 200.
SWEEP_PEAK_BYTES = 8 * 2 ** 20


def with_meas(argv, tmp_path):
    """argv with MEAS replaced by the path of a file holding a tuned basis' kets."""
    path = tmp_path / "meas.txt"
    path.write_text("".join(qmath.format_matrix_text(k)
                            for k in build_optimal_basis(0.2, 0.5).kets), encoding="utf-8")
    return [str(path) if a == MEAS else a for a in argv]


class TestStreamedReports:
    @pytest.mark.parametrize("argv", STREAMED, ids=lambda argv: " ".join(argv)[:60])
    def test_stdout_and_output_file_hold_runs_text(self, argv, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(repeater, "_TABLE_SLICE", SMALL_SLICE)
        argv = with_meas(argv, tmp_path)
        status, text = run(parse_args(argv))
        assert status == 0
        assert main(argv) == 0
        out = capsys.readouterr()
        assert (out.out, out.err) == (text, "")
        path = tmp_path / "report"
        assert main([*argv, "--output", str(path)]) == 0
        assert capsys.readouterr() == ("", "")
        assert path.read_bytes() == text.encode("utf-8")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sweep_slices_make_the_whole_report(self, fmt, monkeypatch):
        argv = ["sweep", "--grid", "9", "--format", fmt]
        _, whole = run(parse_args(argv))
        monkeypatch.setattr(repeater, "_TABLE_SLICE", SMALL_SLICE)
        sink = Sink()
        monkeypatch.setattr(sys, "stdout", sink)
        assert main(argv) == 0
        # One piece per slice and the tail.
        assert len(sink.sizes) == 12 + 1
        assert sum(sink.sizes) == len(whole)
        assert run(parse_args(argv)) == (0, whole)

    def test_bound_report_streams_in_little_memory(self, monkeypatch):
        a, b = schmidt_texts(24, 24)
        argv = ["bound", "--a", a, "--b", b]
        sink = Sink()
        monkeypatch.setattr(sys, "stdout", sink)
        assert main(argv) == 0  # a first call pays one-off lazy imports and templates
        sink.sizes.clear()
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(sink.sizes) > 13_000_000
        assert peak < sum(sink.sizes) / 10

    @pytest.mark.parametrize("grid", [100, 200])
    def test_sweep_memory_does_not_grow_with_the_grid(self, grid, monkeypatch):
        argv = ["sweep", "--grid", str(grid), "--format", "json"]
        monkeypatch.setattr(sys, "stdout", Sink())
        assert main(argv) == 0
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < SWEEP_PEAK_BYTES

    @pytest.mark.parametrize("argv", [
        ["rate", "--theta", "0.9", "--eta", "0.6"],
        ["bound", "--a", "0.5,0.5", "--b", "1,0"],
        ["criterion", "--theta", "0.3", "--eta", "0.6", "--measurement-file", "missing.txt"],
    ])
    def test_input_error_writes_nothing(self, argv, monkeypatch, tmp_path, capsys):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "report"
        assert main([*argv, "--output", str(path)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert json.loads(out.err)["error"]["command"] == argv[0]
        assert not path.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_memory_error_after_the_first_slice_exits_one(self, fmt, monkeypatch, capsys):
        argv = ["sweep", "--grid", "9", "--format", fmt]
        monkeypatch.setattr(repeater, "_TABLE_SLICE", SMALL_SLICE)
        _, whole = run(parse_args(argv))
        table, calls = repeater._rate_table, []

        def second_slice_fails(theta, eta):
            calls.append(len(theta))
            if len(calls) == 2:
                raise MemoryError("cannot allocate the second slice")
            return table(theta, eta)
        monkeypatch.setattr(repeater, "_rate_table", second_slice_fails)
        assert main(argv) == 1
        out = capsys.readouterr()
        assert calls == [SMALL_SLICE, SMALL_SLICE]
        error = json.loads(out.err)["error"]
        assert (error["type"], error["command"]) == ("MemoryError", "sweep")
        # Stdout holds the head and the first slice's rows, each whole.
        assert whole.startswith(out.out)
        if fmt == "csv":
            assert out.out == "".join(whole.splitlines(keepends=True)[:1 + SMALL_SLICE])
        else:
            assert json.loads(out.out + "\n]") == json.loads(whole)[:SMALL_SLICE]


class HashSink:
    """A stdout that keeps only the md5 of what is written to it."""

    def __init__(self):
        self.md5 = hashlib.md5()

    def write(self, text):
        self.md5.update(text.encode("utf-8"))
        return len(text)


def _bound_cases():
    """Bound command lines over every d from 1 to 32, in a seeded shuffle.

    Each d pairs a list of (d + 1) // 2 coefficients with one of d, and up
    to 16 also two lists of d.  Four more pairs end in a coefficient of
    1e-300 and one of 1e-320, which the library's products underflow.
    Every pair runs in both list orders, but a JSON report at d > 16 (10
    to 44 MB) in one.
    """
    pairs = []
    for d in range(1, MAX_BOUND_DIM + 1):
        pairs += [schmidt_texts((d + 1) // 2, d)] + [schmidt_texts(d, d)] * (d <= 16)
        if d in (3, 8, 17, MAX_BOUND_DIM - 1):
            a, b = schmidt_texts((d + 1) // 2, d)
            pairs.append((f"{a},1e-300", f"{b},1e-320"))
    cases = [[*pair[::order], fmt] for pair in pairs for order in (1, -1)
             for fmt in ("json", "csv")
             if fmt == "csv" or order == 1 or pair[1].count(",") < 16]
    random.Random(0).shuffle(cases)
    return [["bound", "--a", a, "--b", b, "--format", fmt] for a, b, fmt in cases]


class TestBoundShapes:
    """Bound reports over many shapes interleaved in one process."""

    def test_every_shape_and_route_writes_the_report_of_its_own_result(self, tmp_path,
                                                                        monkeypatch):
        cases = _bound_cases()
        # Each report with its arrays written by json.dumps, and pinned to
        # json.dumps of to_dict or to the CSV writer where that is quick
        # enough to run.
        want = {}
        with monkeypatch.context() as m:
            m.setattr(cli, "_pairs_text", _json_pairs_text)
            for argv in cases:
                config = parse_args(argv)
                md5 = hashlib.md5()
                for piece in cli._bound_report(config):
                    md5.update(piece.encode())
                want[tuple(argv)] = md5.hexdigest()
                result = achieving_operator(config.schmidt_a, config.schmidt_b)
                if config.output_format == "csv":
                    # CSV leaves the operator out; one entry of it keeps to_dict quick.
                    scalars = dataclasses.replace(result, omega=result.omega[:1], w=result.w[:1])
                    assert hashlib.md5(_csv_of(scalars).encode()).hexdigest() == md5.hexdigest()
                elif len(result.optimal_u) <= 8:
                    report = json.dumps(result.to_dict(), indent=2) + "\n"
                    assert hashlib.md5(report.encode()).hexdigest() == md5.hexdigest()
        cli._zero_pairs.cache_clear()
        path = tmp_path / "report"
        # A cold zero-text cache, then the same commands again over what it
        # kept; each command goes by run, main to stdout or main to --output
        # in turn.
        for i, argv in enumerate(cases * 2):
            route = i % 3
            if route == 0:
                status, report = run(parse_args(argv))
                assert status == 0
                got = hashlib.md5(report.encode()).hexdigest()
            elif route == 1:
                sink = HashSink()
                monkeypatch.setattr(sys, "stdout", sink)
                assert main(argv) == 0
                monkeypatch.undo()
                got = sink.md5.hexdigest()
            else:
                assert main([*argv, "--output", str(path)]) == 0
                got = hashlib.md5(path.read_bytes()).hexdigest()
            assert got == want[tuple(argv)], (route, argv)
        # The zero texts are kept by shape, two per d (optimal_u and the
        # operator's row), not by the lists they were filled from.
        assert cli._zero_pairs.cache_info().currsize == 2 * MAX_BOUND_DIM

    def test_csv_builds_no_zero_text(self):
        # CSV is filled from the three scalars alone: at the largest d it
        # neither builds nor reads a zero text.
        cli._zero_pairs.cache_clear()
        a, b = schmidt_texts(MAX_BOUND_DIM, MAX_BOUND_DIM)
        status, report = run(parse_args(["bound", "--a", a, "--b", b, "--format", "csv"]))
        assert status == 0 and report.count("\n") == 2
        assert cli._zero_pairs.cache_info().misses == 0
