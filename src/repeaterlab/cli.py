"""Command-line front end: analyze, simulate, sweep, and check measurements.

Every command prints one serialized report (JSON by default; the sweep
prints CSV, the basis command matrix text) and exits 0, or prints a
machine-readable error object to stderr and exits nonzero.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import qmath
from .bounds import achieving_operator
from .criterion import DEFAULT_FLAG_TOL, is_optimal, measurement_from_text
from .repeater import (_rate_table, bell_kets, build_optimal_basis, compare_with_bell,
                       computational_kets, run_protocol_analytic, run_protocol_sampled)

SEED_ENV_VAR = "REPEATERLAB_SEED"
BUILTIN_MEASUREMENTS = ("bell", "optimal", "computational")
SWEEP_COLUMNS = ("theta", "eta", "p_ms", "direct_success_prob",
                 "lower_bound", "upper_bound")
# The sweep holds all grid^2 points and their report in memory at once: at
# 500 points per angle a 2-core host peaks near 260 MB in ~5.5 s (CSV) or
# 315 MB in ~3 s (JSON).
MAX_GRID = 500
# The sampler's multinomial draw takes a 64-bit count.
MAX_SAMPLES = 2 ** 63 - 1
# How json quotes strings and keys by default (ensure_ascii).
_quote = json.encoder.encode_basestring_ascii


class UsageError(ValueError):
    """Bad command line; carries the parser's complaint."""


@dataclass(frozen=True)
class RunConfig:
    """One validated invocation."""

    command: str
    theta: float | None = None
    eta: float | None = None
    n_samples: int | None = None
    seed: int | None = None
    beta1: float = 0.0
    beta2: float = 0.0
    output_format: str = "json"
    output_path: str | None = None
    schmidt_a: tuple[float, ...] = field(default=())
    schmidt_b: tuple[float, ...] = field(default=())
    measurement: str | None = None
    measurement_file: str | None = None
    tolerance: float = DEFAULT_FLAG_TOL
    grid: int = 20


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:
        raise UsageError(message)


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    value = _finite(text)
    if value < 0.0:
        raise argparse.ArgumentTypeError(f"tolerance must be nonnegative, got {text!r}")
    return value


def _schmidt_list(text: str) -> tuple[float, ...]:
    values = tuple(_finite(tok) for tok in text.split(","))
    total = sum(values)
    if abs(total - 1.0) > 1e-9:
        raise argparse.ArgumentTypeError(f"coefficients must sum to 1, got {total!r}")
    return tuple(sorted((v / total for v in values), reverse=True))


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="repeaterlab",
                     description="Entanglement swapping with a tuned middle-station basis")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_angles(p: argparse.ArgumentParser) -> None:
        p.add_argument("--theta", type=_finite, required=True,
                       help="Schmidt angle of the Alice-Clare pair")
        p.add_argument("--eta", type=_finite, required=True,
                       help="Schmidt angle of the Clare-Bob pair")
        p.add_argument("--degrees", action="store_true",
                       help="interpret angles as degrees instead of radians")

    def add_phases(p: argparse.ArgumentParser) -> None:
        p.add_argument("--beta1", type=_finite, default=0.0,
                       help="free phase of the first direct-success ket")
        p.add_argument("--beta2", type=_finite, default=0.0,
                       help="free phase of the second direct-success ket")

    def add_output(p: argparse.ArgumentParser, formats: tuple[str, ...],
                   default: str) -> None:
        p.add_argument("--format", dest="output_format", choices=formats,
                       default=default, help=f"report format (default {default})")
        p.add_argument("--output", dest="output_path", default=None,
                       help="write the report to this path instead of stdout")

    p = sub.add_parser("rate", help="exact success rate and per-outcome breakdown")
    add_angles(p)
    add_phases(p)
    add_output(p, ("json", "csv"), "json")

    p = sub.add_parser("basis", help="emit Clare's tuned four-ket basis")
    add_angles(p)
    add_phases(p)
    add_output(p, ("text", "json"), "text")

    p = sub.add_parser("simulate", help="Monte-Carlo estimate of the success rate")
    add_angles(p)
    add_phases(p)
    p.add_argument("--n", dest="n_samples", type=int, required=True,
                   help=f"number of protocol runs to sample, 1 to {MAX_SAMPLES}")
    p.add_argument("--seed", type=int, default=None,
                   help=f"random seed (falls back to ${SEED_ENV_VAR})")
    add_output(p, ("json", "csv"), "json")

    p = sub.add_parser("criterion", help="test a middle-station measurement for optimality")
    add_angles(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--measurement", choices=BUILTIN_MEASUREMENTS,
                       help="one of the built-in bases")
    group.add_argument("--measurement-file", dest="measurement_file",
                       help="matrix text file with four dim-4 kets or 4x4 projectors")
    p.add_argument("--tol", dest="tolerance", type=_tolerance, default=DEFAULT_FLAG_TOL,
                   help="tolerance for the optimality flag")
    add_output(p, ("json", "csv"), "json")

    p = sub.add_parser("bound", help="general-dimension success ceiling and reaching operator")
    p.add_argument("--a", dest="schmidt_a", type=_schmidt_list, required=True,
                   help="comma-separated Schmidt coefficients of the first pair")
    p.add_argument("--b", dest="schmidt_b", type=_schmidt_list, required=True,
                   help="comma-separated Schmidt coefficients of the second pair")
    add_output(p, ("json", "csv"), "json")

    p = sub.add_parser("sweep", help="rate and bounds over an angle grid")
    p.add_argument("--grid", type=int, default=20,
                   help=f"grid points per angle over (0, pi/4], 1 to {MAX_GRID} (default 20)")
    add_output(p, ("csv", "json"), "csv")

    p = sub.add_parser("compare", help="tuned basis versus Bell basis, rates and LOCC cost")
    add_angles(p)
    add_output(p, ("json", "csv"), "json")

    return parser


def parse_args(argv: list[str]) -> RunConfig:
    """Validate a command line into a RunConfig; raises UsageError on bad input."""
    ns = _build_parser().parse_args(argv)
    kwargs = {"command": ns.command,
              "output_format": ns.output_format,
              "output_path": ns.output_path}
    if hasattr(ns, "theta"):
        scale = np.pi / 180.0 if ns.degrees else 1.0
        kwargs["theta"] = ns.theta * scale
        kwargs["eta"] = ns.eta * scale
    for name in ("beta1", "beta2", "n_samples", "seed", "schmidt_a", "schmidt_b",
                 "measurement", "measurement_file", "tolerance", "grid"):
        if hasattr(ns, name):
            kwargs[name] = getattr(ns, name)
    if ns.command == "simulate":
        if not 1 <= kwargs["n_samples"] <= MAX_SAMPLES:
            raise UsageError(f"--n must lie in [1, {MAX_SAMPLES}], got {kwargs['n_samples']}")
        if kwargs["seed"] is None:
            env = os.environ.get(SEED_ENV_VAR)
            if env is not None:
                try:
                    kwargs["seed"] = int(env)
                except ValueError:
                    raise UsageError(f"${SEED_ENV_VAR} must be an integer, got {env!r}")
        if kwargs["seed"] is not None and kwargs["seed"] < 0:
            raise UsageError(f"the seed must be nonnegative, got {kwargs['seed']}")
    if ns.command == "sweep" and not 1 <= kwargs["grid"] <= MAX_GRID:
        raise UsageError(f"--grid must lie in [1, {MAX_GRID}], got {kwargs['grid']}")
    return RunConfig(**kwargs)


def _flat_csv(record: dict) -> str:
    """Scalar fields of a report as a one-row CSV table."""
    flat = {k: v for k, v in record.items()
            if isinstance(v, (int, float, bool, str)) or v is None}
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(flat), lineterminator="\n")
    writer.writeheader()
    writer.writerow({k: _csv_cell(v) for k, v in flat.items()})
    return buf.getvalue()


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def _dumps(value, newline: str = "\n") -> str:
    """Exactly json.dumps(value, indent=2), with float blocks written in bulk.

    An indent puts json on its pure-Python encoder, at about a microsecond
    per float, which made a bound report's d^2 x d^2 operator cost seconds.
    Dicts and lists are walked here so a block (see `_block`) is found at
    any depth.  Common scalars are written as json writes them (repr for
    finite floats and ints, ASCII-escaped strings); anything else goes to
    json.dumps.  `newline` carries the current indentation.
    """
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int or (kind is float and math.isfinite(value)):
        return repr(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, dict) and value and all(type(k) is str for k in value):
        inner = newline + "  "
        items = (_quote(k) + ": " + _dumps(v, inner) for k, v in value.items())
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, list) and value:
        block = _block(value, newline)
        if block is not None:
            return block
        inner = newline + "  "
        return "[" + inner + ("," + inner).join(_dumps(v, inner) for v in value) + newline + "]"
    if isinstance(value, (dict, list, tuple)):
        # Empty, a tuple, or keyed by non-strings.  JSON strings hold no raw
        # newline, so re-indenting the lines is exact.
        return json.dumps(value, indent=2).replace("\n", newline)
    return json.dumps(value)


def _block(value: list, newline: str) -> str | None:
    """A nonempty list as json.dumps(value, indent=2) writes it, or None if not a block.

    A block is a rectangular nested list of finite floats, or a list of
    dicts that share one key order and hold only finite floats (the sweep
    rows).  It is written by filling a template built from its shape with
    one `template % leaves` (%r is float.__repr__, which json writes too).
    """
    shape = [len(value)]
    level = value
    if type(value[0]) is dict:
        keys = tuple(value[0])
        if (not keys or set(map(type, value)) != {dict} or not all(type(k) is str for k in keys)
                or not all(map(keys.__eq__, map(tuple, value)))):
            return None
        row = newline + "    "
        item = ("{" + row + ("," + row).join(_quote(k).replace("%", "%%") + ": %r"
                                            for k in keys) + newline + "  }")
        level = itertools.chain.from_iterable(map(dict.values, value))
    else:
        item = "%r"
        while type(level[0]) is list:
            if set(map(type, level)) != {list} or set(map(len, level)) != {len(level[0])}:
                return None
            shape.append(len(level[0]))
            level = list(itertools.chain.from_iterable(level))
            if not level:
                return None
    leaves = tuple(level)
    if set(map(type, leaves)) != {float}:
        return None
    if not math.isfinite(sum(leaves)) and not all(map(math.isfinite, leaves)):
        return None
    for depth in reversed(range(len(shape))):
        outer = newline + "  " * depth
        inner = outer + "  "
        item = "[" + inner + ("," + inner).join([item] * shape[depth]) + outer + "]"
    return item % leaves


def _sweep_rows(grid: int) -> list[dict]:
    """Every (theta, eta) pair of the grid, row-major in theta, in one kernel call.

    The grid angle i * step can round an ulp above pi/4; rows carry and are
    computed with the snapped angle, as the scalar functions are.
    """
    angles = np.minimum(np.arange(1, grid + 1) * ((np.pi / 4.0) / grid), np.pi / 4)
    theta, eta = np.repeat(angles, grid), np.tile(angles, grid)
    columns = (theta, eta) + _rate_table(theta, eta)
    return [dict(zip(SWEEP_COLUMNS, row)) for row in zip(*(c.tolist() for c in columns))]


def _sweep_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(SWEEP_COLUMNS), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _csv_cell(row[k]) for k in SWEEP_COLUMNS})
    return buf.getvalue()


def _criterion_measurement(config: RunConfig):
    if config.measurement == "bell":
        return bell_kets()
    if config.measurement == "optimal":
        return build_optimal_basis(config.theta, config.eta).kets
    if config.measurement == "computational":
        return computational_kets()
    with open(config.measurement_file, encoding="utf-8") as fh:
        return measurement_from_text(fh.read())


def _basis_text(config: RunConfig) -> str:
    basis = build_optimal_basis(config.theta, config.eta, config.beta1, config.beta2)
    return "\n".join(qmath.format_matrix_text(k) for k in basis.kets) + "\n"


def _basis_json(config: RunConfig) -> dict:
    basis = build_optimal_basis(config.theta, config.eta, config.beta1, config.beta2)
    return {
        "theta": basis.theta,
        "eta": basis.eta,
        "beta1": basis.beta1,
        "beta2": basis.beta2,
        "kets": [qmath.as_real_pairs(k) for k in basis.kets],
    }


def run(config: RunConfig) -> tuple[int, str]:
    """Execute one config; returns (exit status, serialized report)."""
    try:
        if config.command == "rate":
            record = run_protocol_analytic(config.theta, config.eta,
                                           config.beta1, config.beta2).to_dict()
        elif config.command == "basis":
            if config.output_format == "text":
                return 0, _basis_text(config)
            record = _basis_json(config)
        elif config.command == "simulate":
            record = run_protocol_sampled(config.theta, config.eta, config.n_samples,
                                          config.seed, config.beta1, config.beta2).to_dict()
        elif config.command == "criterion":
            meas = _criterion_measurement(config)
            record = is_optimal(meas, config.theta, config.eta, config.tolerance).to_dict()
        elif config.command == "bound":
            record = achieving_operator(config.schmidt_a, config.schmidt_b).to_dict()
        elif config.command == "sweep":
            rows = _sweep_rows(config.grid)
            if config.output_format == "csv":
                return 0, _sweep_csv(rows)
            return 0, _dumps(rows) + "\n"
        elif config.command == "compare":
            record = compare_with_bell(config.theta, config.eta).to_dict()
        else:
            raise UsageError(f"unknown command {config.command!r}")
    except (ValueError, OSError, MemoryError) as exc:
        error = {"error": {"type": type(exc).__name__, "message": str(exc),
                           "command": config.command}}
        return 1, json.dumps(error) + "\n"
    if config.output_format == "csv":
        return 0, _flat_csv(record)
    return 0, _dumps(record) + "\n"


def main(argv: list[str] | None = None) -> int:
    """Console entry point."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        config = parse_args(argv)
    except UsageError as exc:
        sys.stderr.write(json.dumps(
            {"error": {"type": "UsageError", "message": str(exc)}}) + "\n")
        return 2
    status, report = run(config)
    if status != 0:
        sys.stderr.write(report)
        return status
    if config.output_path is not None:
        try:
            with open(config.output_path, "w", encoding="utf-8") as fh:
                fh.write(report)
        except OSError as exc:
            sys.stderr.write(json.dumps(
                {"error": {"type": type(exc).__name__, "message": str(exc)}}) + "\n")
            return 1
    else:
        sys.stdout.write(report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
