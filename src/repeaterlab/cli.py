"""Command-line front end: analyze, simulate, sweep, and check measurements.

Every command prints one serialized report (JSON by default; the sweep
prints CSV, the basis command matrix text) and exits 0, or prints a
machine-readable error object to stderr and exits nonzero.  A report is
written in pieces as they are made: `bound` its operator row by row,
`sweep` one slice of grid points at a time.  Every JSON or
CSV report is one layout, built once from a skeleton of the report, filled
from one tuple of cells (`_layout`); the error object is one json.dumps line.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import re
import sys
from typing import Callable, ContextManager, Iterator

import numpy as np

from . import qmath
from .bounds import BoundResult, achieving_operator
from .criterion import _verdict, measurement_from_text
from .repeater import (MAX_SAMPLES, _checked_angles, _fields, _grid_angles, _grid_table,
                       _tuned_outcomes, bell_kets, build_optimal_basis, compare_with_bell,
                       computational_kets, run_protocol_sampled)

SEED_ENV_VAR = "REPEATERLAB_SEED"
BUILTIN_MEASUREMENTS = ("bell", "optimal", "computational")
# The sweep computes and writes one slice of grid points at a time, so its
# memory does not grow with the grid, but its time does, as grid^2: at 500
# points per angle a fresh process on a 2-core host peaks near 37 MB RSS
# and takes ~1.5-2 s for either format (30 MB of CSV, 59 MB of JSON), most
# of it spent writing the 1M rate and bound floats with repr.
MAX_GRID = 500
# A bound report writes a d^2 x d^2 operator, so its size and the time to
# write it grow as d^4 (the library keeps the operator as rank-one factors,
# and the report is written a row at a time: json's text of a zero row,
# made once per d, and one nonzero row, formatted once and placed at d
# indices): at 32 coefficients a
# fresh process on a 2-core host takes ~0.2-0.36 s, ~35-75 ms of it in
# `main`, peaks near 35 MB RSS and writes a 44 MB report.
MAX_BOUND_DIM = 32
# argparse's pattern for a negative number, plus an exponent and a trailing
# dot: without them "--beta1 -1e-5" reads -1e-5 as an option (repr writes
# small phases so), and "--beta1 -5." as well, though float() takes both.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


class UsageError(ValueError):
    """Bad command line; carries the parser's complaint."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Command parsers are made with this class too.
        self._negative_number_matcher = _NEGATIVE_NUMBER

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
    tokens = text.split(",")
    if len(tokens) > MAX_BOUND_DIM:
        raise argparse.ArgumentTypeError(
            f"at most {MAX_BOUND_DIM} coefficients, got {len(tokens)}")
    try:
        values = tuple(map(float, tokens))
        finite = all(map(math.isfinite, values))
    except ValueError:
        finite = False
    if not finite:
        for tok in tokens:
            _finite(tok)  # the first bad token raises, with its own message
    total = sum(values)
    if abs(total - 1.0) > qmath.TEXT_SUM_ATOL:
        raise argparse.ArgumentTypeError(f"coefficients must sum to 1, got {total!r}")
    return tuple(sorted((v / total for v in values), reverse=True))


@functools.cache
def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The top-level parser and each command's own parser, by command name."""
    parser = _Parser(prog="repeaterlab",
                     description="Entanglement swapping with a tuned middle-station basis")
    sub = parser.add_subparsers(dest="command", required=True)
    commands: dict[str, _Parser] = {}

    def add_command(name: str, summary: str) -> _Parser:
        commands[name] = sub.add_parser(name, help=summary)
        return commands[name]

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

    p = add_command("rate", "exact success rate and per-outcome breakdown")
    add_angles(p)
    add_phases(p)
    add_output(p, ("json", "csv"), "json")

    p = add_command("basis", "emit Clare's tuned four-ket basis")
    add_angles(p)
    add_phases(p)
    add_output(p, ("text", "json"), "text")

    p = add_command("simulate", "Monte-Carlo estimate of the success rate")
    add_angles(p)
    p.add_argument("--n", dest="n_samples", type=int, required=True,
                   help=f"number of protocol runs to sample, 1 to {MAX_SAMPLES}")
    p.add_argument("--seed", type=int, default=None,
                   help=f"random seed (falls back to ${SEED_ENV_VAR})")
    add_output(p, ("json", "csv"), "json")

    p = add_command("criterion", "test a middle-station measurement for optimality")
    add_angles(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--measurement", choices=BUILTIN_MEASUREMENTS,
                       help="one of the built-in bases")
    group.add_argument("--measurement-file", dest="measurement_file",
                       help="matrix text file with four dim-4 kets or 4x4 projectors")
    p.add_argument("--tol", dest="tolerance", type=_tolerance, default=qmath.FLAG_TOL,
                   help="tolerance for the optimality flag")
    add_output(p, ("json", "csv"), "json")

    p = add_command("bound", "general-dimension success ceiling and reaching operator")
    p.add_argument("--a", dest="schmidt_a", type=_schmidt_list, required=True,
                   help="comma-separated Schmidt coefficients of the first pair "
                        f"(at most {MAX_BOUND_DIM})")
    p.add_argument("--b", dest="schmidt_b", type=_schmidt_list, required=True,
                   help="comma-separated Schmidt coefficients of the second pair "
                        f"(at most {MAX_BOUND_DIM})")
    add_output(p, ("json", "csv"), "json")

    p = add_command("sweep", "rate and bounds over an angle grid")
    p.add_argument("--grid", type=int, default=20,
                   help=f"grid points per angle over (0, pi/4], 1 to {MAX_GRID} (default 20)")
    add_output(p, ("csv", "json"), "csv")

    p = add_command("compare", "tuned basis versus Bell basis, rates and LOCC cost")
    add_angles(p)
    add_output(p, ("json", "csv"), "json")

    return parser, commands


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Validate a command line into argparse's namespace; raises UsageError on bad input.

    The namespace holds each option under its dest, angles in radians.  A
    command line that starts with a command name goes straight to that
    command's parser, which is what the top-level parser would hand it to;
    any other goes through the top-level parser.
    """
    parser, commands = _build_parser()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return _checked(parser.parse_args(argv))
    ns = command.parse_args(argv[1:])
    ns.command = argv[0]
    return _checked(ns)


def _checked(ns: argparse.Namespace) -> argparse.Namespace:
    """A parsed command line after the checks argparse cannot make.

    --degrees is taken off the namespace, its angles scaled to radians.
    """
    if vars(ns).pop("degrees", False):
        ns.theta *= np.pi / 180.0
        ns.eta *= np.pi / 180.0
    if ns.command == "simulate":
        if not 1 <= ns.n_samples <= MAX_SAMPLES:
            raise UsageError(f"--n must lie in [1, {MAX_SAMPLES}], got {ns.n_samples}")
        if ns.seed is None:
            env = os.environ.get(SEED_ENV_VAR)
            if env is not None:
                try:
                    ns.seed = int(env)
                except ValueError:
                    raise UsageError(f"${SEED_ENV_VAR} must be an integer, got {env!r}")
        if ns.seed is not None and ns.seed < 0:
            raise UsageError(f"the seed must be nonnegative, got {ns.seed}")
    if ns.command == "sweep" and not 1 <= ns.grid <= MAX_GRID:
        raise UsageError(f"--grid must lie in [1, {MAX_GRID}], got {ns.grid}")
    return ns


def _template(skeleton) -> str:
    """json.dumps(skeleton, indent=2) and a newline, its "%r" and "%s" leaves made `%` fields.

    Any other % in the text is escaped, so one `template % values` writes
    the values in the order json lists their leaves.
    """
    text = json.dumps(skeleton, indent=2).replace("%", "%%") + "\n"
    return text.replace('"%%r"', "%r").replace('"%%s"', "%s")


def _layout(skeleton: dict) -> dict[str, str]:
    """A report's JSON and CSV templates, by format, built once from a skeleton of the report.

    The skeleton is the report with its leaves left as fields: "%r" for a
    float or an int, "%s" for a flag (filled with "true" or "false") or a
    cell written beforehand; any other leaf is a constant.  The JSON
    template is `_template(skeleton)`.  The CSV template is a header line
    and one row, as csv.writer writes them: the top-level scalars, then the
    scalars of each nested dict as dotted columns ("ledger.bob_action_prob"),
    in report order, a constant written as json writes it.  Each field
    inside a list is a `%.0s` field of the row, which takes its cell and
    writes nothing, so one `%` from the same tuple of cells fills either
    template.  Every cell is finite or an int (each command's cells say
    why), and %r writes both as json does; no cell needs quoting in CSV.
    """
    columns, row, sep = [], "", ""
    for key, value in skeleton.items():
        leaves = ([(f"{key}.{k}", v) for k, v in value.items()] if isinstance(value, dict)
                  else [(key, value)])
        for name, leaf in leaves:
            if isinstance(leaf, list):
                row += "%.0s" * len(re.findall('"%[rs]"', json.dumps(leaf)))
            else:
                columns.append(name)
                cell = leaf if leaf in ("%r", "%s") else json.dumps(leaf).replace("%", "%%")
                row, sep = row + sep + cell, ","
    return {"json": _template(skeleton),
            "csv": ",".join(columns).replace("%", "%%") + "\n" + row + "\n"}


@functools.cache
def _zero_pairs(shape: tuple[int, ...], newline: str) -> tuple[str, np.ndarray]:
    """json's text of a zero array of this shape in [re, im] pairs, and where its floats start.

    The text is json.dumps(np.zeros(shape + (2,)).tolist(), indent=2) with
    each newline made `newline`; it holds nothing but brackets, commas,
    whitespace and "0.0", so each "0.0" is a float, in the order of the
    array's interleaved (re, im) floats.  Kept per shape and indent; the
    bound report uses two per d.
    """
    zero = json.dumps(np.zeros(shape + (2,)).tolist(), indent=2).replace("\n", newline)
    return zero, np.array([m.start() for m in re.finditer(r"0\.0", zero)])


def _pairs_text(a: np.ndarray, newline: str) -> str:
    """json.dumps(qmath.as_real_pairs(a), indent=2), its newlines made `newline`, for a finite a.

    Only a's nonzero floats are formatted.  The zero text of a's shape
    holds "0.0", which is repr(0.0) and so json's text of 0.0, for each
    float; a float whose bits are not all zero, -0.0 among them, is written
    by repr, as json writes it, in that float's place.  The work beyond
    copying the text grows with the nonzero floats: a permutation and a
    bound operator's row hold one nonzero entry per d pairs.
    """
    zero, starts = _zero_pairs(a.shape, newline)
    floats = a.view(np.float64).ravel()
    nonzero = floats.view(np.uint64).nonzero()[0]
    pieces, end = [], 0
    for start, x in zip(starts[nonzero].tolist(), floats[nonzero].tolist()):
        pieces += (zero[end:start], repr(x))
        end = start + 3
    pieces.append(zero[end:])
    return "".join(pieces)


def _rank_one_pieces(result: BoundResult, newline: str) -> list[str]:
    """_pairs_text of result.m_i in pieces, without the matrix.

    Joined, the pieces are json.dumps(qmath.as_real_pairs(result.m_i),
    indent=2), its newlines made `newline`.  By the structure BoundResult
    states, the rows at np.flatnonzero(result.optimal_u) are the one row
    scale * (omega[k] * w), computed as the outer product computes it and
    formatted once, and every other row is json's zero row of its shape.
    Each row and its separator is one piece, and the pieces of equal rows
    are one string.
    """
    inner = newline + "  "
    sep = "," + inner
    rows = np.flatnonzero(result.optimal_u).tolist()
    pieces = [_zero_pairs(result.w.shape, inner)[0] + sep] * result.w.size
    row = _pairs_text(result.scale * (result.omega[rows[0]] * result.w), inner) + sep
    for k in rows:
        pieces[k] = row
    pieces[-1] = pieces[-1][:-len(sep)] + newline + "]"
    return ["[" + inner, *pieces]


# The bound report's scalars, in BoundResult.to_dict order.
_BOUND_SCALARS = ("p_max", "achieved_p", "post_fidelity")
# The bound report's layout, its lists left empty: optimal_u and the
# operator m_i stay out of CSV, and the JSON report writes each where its []
# stands.
_BOUND = _layout({**dict.fromkeys(_BOUND_SCALARS, "%r"), "optimal_u": [], "m_i": []})
_BOUND_HEAD, _BOUND_MID, _BOUND_TAIL = _BOUND["json"].split("[]")


def _bound_report(config: argparse.Namespace) -> Iterator[str]:
    """The bound report's pieces, its JSON operator written from its factors.

    The scalars are finite (a ceiling of d over a positive sum, and closed
    forms of finite vectors), and so is optimal_u, a permutation.  Of
    optimal_u and the operator only the nonzero floats are formatted (see
    `_pairs_text`).  The JSON report is its head, the operator's pieces and
    its tail, so its tens of MB are never one string.
    """
    result = achieving_operator(config.schmidt_a, config.schmidt_b)
    scalars = tuple(getattr(result, k) for k in _BOUND_SCALARS)
    if config.output_format == "csv":
        yield _BOUND["csv"] % scalars
        return
    yield _BOUND_HEAD % scalars + _pairs_text(result.optimal_u, "\n  ") + _BOUND_MID
    yield from _rank_one_pieces(result, "\n  ")
    yield _BOUND_TAIL


# A sweep row's layout.  The angles arrive as text, formatted once per grid
# angle, and the rest are floats written with repr; every cell is finite for
# angles in (0, pi/4].
_SWEEP = _layout({"theta": "%s", "eta": "%s", "p_ms": "%r", "direct_success_prob": "%r",
                  "lower_bound": "%r", "upper_bound": "%r"})
# Each sweep report as a head, a row, a separator and a tail: the CSV
# header and one row per grid point, or json.dumps(rows, indent=2) of a list
# of one object per row.
_SWEEP_ROWS = {"csv": (*_SWEEP["csv"].splitlines(keepends=True), "", ""),
               "json": ("[\n  ", _SWEEP["json"][:-1].replace("\n", "\n  "), ",\n  ", "\n]\n")}


def _sweep_report(grid: int, output_format: str) -> Iterator[str]:
    """The sweep report's pieces: one `%` per slice of `_grid_table`, its rows joined by sep.

    The head leads the first slice's piece and sep each later one's; the
    tail comes last.  The theta and eta cells are the repr of the grid's
    angles, each formatted once.
    """
    lead, row, sep, tail = _SWEEP_ROWS[output_format]
    cells = np.array([repr(a) for a in _grid_angles(grid).tolist()], dtype=object)
    for i, k, *table in _grid_table(grid):
        rows = zip(cells[i].tolist(), cells[k].tolist(), *(c.tolist() for c in table))
        yield (lead + sep.join([row] * len(i))) % tuple(itertools.chain.from_iterable(rows))
        lead = sep
    yield tail


# The rate report of AnalyticResult.to_dict; the outcome numbers and the bit
# count are fixed.
_RATE = _layout({"theta": "%r",
                 "eta": "%r",
                 "p_ms": "%r",
                 "per_outcome": [{"outcome": index,
                                  "clare_prob": "%r",
                                  "maximal": "%s",
                                  "bob_success_prob": "%r",
                                  "success_prob": "%r",
                                  "post_state": [["%r", "%r"]] * 4}
                                 for index in range(1, 5)],
                 "ledger": {"classical_bits_sent": 2,
                            "local_measurements_expected": "%r",
                            "bob_action_prob": "%r"}})


def _rate_cells(config: argparse.Namespace) -> tuple:
    """The rate report's cells, from the kernel's arrays; all finite for checked angles.

    A post state's (re, im) pairs are its interleaved view.
    """
    theta, eta, out = _tuned_outcomes(config.theta, config.eta, config.beta1, config.beta2)
    fields = _fields(out)
    cells = [theta, eta, fields.p_ms]
    for p, maximal, q, success, post in zip(fields.clare_prob, fields.maximal,
                                            fields.bob_success_prob, fields.success_prob,
                                            out.post_state.view(np.float64).tolist()):
        cells += (p, "true" if maximal else "false", q, success, *post)
    cells += (1.0 + fields.bob_action_prob, fields.bob_action_prob)
    return tuple(cells)


def _criterion_measurement(config: argparse.Namespace) -> np.ndarray:
    """The measurement's kets as the rows of a (4, 4) array, checked to be orthonormal at most once.

    The built-in bases are orthonormal as built and go unchecked; a file's
    kets are checked where the file is read.
    """
    if config.measurement == "bell":
        return bell_kets()
    if config.measurement == "optimal":
        return build_optimal_basis(config.theta, config.eta).kets
    if config.measurement == "computational":
        return computational_kets()
    with open(config.measurement_file, encoding="utf-8") as fh:
        return measurement_from_text(fh.read())


_BASIS = _layout({"theta": "%r", "eta": "%r", "beta1": "%r", "beta2": "%r",
                  "kets": np.full((4, 4, 2), "%r").tolist()})


def _basis_report(config: argparse.Namespace) -> str:
    """The kets as matrix text, or the JSON report of the angles, phases and [re, im] pairs."""
    basis = build_optimal_basis(config.theta, config.eta, config.beta1, config.beta2)
    if config.output_format == "text":
        return "\n".join(qmath.format_matrix_text(k) for k in basis.kets) + "\n"
    return _BASIS["json"] % (basis.theta, basis.eta, basis.beta1, basis.beta2,
                             *basis.kets.view(np.float64).ravel().tolist())


# The simulate report of SampledResult.to_dict.
_SIMULATE = _layout({"theta": "%r",
                     "eta": "%r",
                     "n": "%r",
                     "seed": "%r",
                     "estimate": "%r",
                     "stderr": "%r",
                     "ledger_stats": {"classical_bits_mean": "%r",
                                      "local_measurements_mean": "%r",
                                      "bob_acted_freq": "%r",
                                      "outcome_counts": ["%r"] * 4}})


def _simulate_cells(config: argparse.Namespace) -> tuple:
    """The simulate report's cells, from its record's fields.

    The seed, n and the counts are ints, and the rest are finite floats at
    checked angles.
    """
    result = run_protocol_sampled(config.theta, config.eta, config.n_samples, config.seed)
    stats = result.ledger_stats
    return (result.theta, result.eta, result.n, result.seed, result.estimate, result.stderr,
            stats["classical_bits_mean"], stats["local_measurements_mean"],
            stats["bob_acted_freq"], *stats["outcome_counts"])


# The compare report of ComparisonRecord.to_dict.
_BRANCH_SKELETON = {"p_ms": "%r", "bob_action_prob": "%r",
                    "expected_local_measurements": "%r", "classical_bits_sent": "%r"}
_COMPARE = _layout({"theta": "%r", "eta": "%r", "optimal": _BRANCH_SKELETON,
                    "bell": _BRANCH_SKELETON, "rates_equal": "%s"})


def _compare_cells(config: argparse.Namespace) -> tuple:
    """The compare report's cells, from its record; its rates are finite at checked angles."""
    record = compare_with_bell(config.theta, config.eta)
    cells = [record.theta, record.eta]
    for branch in (record.optimal, record.bell):
        cells += (branch.p_ms, branch.bob_action_prob, branch.expected_local_measurements,
                  branch.classical_bits_sent)
    cells.append("true" if record.rates_equal else "false")
    return tuple(cells)


# The criterion report of CriterionReport.to_dict.
_CRITERION = _layout({"lhs": "%r", "rhs": "%r", "p_s": "%r", "optimal": "%s",
                      "tolerance": "%r"})


def _criterion_cells(config: argparse.Namespace) -> tuple:
    """The criterion report's cells, from its record's fields.

    The tolerance is finite, by `_tolerance`, and so are the sums of finite
    kets at checked angles.
    """
    # The angles are checked before a file is read, so a bad angle is the error reported.
    theta, eta = _checked_angles(config.theta, config.eta)
    report = _verdict(_criterion_measurement(config), theta, eta, config.tolerance)
    return (report.lhs, report.rhs, report.p_s, "true" if report.optimal else "false",
            report.tolerance)


# Each record command's layout and the function of its config that gives its cells.
_RECORDS = {"rate": (_RATE, _rate_cells), "simulate": (_SIMULATE, _simulate_cells),
            "criterion": (_CRITERION, _criterion_cells), "compare": (_COMPARE, _compare_cells)}


def _error(exc: Exception, **context) -> str:
    """The JSON error object of exc, a line: its type, its message, then the context keys."""
    return json.dumps({"error": {"type": type(exc).__name__, "message": str(exc), **context}}) + "\n"


def _report(config: argparse.Namespace) -> Iterator[str]:
    """The command's report as text pieces, in order.

    Every input error is raised before the first piece: each command
    computes its report, or its first slice of rows, before it yields.
    """
    fmt = config.output_format
    if config.command == "sweep":
        yield from _sweep_report(config.grid, fmt)
    elif config.command == "bound":
        yield from _bound_report(config)
    elif config.command == "basis":
        yield _basis_report(config)
    else:
        layout, cells_of = _RECORDS[config.command]
        yield layout[fmt] % cells_of(config)


def _emit(config: argparse.Namespace,
          open_write: Callable[[], ContextManager[Callable[[str], object]]]) -> str | None:
    """Writes the report's pieces in order; returns the JSON error of a failure, or None.

    open_write is entered only once the first piece is made, so an input
    error writes nothing and opens nothing.  A failure after that, making a
    later piece or writing one, leaves what was written.
    """
    pieces = _report(config)
    try:
        first = next(pieces)
        with open_write() as write:
            write(first)
            del first
            for piece in pieces:
                write(piece)
                del piece  # each piece is dropped before the next is made
    except (ValueError, OSError, MemoryError) as exc:
        return _error(exc, command=config.command)
    return None


def run(config: argparse.Namespace) -> tuple[int, str]:
    """Execute one parse_args namespace; returns (exit status, serialized report)."""
    pieces: list[str] = []
    error = _emit(config, lambda: contextlib.nullcontext(pieces.append))
    return (0, "".join(pieces)) if error is None else (1, error)


@contextlib.contextmanager
def _open_output(path: str | None) -> Iterator[Callable[[str], object]]:
    """The write of stdout, or of the --output file, created here.

    The process's own stdout is flushed before the context closes, so a
    failed write raises here; after one, it is pointed at os.devnull, so
    the interpreter's flush at exit does not fail again.  A stdout an
    in-process caller substituted is left to that caller.
    """
    if path is None:
        out = sys.stdout
        own = out is sys.__stdout__
        try:
            yield out.write
            if own:
                out.flush()
        except OSError:
            if own:
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, out.fileno())
                os.close(devnull)
            raise
        return
    with open(path, "w", encoding="utf-8") as fh:
        yield fh.write


def main(argv: list[str] | None = None) -> int:
    """Console entry point: writes the report's pieces to stdout or --output as they come.

    An input error leaves stdout empty and creates no file.  A failure after
    the first piece leaves what was written.  Either exits 1 with the JSON
    error on stderr.
    """
    if argv is None:
        argv = sys.argv[1:]
    try:
        config = parse_args(argv)
    except UsageError as exc:
        sys.stderr.write(_error(exc))
        return 2
    error = _emit(config, functools.partial(_open_output, config.output_path))
    if error is not None:
        sys.stderr.write(error)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
