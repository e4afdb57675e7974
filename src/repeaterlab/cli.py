"""Command-line front end: analyze, simulate, sweep, and check measurements.

Every command prints one serialized report (JSON by default; the sweep
prints CSV, the basis command matrix text) and exits 0, or prints a
machine-readable error object to stderr and exits nonzero.  A report is
written in pieces: `bound` its operator row by row, from two row texts
made first, `sweep` one slice of grid points at a time.  Every JSON or
CSV report is one layout, built once from a skeleton of the report, filled
from one tuple of cells (`_layout`); the error object is one json.dumps line.
`rate`, `basis`, `simulate`, `compare` and `criterion` each report a
library record: its skeleton and its cells are both walked from its
dataclass fields, and its type's layout is built on first use
(`_record_report`).  Only `bound` and `sweep` lay out their reports by hand.

A canonical command line (each option by its full string, with a value
its type takes) is read straight from its command's argparse
actions; argparse reads every other, so its messages and help text are
its own.  The options are declared once, in `_build_parser`.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import itertools
import json
import math
import operator
import os
import re
import sys
from typing import Callable, ContextManager, Iterable, Iterator

import numpy as np

from . import qmath
from .bounds import BoundResult, achieving_operator
from .criterion import CriterionReport, _verdict, measurement_from_text
from .repeater import (MAX_SAMPLES, _checked_angles, _grid_angles, _grid_table, bell_kets,
                       build_optimal_basis, compare_with_bell, computational_kets,
                       run_protocol_analytic, run_protocol_sampled)

SEED_ENV_VAR = "REPEATERLAB_SEED"
# The built-in bases of `criterion --measurement`, each one's kets at checked angles.
BUILTIN_MEASUREMENTS: dict[str, Callable[[float, float], np.ndarray]] = {
    "bell": lambda theta, eta: bell_kets(),
    "optimal": lambda theta, eta: build_optimal_basis(theta, eta).kets,
    "computational": lambda theta, eta: computational_kets(),
}
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
# fresh process on a 2-core host takes ~0.18-0.3 s, ~30-55 ms of it in
# `main`, peaks near 30 MB RSS and writes a 44 MB report.
MAX_BOUND_DIM = 32
# argparse's pattern for a negative number, plus an exponent, a trailing
# dot and a comma tail: without them "--beta1 -1e-5" reads -1e-5 as an
# option (repr writes small phases so), "--beta1 -5." as well, though
# float() takes both, and "--a -0.5,1.5" a Schmidt list led by a negative.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?(,.*)?$")


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
    group.add_argument("--measurement", choices=tuple(BUILTIN_MEASUREMENTS),
                       help="one of the built-in bases")
    group.add_argument("--measurement-file", dest="measurement_file",
                       help="matrix text file with four dim-4 kets or 4x4 projectors")
    p.add_argument("--tol", dest="tolerance", type=_tolerance, default=qmath.FLAG_TOL,
                   help="tolerance of the optimality flag on the rate's relative shortfall "
                        "(0: optimal up to rounding)")
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
    command line that starts with a command name is read against that
    command's parser, which is what the top-level parser would hand it to:
    a canonical one straight from the parser's actions (`_canonical`), any
    other by argparse.  A line that starts with anything else goes through
    the top-level parser.
    """
    parser, commands = _build_parser()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return _checked(parser.parse_args(argv))
    ns = _canonical(command, argv[1:]) or command.parse_args(argv[1:])
    ns.command = argv[0]
    return _checked(ns)


def _canonical(command: _Parser, args: list[str]) -> argparse.Namespace | None:
    """The namespace argparse makes of args, or None where argparse must read them.

    Read here: each option by one of its full strings, with one value
    (--degrees with none) that is not led by "-" unless it is a negative
    number, and that the option's type and choices take; every required
    option and one of each exclusive group given.  A repeated option keeps
    its last value, as in argparse.  Any other line (-h, "=", an
    abbreviation, "--", a bad or missing value or option) is None, so
    argparse writes each message and help text.
    """
    ns = argparse.Namespace(**{a.dest: a.default for a in command._actions
                               if a.default is not argparse.SUPPRESS})
    seen = set()
    tokens = iter(args)
    for token in tokens:
        action = command._option_string_actions.get(token)
        seen.add(action)
        if isinstance(action, argparse._StoreConstAction):
            setattr(ns, action.dest, action.const)
            continue
        value = next(tokens, "-")  # a missing value reads as "-", which argparse reads
        if (not isinstance(action, argparse._StoreAction)
                or value.startswith("-") and not _NEGATIVE_NUMBER.match(value)):
            return None
        if action.type is not None:
            try:
                value = action.type(value)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
        if action.choices is not None and value not in action.choices:
            return None
        setattr(ns, action.dest, value)
    if any(a.required and a not in seen for a in command._actions):
        return None
    for group in command._mutually_exclusive_groups:
        given = len(seen.intersection(group._group_actions))
        if given > 1 or group.required and not given:
            return None
    return ns


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

    The skeleton is the report with each leaf left as a field: "%r" for a
    float or an int, "%s" for a flag (filled with "true" or "false") or a
    cell written beforehand.  The JSON template is `_template(skeleton)`.
    The CSV template is a header line and one row, as csv.writer writes
    them: the top-level scalars, then the scalars of each nested dict as
    dotted columns ("ledger.bob_action_prob"), in report order.  Each field
    inside a list is a `%.0s` field of the row, which takes its cell and
    writes nothing, so one `%` from the same tuple of cells fills either
    template.  Every cell is finite or an int: a record's are made from
    checked angles, finite kets and a `_tolerance`, the sweep's and bound's
    as their comments say; %r writes both as json does, and no cell needs
    quoting in CSV.
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
                row, sep = row + sep + leaf, ","
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
    rows = result.optimal_u.ravel().nonzero()[0].tolist()
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


def _bound_report(config: argparse.Namespace) -> list[str]:
    """The bound report's pieces, its JSON operator written from its factors.

    The scalars are finite (a ceiling of d over a positive sum, and closed
    forms of finite vectors), and so is optimal_u, a permutation.  Of
    optimal_u and the operator only the nonzero floats are formatted (see
    `_pairs_text`).  The JSON report is one list: its head, one piece per
    operator row, each one of two row texts, and its tail, so its tens of
    MB are never one string.
    """
    result = achieving_operator(config.schmidt_a, config.schmidt_b)
    scalars = tuple(getattr(result, k) for k in _BOUND_SCALARS)
    if config.output_format == "csv":
        return [_BOUND["csv"] % scalars]
    head = _BOUND_HEAD % scalars + _pairs_text(result.optimal_u, "\n  ") + _BOUND_MID
    pieces = _rank_one_pieces(result, "\n  ")
    pieces[0] = head + pieces[0]  # the operator's "[" and first row's indent
    return [*pieces, _BOUND_TAIL]


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


def _skeleton(value):
    """The skeleton of a record's report, its fields walked in declaration order, as to_dict.

    A flag is "%s", an int or a float "%r" and a complex array nested
    [re, im] lists of "%r"; a record or a dict is a dict of its fields'
    skeletons, and a list or a tuple a list.  Leaves are told by their
    exact type, as in `_cells`, so a numpy scalar is no leaf and raises.
    """
    kind = type(value)
    if kind is bool or kind is int or kind is float:
        return "%s" if kind is bool else "%r"
    if kind is np.ndarray:
        return np.full(value.shape + (2,), "%r").tolist()
    if kind is list or kind is tuple:
        return [_skeleton(v) for v in value]
    if kind is dict:
        return {k: _skeleton(v) for k, v in value.items()}
    return {f.name: _skeleton(getattr(value, f.name)) for f in dataclasses.fields(value)}


@functools.cache
def _field_values(record_type: type) -> Callable[[object], tuple]:
    """The getter of a record's field values, in declaration order (each has two or more)."""
    return operator.attrgetter(*(f.name for f in dataclasses.fields(record_type)))


def _cells(value, cells: list) -> list:
    """cells with the cells of a record, dict, list or tuple appended, in its skeleton's order.

    A flag is "true" or "false", an int or a float itself, and a complex
    array its interleaved (re, im) floats.
    """
    kind = type(value)
    if kind is dict:
        value = value.values()
    elif kind is not list and kind is not tuple:
        value = _field_values(kind)(value)
    for v in value:
        kind = type(v)
        if kind is float or kind is int:
            cells.append(v)
        elif kind is bool:
            cells.append("true" if v else "false")
        elif kind is np.ndarray:
            cells += v.view(np.float64).ravel().tolist()
        else:
            _cells(v, cells)
    return cells


# Each record type's layout, from its first record: a type fixes its shapes and lengths.
_RECORD_LAYOUTS: dict[type, dict[str, str]] = {}


def _record_report(record, output_format: str) -> str:
    """The report of a record: its type's layout, filled with its cells."""
    layout = _RECORD_LAYOUTS.get(type(record))
    if layout is None:
        layout = _RECORD_LAYOUTS[type(record)] = _layout(_skeleton(record))
    return layout[output_format] % tuple(_cells(record, []))


def _criterion_record(config: argparse.Namespace) -> CriterionReport:
    """The verdict on the measurement, its kets checked to be orthonormal at most once."""
    # The angles are checked before a file is read, so a bad angle is the error reported.
    theta, eta = _checked_angles(config.theta, config.eta)
    if config.measurement is not None:
        kets = BUILTIN_MEASUREMENTS[config.measurement](theta, eta)
    else:
        with open(config.measurement_file, encoding="utf-8") as fh:
            kets = measurement_from_text(fh.read())
    return _verdict(kets, theta, eta, config.tolerance)


# Each record command's record, from its config.
_RECORDS = {
    "rate": lambda c: run_protocol_analytic(c.theta, c.eta, c.beta1, c.beta2),
    "basis": lambda c: build_optimal_basis(c.theta, c.eta, c.beta1, c.beta2),
    "simulate": lambda c: run_protocol_sampled(c.theta, c.eta, c.n_samples, c.seed),
    "compare": lambda c: compare_with_bell(c.theta, c.eta),
    "criterion": _criterion_record,
}


def _error(exc: Exception, **context) -> str:
    """The JSON error object of exc, a line: its type, its message, then the context keys."""
    return json.dumps({"error": {"type": type(exc).__name__, "message": str(exc), **context}}) + "\n"


def _report(config: argparse.Namespace) -> Iterable[str]:
    """The command's report as text pieces, in order: the sweep's generator, or a list.

    Every input error is raised before the first piece: `sweep` computes
    its first slice of rows for it, every other command its whole report.
    """
    fmt = config.output_format
    if config.command == "sweep":
        return _sweep_report(config.grid, fmt)
    if config.command == "bound":
        return _bound_report(config)
    if fmt == "text":  # basis's kets as matrix text
        kets = _RECORDS["basis"](config).kets
        return ["\n".join(qmath.format_matrix_text(k) for k in kets) + "\n"]
    return [_record_report(_RECORDS[config.command](config), fmt)]


def _emit(config: argparse.Namespace,
          open_write: Callable[[], ContextManager[Callable[[str], object]]]) -> str | None:
    """Writes the report's pieces in order; returns the JSON error of a failure, or None.

    An input error, raised by `_report` or by the sweep's first slice, comes
    before open_write is entered, so it writes and opens nothing.  A later
    failure, making or writing a piece, leaves what was written.
    """
    try:
        pieces = iter(_report(config))
        first = next(pieces)
        with open_write() as write:
            write(first)
            del first
            for piece in pieces:
                write(piece)
                del piece  # a sweep slice is dropped before the next is made
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
