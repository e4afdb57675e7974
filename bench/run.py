"""Closed-loop benchmark of the repeaterlab command-line interface.

Run from the repository root, with no install step:

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

One client in this process issues CLI commands back to back through
``repeaterlab.cli.main``, captures each report and checks it (see
``workloads.py``).  Each command's wall time is rescaled to a reference
machine speed read from a fixed loop timed around it (see ``speed.py``).
With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics from a traced run (see ``tracing.py``).  A fuller
record, with provenance and, when traced, the spans of one round, goes
to ``bench/out/``.  See ``bench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP threads before numpy loads; setup probes inherit this.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib.util
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import speed
from tracing import LayerStats, Tracer
from workloads import WORKLOADS, CheckFailed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
ORACLES = ROOT / "tests" / "oracles.py"
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 7
# Reference loops timed right before and right after each set-up probe.
PROBE_LOOPS = 5
# Enough that at least ten commands fall beyond the p90.
MIN_TIMED_COMMANDS = 200
PROBE_TIMEOUT_S = 60

# Fresh interpreter: import the package, run one command, report when it ended.
PROBE = """
import contextlib, io, sys, time
sys.path.insert(0, "src")
from repeaterlab import cli
with contextlib.redirect_stdout(io.StringIO()):
    status = cli.main(sys.argv[1:])
print(status, repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
"""

# Fresh interpreter with numpy already loaded: how long the package takes to
# import, the part of set-up that is repeaterlab's own.
IMPORT_PROBE = """
import sys, time
import numpy
sys.path.insert(0, "src")
start = time.perf_counter()
import repeaterlab.cli
print(repr(time.perf_counter() - start))
"""
IMPORT_PROBES = 5

SELF_MS_LAYERS = (
    "cli.parse_args", "cli.run",
    "states.make_joint", "states.is_max_entangled", "states.max_entangled",
    "qmath.project_out", "qmath.schmidt", "qmath.partial_trace",
    "qmath.parse_matrix_blocks", "qmath.as_real_pairs",
    "concentration.p_e", "concentration.apply_measurement",
    "repeater.build_optimal_basis", "repeater.run_protocol_with_kets",
    "repeater.projection_bounds", "repeater.direct_success_prob",
    "repeater.run_protocol_sampled", "repeater.ProjectiveMeasurement",
    "criterion.criterion_lhs", "criterion.achieved_rate",
    "criterion.measurement_from_text",
    "bounds.p_max", "bounds.achieving_operator",
)
CALLS_LAYERS = ("qmath.project_out", "qmath.schmidt", "repeater.bob_filter",
                "states.make_joint")


def _parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=tuple(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="length of the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def _load_oracles():
    spec = importlib.util.spec_from_file_location("oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Client:
    """Issues commands through the CLI entry point and checks their reports."""

    def __init__(self, cli) -> None:
        self._cli = cli
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures: list[str] = []

    def execute(self, op, after_run=lambda: None) -> tuple[float, float, int]:
        """Run one command and check its report.

        `after_run` is called as soon as the command returns, before the
        check.  Returns (start, wall seconds, report bytes).
        """
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                # Looked up per call so the tracer's wrapper is used when installed.
                status = self._cli.main(op.argv)
        except Exception as exc:  # a traceback is a failed command, not a stop
            status, err = 1, io.StringIO(f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
        after_run()
        report = out.getvalue()
        self.attempted += 1
        problem = None
        if status != 0:
            problem = f"exit {status}: {err.getvalue().strip()[:300]}"
        else:
            try:
                op.check(report)
            except CheckFailed as exc:
                self.wrong += 1
                problem = f"wrong output: {exc}"
            except (KeyError, ValueError, TypeError, IndexError) as exc:
                self.wrong += 1
                problem = f"malformed report: {type(exc).__name__}: {exc}"
        if problem is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{' '.join(op.argv)[:200]} -> {problem}")
        return start, elapsed, len(report)


class Phase:
    """Timings of the commands run in one timed phase.

    The reference loop runs before the first command of a round and after
    every command; each command's wall time is rescaled to the reference
    speed by the loop times around it (see ``speed.py``).
    """

    def __init__(self) -> None:
        # (round, start, wall, index of the speed sample taken right before)
        self.commands: list[tuple[int, float, float, int]] = []
        self.samples: list[tuple[float, float]] = []  # (time, loop seconds)
        self.units = 0
        self.report_bytes = 0
        self.rounds = 0

    def _sample_speed(self) -> None:
        self.samples.append((time.perf_counter(), speed.loop_seconds()))

    def run_round(self, client: Client, ops) -> None:
        self._sample_speed()
        for op in ops:
            before = len(self.samples) - 1
            start, wall, size = client.execute(op, self._sample_speed)
            self.commands.append((self.rounds, start, wall, before))
            self.units += op.units
            self.report_bytes += size
        self.rounds += 1

    def run(self, client: Client, next_round, seconds: float, on_round) -> None:
        """Run whole rounds until `seconds` of wall time have passed."""
        start = time.perf_counter()
        while (len(self.commands) < MIN_TIMED_COMMANDS
               or time.perf_counter() - start < seconds):
            self.run_round(client, next_round())
            on_round(time.perf_counter() - start)

    def times(self) -> list[float]:
        """Each command's wall time, rescaled to the reference speed."""
        return speed.rescale([command[1:] for command in self.commands], self.samples)

    def ops_per_s(self) -> float:
        return self.units / sum(self.times())


def probe_setup(argv: list[str]) -> float:
    """Time from launching a fresh interpreter to the end of one command.

    Rescaled to the reference speed like the commands.  The command's own
    exit status is not judged here: the timed phase runs and checks the
    same command.
    """
    loops = [speed.loop_seconds() for _ in range(PROBE_LOOPS)]
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], cwd=ROOT,
                          capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    fields = proc.stdout.split()
    if proc.returncode != 0 or len(fields) != 2:
        raise RuntimeError(f"setup probe failed (exit {proc.returncode}): "
                           f"{proc.stderr.strip()[-500:]}")
    loops += [speed.loop_seconds() for _ in range(PROBE_LOOPS)]
    return speed.rescale_one(float(fields[1]) - start, loops)


def probe_import() -> float:
    """Seconds to import repeaterlab.cli in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                          capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"import probe failed (exit {proc.returncode}): "
                           f"{proc.stderr.strip()[-500:]}")
    return float(proc.stdout.split()[-1])


def end_to_end_metrics(phase: Phase, setup_s: float) -> dict:
    times = phase.times()
    times_ms = [t * 1e3 for t in times]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (phase.units / sum(times), "ops/s"),
        "cmd_p50_ms": (statistics.median(times_ms), "ms"),
        "cmd_p90_ms": (statistics.quantiles(times_ms, n=10)[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer_metrics(tracer: Tracer, traced: Phase, untraced: Phase,
                      import_s: float) -> dict:
    units = traced.units
    empty = LayerStats()
    metrics = {"import.repeaterlab_ms": (import_s * 1e3, "ms")}
    for layer in SELF_MS_LAYERS:
        st = tracer.stats.get(layer, empty)
        metrics[f"{layer}.self_ms"] = (st.self_s * 1e3 / units, "ms/op")
    for layer in CALLS_LAYERS:
        st = tracer.stats.get(layer, empty)
        metrics[f"{layer}.calls_per_op"] = (st.calls / units, "calls/op")
    metrics["cli.report_bytes"] = (traced.report_bytes / units, "B/op")
    sampled = tracer.stats.get("repeater.run_protocol_sampled", empty)
    metrics["repeater.run_protocol_sampled.peak_alloc_mb"] = (
        sampled.peak_alloc_b / 2**20, "MB")
    plain, slowed = untraced.ops_per_s(), traced.ops_per_s()
    metrics["trace.untraced_ops_per_s"] = (plain, "ops/s")
    metrics["trace.traced_ops_per_s"] = (slowed, "ops/s")
    metrics["trace.overhead_pct"] = (100.0 * (plain - slowed) / plain, "%")
    return metrics


def layer_table(tracer: Tracer) -> dict:
    return {name: {"calls": st.calls, "total_ms": st.total_s * 1e3,
                   "self_ms": st.self_s * 1e3}
            for name, st in sorted(tracer.stats.items())}


def provenance(package) -> dict:
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "repeaterlab": getattr(package, "__version__", "unknown"),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "platform": platform.platform(),
    }


def main(argv: list[str]) -> int:
    args = _parse_args(argv)
    if not (SRC / "repeaterlab" / "cli.py").is_file() or not ORACLES.is_file():
        sys.stderr.write(f"run from a repeaterlab checkout: need {SRC / 'repeaterlab'} "
                         f"and {ORACLES}\n")
        return 2
    sys.path.insert(0, str(SRC))
    import repeaterlab
    from repeaterlab import cli

    oracles = _load_oracles()
    make_round = WORKLOADS[args.workload]
    rng = np.random.default_rng(args.seed)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    client = Client(cli)
    record: dict = {"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace}
    try:
        first = make_round(rng, workdir, oracles)
        # Warm-up round: checked and counted, not timed.
        for op in first:
            client.execute(op)
        next_round = lambda: make_round(rng, workdir, oracles)  # noqa: E731
        if args.trace:
            # Traced and untraced rounds alternate, so a drift in machine
            # speed does not show up as tracing overhead.
            untraced, traced = Phase(), Phase()
            tracer = Tracer(repeaterlab)
            tracer.keep_spans = True
            start = time.perf_counter()
            while traced.rounds == 0 or time.perf_counter() - start < args.seconds:
                untraced.run_round(client, next_round())
                tracer.install()
                try:
                    traced.run_round(client, next_round())
                finally:
                    tracer.uninstall()
                tracer.keep_spans = False
            import_probes = [probe_import() for _ in range(IMPORT_PROBES)]
            metrics = per_layer_metrics(tracer, traced, untraced,
                                        statistics.median(import_probes))
            record["import_probes_s"] = import_probes
            record["rounds"] = {"untraced": untraced.rounds, "traced": traced.rounds}
            record["layers"] = layer_table(tracer)
            record["spans"] = [{"id": i, "parent": parent, "name": name,
                                "start": t0, "end": t1}
                               for i, parent, name, t0, t1 in tracer.spans]
        else:
            # Set-up probes are spread over the phase, so their median sees
            # the same machine conditions as the commands.
            probes: list[float] = []

            def probe_when_due(elapsed: float) -> None:
                due = len(probes) * args.seconds / SETUP_PROBES
                if len(probes) < SETUP_PROBES and elapsed >= due:
                    probes.append(probe_setup(first[0].argv))

            timed = Phase()
            timed.run(client, next_round, args.seconds, probe_when_due)
            while len(probes) < SETUP_PROBES:
                probes.append(probe_setup(first[0].argv))
            metrics = end_to_end_metrics(timed, statistics.median(probes))
            record["setup_probes_s"] = probes
            # (round, start, wall, sample before, rescaled) per command;
            # (time, loop) per speed sample.
            record["commands"] = [(*command, time_s) for command, time_s
                                  in zip(timed.commands, timed.times())]
            record["speed_samples"] = timed.samples
            record["rounds"] = timed.rounds
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": client.wrong == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record.update(result=result, failures=client.failures,
                  provenance=provenance(repeaterlab))
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for failure in client.failures:
        sys.stderr.write(f"FAILED {failure}\n")
    for name, (value, unit) in metrics.items():
        print(f"{name:52s} {value:14.6g} {unit}")
    print(f"attempted {client.attempted}, failed {client.failed}; details in "
          f"{out_file.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
