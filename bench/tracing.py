"""Span tracing of the repeaterlab modules, installed from outside the package.

``Tracer.install`` replaces every public function of each library module,
and the ``__init__`` of the measurement classes, with a wrapper that opens
a span on entry and closes it on exit.  The wrapper is bound in every
module namespace that holds the original, so calls through
``from .x import y`` are caught as well.  Nothing inside the package
changes; ``uninstall`` puts the originals back.

Spans nest on one stack (the CLI is single-threaded).  A span's self time
is its duration minus the durations of its direct children; the cost of
the children's wrappers stays in the parent's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import tracemalloc
from dataclasses import dataclass

MODULES = ("qmath", "states", "concentration", "repeater", "criterion", "bounds", "cli")
# Validating measurement types: their construction is a layer of its own.
TRACED_CLASSES = (("repeater", "ProjectiveMeasurement"),
                  ("concentration", "GeneralMeasurement"))
# Peak traced allocation is measured inside these spans only.
ALLOC_TRACED = ("repeater.run_protocol_sampled",)
MAX_KEPT_SPANS = 50_000


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    peak_alloc_b: int = 0


class Tracer:
    """Per-layer call counts and self times of one package, kept in memory."""

    def __init__(self, package) -> None:
        self._package = package
        self._modules = []
        for name in MODULES:
            try:
                self._modules.append(importlib.import_module(f"{package.__name__}.{name}"))
            except ModuleNotFoundError:
                continue  # a layer that no longer exists reports zero
        self._stack: list[list] = []  # [span id, start, child seconds]
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []
        self.stats: dict[str, LayerStats] = {}
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.keep_spans = False

    def _wrap(self, name: str, fn):
        measure_alloc = name in ALLOC_TRACED
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if measure_alloc:
                tracemalloc.start()
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, time.perf_counter(), 0.0]
            tracer._stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - frame[1]
                st = tracer.stats.get(name)
                if st is None:
                    st = tracer.stats[name] = LayerStats()
                st.calls += 1
                st.total_s += duration
                st.self_s += duration - frame[2]
                parent = tracer._stack[-1] if tracer._stack else None
                if parent is not None:
                    parent[2] += duration
                if tracer.keep_spans and len(tracer.spans) < MAX_KEPT_SPANS:
                    tracer.spans.append((span_id, parent[0] if parent else None,
                                         name, frame[1], end))
                if measure_alloc:
                    st.peak_alloc_b = max(st.peak_alloc_b, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()

        return wrapper

    def install(self) -> None:
        replacements = {}
        for module in self._modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    replacements[obj] = self._wrap(f"{short}.{attr}", obj)
        for holder in [self._package, *self._modules]:
            for attr, obj in list(vars(holder).items()):
                if inspect.isfunction(obj) and obj in replacements:
                    self._restore.append((holder, attr, obj))
                    setattr(holder, attr, replacements[obj])
        for short, cls_name in TRACED_CLASSES:
            cls = getattr(getattr(self._package, short, None), cls_name, None)
            init = vars(cls).get("__init__") if isinstance(cls, type) else None
            if init is None:
                continue
            self._restore.append((cls, "__init__", init))
            cls.__init__ = self._wrap(f"{short}.{cls_name}", init)

    def uninstall(self) -> None:
        for holder, attr, obj in reversed(self._restore):
            setattr(holder, attr, obj)
        self._restore = []
