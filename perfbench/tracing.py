"""In-memory spans around covlab's public functions, recorded from outside.

The tracer replaces names in the module namespaces where the harness and
the command line look them up (``covlab.harness.experiment.tally_groups``,
``covlab.cli.ingest_microdata`` ...) with timing wrappers, and puts the
originals back when it is closed.  Nothing in the package is edited, so the
same tracer keeps working while the package is refactored: a hooked name
that no longer exists is reported as absent instead of failing the run.

Every span has a parent and a trace id.  The trace id is the span id of the
nearest enclosing operation span (one replicate, or one microdata world),
so all work done for one operation shares it.  Self time is a span's
duration minus the part of it that its children cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import math
import threading
import time
from dataclasses import dataclass, field

# Where each function is looked up at call time.  The experiment module
# resolves the stage functions from its own globals; the command line
# imports its own references.
HOOKS: dict[str, tuple[str, ...]] = {
    "covlab.harness.experiment": (
        "build_world",
        "synthesize_population",
        "simulate_census",
        "simulate_pes",
        "draw_sample",
        "match_and_code",
        "tally_groups",
        "ground_truth_ledger",
        "mover_ratio",
        "fcode_estimate",
        "run_replicate",
        "summarize",
        "write_replicates_csv",
        "write_summary_json",
        "write_summary_text",
    ),
    "covlab.cli": (
        "build_world",
        "write_microdata",
        "ingest_microdata",
        "ground_truth_ledger",
        "mover_ratio",
        "fcode_estimate",
    ),
}

# Spans that start a new trace id: one Monte Carlo replicate or one
# microdata world.
OPERATION_SPANS = ("run_replicate", "bench.world")

ESTIMATOR_SPANS = ("mover_ratio", "fcode_estimate")


def _count_persons(pop) -> dict[str, float]:
    return {"persons": float(pop.size)}


def _count_households(sample) -> dict[str, float]:
    return {"households_drawn": float(len(sample.households))}


def _count_coded(result) -> dict[str, float]:
    from covlab.matching import CODE_NONE

    arrays = (result.pes_code, result.cen_code, result.orphan_code, result.dup_code,
              result.fab_code)
    return {"coded_records": float(sum(int((a != CODE_NONE).sum()) for a in arrays))}


def _count_estimate(value) -> dict[str, float]:
    return {"nan": 0.0 if math.isfinite(value) else 1.0}


# Counts taken from a hooked call's return value.  They run inside a child
# span named "trace.count", so their cost is billed to tracing, not to the
# layer that made the call.
COUNTERS = {
    "synthesize_population": _count_persons,
    "draw_sample": _count_households,
    "match_and_code": _count_coded,
    "mover_ratio": _count_estimate,
    "fcode_estimate": _count_estimate,
}


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    trace: int
    start: float
    end: float = math.nan
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; use as a context manager to install the hooks."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.absent: set[str] = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[Span] = self._stack()
        self._installed: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        # A pool thread starts with an empty stack; its work belongs to
        # whatever the main thread is waiting in.
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        sid = next(self._ids)
        if name in OPERATION_SPANS or parent is None:
            trace = sid
        else:
            trace = parent.trace
        span = Span(sid, name, parent.sid if parent else None, trace, time.perf_counter())
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def _wrap(self, name: str, fn):
        tracer = self
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(span)
                if name in ESTIMATOR_SPANS:
                    span.counts["nan"] = 1.0
                raise
            if counter is not None:
                count_span = tracer.open("trace.count")
                try:
                    span.counts.update(counter(result))
                except (AttributeError, TypeError):
                    span.counts["unreadable"] = 1.0
                tracer.close(count_span)
            tracer.close(span)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for module_name, names in HOOKS.items():
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.update(f"{module_name}.{name}" for name in names)
                continue
            for name in names:
                original = getattr(module, name, None)
                if not callable(original):
                    self.absent.add(f"{module_name}.{name}")
                    continue
                setattr(module, name, self._wrap(name, original))
                self._installed.append((module, name, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, name, original in reversed(self._installed):
            setattr(module, name, original)
        self._installed.clear()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.sid, ()), key=lambda s: s.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.sid] = span.duration - covered
    return out
