"""In-memory spans recorded around calls into the psis modules.

A span is opened by wrapping a public function under the name its caller
looks it up by (for instance ``psis.cli.simulate`` and
``psis.verification.simulate`` for the same function).  Wrappers are
installed only for a traced pass and removed afterwards, so untraced passes
run the program exactly as shipped.  Spans keep the call's arguments and
result in memory, so counters can be derived after the pass ends, outside
any timed interval.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import threading
import time
from dataclasses import dataclass
from typing import Any


@dataclass
class Span:
    span_id: int
    name: str
    parent: int | None
    run_id: str
    start: float
    end: float = 0.0
    args: tuple = ()
    result: Any = None

    def to_json(self) -> dict:
        return {
            "id": self.span_id,
            "name": self.name,
            "parent": self.parent,
            "run_id": self.run_id,
            "start": self.start,
            "end": self.end,
        }


# (module, attribute looked up by callers, span name).  The span name is
# "<layer>.<call>", where the layer is the psis module that owns the function.
WRAPPED = (
    ("psis.cli", "main", "cli.main"),
    ("psis.cli", "load_config", "experiment.load_config"),
    ("psis.cli", "synthesize", "synthesis.synthesize"),
    ("psis.synthesis", "synthesize", "synthesis.synthesize"),
    ("psis.cli", "describe", "synthesis.describe"),
    ("psis.symdiff", "compile_expr", "symdiff.compile"),
    ("psis.cli", "simulate", "simulation.simulate"),
    ("psis.simulation", "simulate", "simulation.simulate"),
    ("psis.verification", "simulate", "simulation.simulate"),
    ("psis.cli", "settling_instant", "verification.settling"),
    ("psis.verification", "settling_instant", "verification.settling"),
    ("psis.cli", "lyapunov_audit", "verification.lyapunov"),
    ("psis.verification", "lyapunov_audit", "verification.lyapunov"),
    ("psis.cli", "control_vanishing_check", "verification.vanishing"),
    ("psis.verification", "control_vanishing_check", "verification.vanishing"),
    ("psis.cli", "sweep_initial_conditions", "verification.sweep"),
    ("psis.verification", "sweep_initial_conditions", "verification.sweep"),
    ("psis.output", "write_csv", "output.csv"),
    ("psis.output", "write_svg", "output.svg"),
    ("psis.output", "write_report", "output.report"),
)


class Tracer:
    """Collects spans from every thread; a span opened on a worker thread
    with no open span of its own is parented to the innermost span open on
    the thread that installed the tracer (the sweep's pool threads)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run_id = ""
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.get_ident()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args: tuple, kwargs: dict):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        with self._lock:
            span = Span(next(self._ids), name, parent, self.run_id,
                        time.perf_counter(), args=args)
            self.spans.append(span)
        stack.append(span.span_id)
        try:
            span.result = fn(*args, **kwargs)
            return span.result
        finally:
            span.end = time.perf_counter()
            stack.pop()

    @contextlib.contextmanager
    def installed(self, run_id: str):
        """Wrap every function in WRAPPED for the duration of the block."""
        self.run_id = run_id
        saved = []
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self._wrapper(name, original))
        try:
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return traced

    def of_run(self, run_id: str) -> list[Span]:
        return [s for s in self.spans if s.run_id == run_id]


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover.

    Children on concurrent threads may overlap each other; their union is
    subtracted once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        clipped = [(max(lo, s.start), min(hi, s.end))
                   for lo, hi in children.get(s.span_id, ())]
        clipped = [(lo, hi) for lo, hi in clipped if hi > lo]
        out[s.span_id] = (s.end - s.start) - _covered(clipped)
    return out
