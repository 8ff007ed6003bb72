"""Outside-in tracing: spans recorded from the benchmark's side.

A span has a name, start, end, parent, root and query id. Spans stay in
memory until the run ends. The benchmark opens spans around its own calls
into the package, and ``Traced`` proxies open one around every public
method call on an encoder or backend object that the package is handed.
Proxy spans are named ``<layer>:<method>``, so a method added later, such
as a batch call, is still timed and counted.

A span's self time is its duration minus the durations of its direct
children. Over one root span the self times of all its spans add up to the
root's duration; the root's own self time is the part of the operation no
layer covers.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass


@dataclass
class Span:
    span_id: int
    name: str
    parent: int | None
    root: int
    query_id: str | None
    start: float
    end: float = float("nan")

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans. A span opened on a thread with no open span of its
    own becomes a child of the current root, so calls made from worker
    threads are still attributed to the operation that caused them."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: Span | None = None

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, query_id: str | None = None):
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        if parent is None:
            raise RuntimeError(f"span {name!r} opened outside any root span")
        with self._lock:
            span = Span(
                next(self._ids),
                name,
                parent.span_id,
                parent.root,
                query_id if query_id is not None else parent.query_id,
                0.0,
            )
            self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    @contextlib.contextmanager
    def root(self, name: str, query_id: str | None = None):
        """A top-level span: one set-up or one operation."""
        if self._root is not None:
            raise RuntimeError("root spans do not nest")
        with self._lock:
            span_id = next(self._ids)
            span = Span(span_id, name, None, span_id, query_id, 0.0)
            self.spans.append(span)
        self._root = span
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._root = None

    def roots(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.parent is None and s.name == name]

    def self_times(self) -> dict[int, dict[str, float]]:
        """Per root id: span name -> summed self time of spans of that name."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.duration
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for s in self.spans:
            out[s.root][s.name] += s.duration - child_time[s.span_id]
        return out

    def nesting_errors(self) -> list[str]:
        """Spans that are unclosed or lie outside their parent's interval."""
        by_id = {s.span_id: s for s in self.spans}
        errors = []
        for s in self.spans:
            if not s.end >= s.start:
                errors.append(f"span {s.name} #{s.span_id} is not closed")
            elif s.parent is not None:
                p = by_id[s.parent]
                if s.start < p.start or s.end > p.end:
                    errors.append(f"span {s.name} #{s.span_id} lies outside parent {p.name}")
        return errors

    def records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


class NullTracer:
    """Tracing off: spans cost one method call and record nothing."""

    enabled = False

    def span(self, name: str, query_id: str | None = None):
        return contextlib.nullcontext()

    root = span


class Traced:
    """Forward every attribute of ``target``; time each call to one of its
    public methods as a span named ``<layer>:<method>``.

    The query id of the span is taken from the first argument's
    ``query_key`` when it has one (a prompt).
    """

    def __init__(self, target, layer: str, tracer: Tracer):
        self._target = target
        self._layer = layer
        self._tracer = tracer

    def __getattr__(self, name: str):
        value = getattr(self._target, name)
        if name.startswith("_") or not callable(value):
            return value
        span_name = f"{self._layer}:{name}"
        tracer = self._tracer

        def call(*args, **kwargs):
            query_id = getattr(args[0], "query_key", None) if args else None
            with tracer.span(span_name, query_id):
                return value(*args, **kwargs)

        return call
