"""Span-based tracing with monotonic timings and nesting.

A :class:`Tracer` records *spans* — named, timed sections of work — as they
complete.  Spans nest: a span opened while another is active records that
span as its parent, so the collected list reconstructs the call tree of an
instrumented run.  Timings come from ``time.perf_counter`` (monotonic, not
wall-clock), expressed relative to the tracer's creation so a trace is
self-contained.  Open a span with ``with tracer.span("engine.evaluate",
roles=3): ...``.

Tracers only *observe*: they never touch random state and attach no
behavior to the traced code, which is what lets the determinism tests
demand bit-identical results with tracing on and off.  Most code should not
hold a tracer directly but go through :mod:`repro.obs.runtime`, whose
module-level helpers collapse to no-ops when no session is active.

Alongside in-process spans this module carries the one *ambient* request
context of the program: a :class:`TraceContext` is a
W3C-``traceparent``-shaped ``(trace_id, span_id, parent_span_id)`` triple
assigned per HTTP request by :mod:`repro.serve.app` (or per campaign job
by :mod:`repro.serve.jobs`, with its ``job_id``), plus that request's
latency ledger.  :func:`trace_scope` installs it as a :mod:`contextvars`
scope, so it follows ``await`` chains and ``asyncio.to_thread`` hops: the
cache and micro-batcher attribute latency segments to it, and
:meth:`repro.obs.telemetry.TelemetryBus.emit` stamps its ids onto every
event emitted inside it.  Process-pool workers never see it.  Ids come
from ``os.urandom`` — never from the seeded simulation generators — so
installing or dropping a context cannot perturb results.
"""

from __future__ import annotations

import contextlib
import os
import time
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

__all__ = [
    "Span",
    "TraceContext",
    "Tracer",
    "current_trace",
    "new_span_id",
    "new_trace_id",
    "trace_scope",
]


def new_trace_id() -> str:
    """A fresh 128-bit trace id (32 hex chars), from ``os.urandom``."""
    return os.urandom(16).hex()


def new_span_id() -> str:
    """A fresh 64-bit span id (16 hex chars), from ``os.urandom``."""
    return os.urandom(8).hex()


@dataclass(frozen=True)
class TraceContext:
    """One position in a distributed trace (W3C trace-context shaped).

    The ids are fixed; the latency ledger (``segments``, ``annotations``)
    fills in while the request runs and takes no part in equality.

    Attributes:
        trace_id: 32-hex-char id shared by every span of one request.
        span_id: 16-hex-char id of the current span.
        parent_span_id: the span this one was forked from, or ``None``
            at the root (the HTTP request itself).
        job_id: the campaign job this span executes, or ``None``.
        segments: seconds of wall time attributed per named segment.
        annotations: small JSON-serializable facts (cache owner, batch
            size) embedded in the response's ``trace`` section.
    """

    trace_id: str
    span_id: str
    parent_span_id: str | None = None
    job_id: str | None = None
    segments: dict[str, float] = field(
        default_factory=dict, compare=False, repr=False
    )
    annotations: dict[str, Any] = field(
        default_factory=dict, compare=False, repr=False
    )

    @classmethod
    def new(cls, job_id: str | None = None) -> "TraceContext":
        """A fresh root context (new trace id, new span id, no parent)."""
        return cls(
            trace_id=new_trace_id(), span_id=new_span_id(), job_id=job_id
        )

    def child(self, job_id: str | None = None) -> "TraceContext":
        """A child context: same trace, new span, parented to this one."""
        return TraceContext(
            trace_id=self.trace_id,
            span_id=new_span_id(),
            parent_span_id=self.span_id,
            job_id=job_id,
        )

    @property
    def traceparent(self) -> str:
        """The W3C ``traceparent`` header value for this context."""
        return f"00-{self.trace_id}-{self.span_id}-01"

    @classmethod
    def from_traceparent(cls, header: str | None) -> "TraceContext | None":
        """Parse a ``traceparent`` header; ``None`` when absent/malformed.

        A parsed header yields a *child* of the caller's span (their span
        id becomes ``parent_span_id``), which is how an upstream trace
        continues through this service.
        """
        if not header:
            return None
        parts = header.strip().split("-")
        if len(parts) < 4:
            return None
        _, trace_id, span_id = parts[0], parts[1], parts[2]
        if len(trace_id) != 32 or len(span_id) != 16:
            return None
        try:
            int(trace_id, 16), int(span_id, 16)
        except ValueError:
            return None
        return cls(
            trace_id=trace_id.lower(),
            span_id=new_span_id(),
            parent_span_id=span_id.lower(),
        )

    def stamp(self) -> dict[str, str]:
        """The fields stamped onto telemetry events emitted in scope."""
        fields = {"trace_id": self.trace_id, "span_id": self.span_id}
        if self.job_id is not None:
            fields["job_id"] = self.job_id
        return fields

    def add_segment(self, name: str, seconds: float) -> None:
        """Attribute ``seconds`` of this request's wall time to ``name``."""
        if seconds > 0.0:
            self.segments[name] = self.segments.get(name, 0.0) + seconds

    def annotate(self, **fields: Any) -> None:
        """Attach small JSON-serializable facts to the ``trace`` payload."""
        self.annotations.update(fields)

    def finalize(self, total_seconds: float) -> dict[str, float]:
        """Close the books: add the ``other`` residual and return segments.

        The residual is clamped at zero, so double-counted segments (a
        bug) show up as segments summing to *more* than the wall latency —
        the property the loadtest's coverage check enforces from outside.
        """
        named = sum(self.segments.values())
        self.add_segment("other", total_seconds - named)
        return dict(self.segments)

    def payload(self) -> dict[str, Any]:
        """The ``trace`` section embedded in query responses."""
        record: dict[str, Any] = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "segments": {
                name: round(seconds, 9)
                for name, seconds in sorted(self.segments.items())
            },
        }
        if self.parent_span_id:
            record["parent_span_id"] = self.parent_span_id
        record.update(self.annotations)
        return record


_CURRENT_TRACE: ContextVar[TraceContext | None] = ContextVar(
    "repro_trace_context", default=None
)


def current_trace() -> TraceContext | None:
    """The installed :class:`TraceContext`, or ``None`` outside any scope."""
    return _CURRENT_TRACE.get()


@contextlib.contextmanager
def trace_scope(context: TraceContext | None) -> Iterator[TraceContext | None]:
    """Install ``context`` for the body (``None`` clears any outer scope).

    Context variables follow ``await`` chains and are snapshotted into
    ``asyncio.to_thread`` workers, so a scope opened in a request handler
    is visible to the blocking campaign code the handler hops to.
    """
    token = _CURRENT_TRACE.set(context)
    try:
        yield context
    finally:
        _CURRENT_TRACE.reset(token)


@dataclass(frozen=True)
class Span:
    """One completed, timed section of work.

    Attributes:
        name: dotted span name (``"engine.evaluate_topology"``).
        start: seconds since the tracer's epoch at which the span opened.
        duration: elapsed monotonic seconds.
        depth: nesting depth (0 for top-level spans).
        parent: name of the enclosing span, or ``None`` at top level.
        attrs: small JSON-serializable attributes (grid sizes, counts...).
    """

    name: str
    start: float
    duration: float
    depth: int
    parent: str | None
    attrs: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "depth": self.depth,
            "parent": self.parent,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, record: dict[str, Any]) -> "Span":
        return cls(
            name=record["name"],
            start=record["start"],
            duration=record["duration"],
            depth=record["depth"],
            parent=record["parent"],
            attrs=dict(record.get("attrs", {})),
        )


class _ActiveSpan:
    """Context manager for one open span (appends to the tracer on exit)."""

    __slots__ = ("_tracer", "name", "attrs", "_start")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self._start = 0.0

    def __enter__(self) -> "_ActiveSpan":
        self._start = self._tracer._clock()
        self._tracer._stack.append(self)
        return self

    def __exit__(self, *exc_info) -> bool:
        tracer = self._tracer
        end = tracer._clock()
        stack = tracer._stack
        stack.pop()
        parent = stack[-1].name if stack else None
        tracer.spans.append(
            Span(
                name=self.name,
                start=self._start - tracer._epoch,
                duration=end - self._start,
                depth=len(stack),
                parent=parent,
                attrs=self.attrs,
            )
        )
        return False


class Tracer:
    """Collects nested :class:`Span` records under one monotonic clock.

    Spans are appended in *completion* order (children before parents);
    :meth:`roots` recovers the top-level phases in start order.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._epoch = clock()
        self._stack: list[_ActiveSpan] = []
        self.spans: list[Span] = []

    def span(self, name: str, **attrs: Any) -> _ActiveSpan:
        """Open a span: ``with tracer.span("phase", size=n): ...``."""
        return _ActiveSpan(self, name, attrs)

    @property
    def depth(self) -> int:
        """Current nesting depth (number of open spans)."""
        return len(self._stack)

    def roots(self) -> list[Span]:
        """Completed top-level spans, in start order."""
        return sorted(
            (s for s in self.spans if s.depth == 0), key=lambda s: s.start
        )

    def total(self, name: str) -> float:
        """Summed duration of all completed spans called ``name``."""
        return sum(s.duration for s in self.spans if s.name == name)
