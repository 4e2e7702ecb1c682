"""In-memory span tracer that wraps layer functions from the outside.

The benchmark never edits the program to trace it.  Instead,
:func:`wrap_function` and :func:`wrap_method` replace a layer's public
function (or method) with a wrapper that records a span around each call.
Spans nest per thread: a span's *self* time is its duration minus the
time its child spans cover, so ``sim.engine.run`` self time is what the
engine spends outside the RNG, event-queue and measure layers.

Every span updates a per-name aggregate (calls, total, self) and, for the
first :data:`MAX_KEPT_PER_NAME` spans of each name, is kept as a raw record
(name, start, end, id, parent id, thread).  All of it stays in memory
until :meth:`Tracer.dump` writes it when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

#: Raw span records kept per span name and thread (aggregates are always
#: complete); bounds memory when a hot layer is called millions of times.
MAX_KEPT_PER_NAME = 1000


class _Aggregate:
    __slots__ = ("calls", "total", "self_time", "units", "kept")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.units = 0.0
        self.kept: list[tuple[float, float, int, int]] = []


class _Frame:
    __slots__ = ("name", "start", "children", "span_id")

    def __init__(self, name: str, start: float, span_id: int) -> None:
        self.name = name
        self.start = start
        self.children = 0.0
        self.span_id = span_id


class _ThreadState:
    """One thread's span stack and aggregates (no locking on the hot path)."""

    __slots__ = ("stack", "aggregates", "thread")

    def __init__(self) -> None:
        self.stack: list[_Frame] = []
        self.aggregates: dict[str, _Aggregate] = {}
        self.thread = threading.get_ident()


class Tracer:
    """Collects spans from every thread into per-thread stores."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.origin = clock()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def begin(self, name: str) -> _Frame:
        state = self._state()
        frame = _Frame(name, self.clock(), next(self._ids))
        state.stack.append(frame)
        return frame

    def end(self, frame: _Frame, units: float = 0.0) -> float:
        """Close ``frame`` (the innermost open span); returns its duration."""
        finished = self.clock()
        state = self._state()
        stack = state.stack
        stack.pop()
        duration = finished - frame.start
        parent_id = 0
        if stack:
            parent = stack[-1]
            parent.children += duration
            parent_id = parent.span_id
        aggregate = state.aggregates.get(frame.name)
        if aggregate is None:
            aggregate = state.aggregates[frame.name] = _Aggregate()
        aggregate.calls += 1
        aggregate.total += duration
        aggregate.self_time += duration - frame.children
        aggregate.units += units
        if len(aggregate.kept) < MAX_KEPT_PER_NAME:
            aggregate.kept.append(
                (frame.start, finished, frame.span_id, parent_id)
            )
        return duration

    def record(self, name: str, duration: float, units: float = 0.0) -> None:
        """Add a flat span measured elsewhere (e.g. across an ``await``).

        Flat spans take no part in nesting: asyncio tasks interleave on one
        thread, so a span held open across an ``await`` would wrongly
        parent whatever other task ran meanwhile.
        """
        state = self._state()
        aggregate = state.aggregates.get(name)
        if aggregate is None:
            aggregate = state.aggregates[name] = _Aggregate()
        aggregate.calls += 1
        aggregate.total += duration
        aggregate.self_time += duration
        aggregate.units += units

    def aggregates(self) -> dict[str, dict[str, float]]:
        """Per-name totals merged across threads (seconds)."""
        merged: dict[str, dict[str, float]] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, aggregate in list(state.aggregates.items()):
                into = merged.setdefault(
                    name, {"calls": 0, "total": 0.0, "self": 0.0, "units": 0.0}
                )
                into["calls"] += aggregate.calls
                into["total"] += aggregate.total
                into["self"] += aggregate.self_time
                into["units"] += aggregate.units
        return merged

    def spans(self) -> list[dict[str, Any]]:
        """The kept raw spans, times in seconds since the tracer started."""
        with self._lock:
            states = list(self._states)
        return [
            {
                "name": name,
                "start": start - self.origin,
                "end": end - self.origin,
                "id": span_id,
                "parent": parent_id,
                "thread": state.thread,
            }
            for state in states
            for name, aggregate in list(state.aggregates.items())
            for start, end, span_id, parent_id in list(aggregate.kept)
        ]

    def dump(self, path: str | Path, extra: dict[str, Any] | None = None) -> None:
        """Write aggregates and kept spans as one JSON document."""
        record = {"aggregates": self.aggregates(), "spans": self.spans()}
        if extra:
            record.update(extra)
        Path(path).write_text(json.dumps(record), encoding="utf-8")


def traced(
    tracer: Tracer,
    name: str,
    fn: Callable[..., Any],
    units: Callable[[Any, tuple, dict], float] | None = None,
) -> Callable[..., Any]:
    """``fn`` wrapped in a span; ``units(result, args, kwargs)`` counts work."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        frame = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.end(frame)
            raise
        tracer.end(frame, units(result, args, kwargs) if units is not None else 0.0)
        return result

    return wrapper


def wrap_function(
    tracer: Tracer,
    module_name: str,
    attribute: str,
    name: str,
    units: Callable[[Any, tuple, dict], float] | None = None,
) -> None:
    """Wrap ``module.attribute`` and every ``repro`` alias of it.

    Modules that did ``from module import attribute`` hold their own
    reference, so each loaded ``repro.*`` module attribute bound to the
    same function object is replaced too.
    """
    module = sys.modules[module_name]
    original = getattr(module, attribute)
    wrapper = traced(tracer, name, original, units)
    for loaded_name, loaded in list(sys.modules.items()):
        if loaded is None or not loaded_name.startswith("repro"):
            continue
        for key, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, key, wrapper)


def wrap_method(
    tracer: Tracer,
    cls: type,
    attribute: str,
    name: str,
    units: Callable[[Any, tuple, dict], float] | None = None,
) -> None:
    """Wrap an instance method on its class (every instance, old or new)."""
    original = cls.__dict__[attribute]
    setattr(cls, attribute, traced(tracer, name, original, units))
