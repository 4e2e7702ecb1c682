"""Streaming telemetry: a bounded-overhead event bus with pluggable sinks.

PR 2's observability layer speaks only *after* a run finishes (manifests,
span profiles).  This module makes long campaigns observable *in flight*:
instrumented layers call :func:`emit` with a structured event, and an
active :class:`TelemetryBus` fans it out to whatever sinks were attached —

* :class:`JsonlSink` — append-only JSON Lines file with size-based
  rotation (``repro-avail obs tail <file>`` renders/filters it);
* :class:`AggregatorSink` — in-process counts and last-event-by-kind, for
  tests and embedding callers;
* :class:`PrometheusSink` — rewrites an OpenMetrics/Prometheus text
  exposition snapshot whenever a ``metrics`` event carries a registry
  snapshot (point ``node_exporter``-style scrapers at the file).

Every event carries ``schema`` (:data:`TELEMETRY_SCHEMA_VERSION`), a
monotonic per-bus ``seq``, a per-bus ``run`` id (derived from the file
tail when appending, so restarted runs stay ordered), a wall-clock ``t``,
and its ``kind``; an event emitted inside a
:func:`~repro.obs.trace.trace_scope` also carries that context's
``trace_id`` / ``span_id`` (and ``job_id`` for a job's context).  The rest
of the fields are event-specific (see ``docs/OBSERVABILITY.md``).

The zero-cost-when-disabled discipline of :mod:`repro.obs.runtime` holds
here too: with no bus active — the default — :func:`emit` is a single
``None`` check, worker processes always start with telemetry disabled,
and nothing in this module reads or perturbs random state, so runs are
bit-identical with telemetry on or off (``tests/test_obs_determinism.py``
enforces this).  Progress events from parallel dispatch are emitted by
the *parent* out of worker-side data riding the existing
``perf.parallel.map_chunked`` result channel — workers never write files.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping
from urllib.parse import urlsplit

from repro.errors import ObservabilityError
from repro.obs.metrics import HISTOGRAM_BUCKET_BOUNDS
from repro.obs.trace import current_trace

__all__ = [
    "TELEMETRY_SCHEMA_VERSION",
    "JsonlSink",
    "AggregatorSink",
    "PrometheusSink",
    "TelemetryBus",
    "ProgressTracker",
    "render_openmetrics",
    "read_events",
    "follow_events",
    "follow_sse",
    "render_event",
    "start",
    "stop",
    "active",
    "enabled",
    "emit",
]

#: Version stamped into every event's ``schema`` field.  Bump when an
#: existing field changes meaning; adding fields is not a bump.
TELEMETRY_SCHEMA_VERSION = 1


def _read_last_run(path: Path) -> int | None:
    """The ``run`` id of the last parseable event in ``path``'s tail.

    Reads at most the final 64 KiB.  Returns ``None`` when the file does
    not exist or holds no parseable event; events without a ``run`` field
    (pre-``run`` streams) count as run ``0`` so appenders continue after
    them.
    """
    try:
        with open(path, "rb") as handle:
            handle.seek(0, os.SEEK_END)
            size = handle.tell()
            handle.seek(max(0, size - 65536))
            tail = handle.read().decode("utf-8", errors="replace")
    except OSError:
        return None
    last: int | None = None
    for raw in tail.splitlines():
        raw = raw.strip()
        if not raw:
            continue
        try:
            event = json.loads(raw)
        except json.JSONDecodeError:
            continue
        if not isinstance(event, dict):
            continue
        try:
            last = int(event.get("run", 0))
        except (TypeError, ValueError):
            last = 0
    return last


class JsonlSink:
    """Append-only JSON Lines sink with size-based rotation.

    When appending a line would push the current file past ``max_bytes``,
    the file is rotated shift-style (``file`` -> ``file.1`` -> ``file.2``
    ... up to ``max_backups``, oldest dropped) and a fresh file started,
    so a heartbeat-emitting overnight campaign cannot fill the disk.
    ``max_bytes=None`` (the default) never rotates.

    An event larger than ``max_bytes`` on its own is never dropped and
    never causes rotation churn: it is appended to the current file and
    the file is rotated exactly once afterwards, leaving the live file
    empty (within budget) for subsequent events.

    ``last_run`` exposes the ``run`` id of the last event already in the
    file (``None`` for a fresh file); :class:`TelemetryBus` uses it to
    pick the next run id when appending to an existing stream.

    Writes are flushed every ``flush_every`` events (default every event)
    so live followers — ``repro-avail obs tail --follow`` — see events as
    they happen rather than when the stream closes; the event rate is
    bounded by heartbeat/snapshot rate limiting, so per-line flushing is
    not a hot path.  Raise ``flush_every`` for write-heavy custom streams.
    """

    def __init__(
        self,
        path: str | Path,
        max_bytes: int | None = None,
        max_backups: int = 3,
        flush_every: int = 1,
    ):
        if max_bytes is not None and max_bytes <= 0:
            raise ObservabilityError(
                f"JsonlSink max_bytes must be positive (got {max_bytes})"
            )
        if flush_every < 1:
            raise ObservabilityError(
                f"JsonlSink flush_every must be >= 1 (got {flush_every})"
            )
        self.flush_every = int(flush_every)
        self.path = Path(path)
        self.max_bytes = max_bytes
        self.max_backups = max(1, int(max_backups))
        self.rotations = 0
        self.events_written = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.last_run = _read_last_run(self.path)
        self._bytes = self.path.stat().st_size if self.path.exists() else 0
        self._handle = open(self.path, "a", encoding="utf-8")

    def _rotate(self) -> None:
        self._handle.close()
        oldest = self.path.with_name(f"{self.path.name}.{self.max_backups}")
        if oldest.exists():
            oldest.unlink()
        for index in range(self.max_backups - 1, 0, -1):
            backup = self.path.with_name(f"{self.path.name}.{index}")
            if backup.exists():
                os.replace(backup, self.path.with_name(
                    f"{self.path.name}.{index + 1}"
                ))
        os.replace(self.path, self.path.with_name(f"{self.path.name}.1"))
        self._handle = open(self.path, "a", encoding="utf-8")
        self._bytes = 0
        self.rotations += 1

    def emit(self, event: Mapping[str, Any]) -> None:
        line = json.dumps(event, sort_keys=True, separators=(",", ":"))
        size = len(line.encode("utf-8")) + 1
        oversized = self.max_bytes is not None and size > self.max_bytes
        if (
            self.max_bytes is not None
            and not oversized
            and self._bytes
            and self._bytes + size > self.max_bytes
        ):
            self._rotate()
        self._handle.write(line + "\n")
        self._bytes += size
        self.events_written += 1
        if self.events_written % self.flush_every == 0:
            self._handle.flush()
        if oversized:
            # The event alone busts the budget: it was written above (never
            # dropped) and one rotation retires it to a backup so the live
            # file returns within budget.  Exactly one rotation per
            # oversized event — no pre+post double rotation, no per-emit
            # churn on the events that follow.
            self._rotate()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.flush()
            self._handle.close()


class AggregatorSink:
    """In-process aggregation: event counts and last event per kind."""

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}
        self.last: dict[str, dict[str, Any]] = {}
        self.total = 0

    def emit(self, event: Mapping[str, Any]) -> None:
        kind = str(event.get("kind", ""))
        self.counts[kind] = self.counts.get(kind, 0) + 1
        self.last[kind] = dict(event)
        self.total += 1

    def close(self) -> None:
        return None


def _metric_name(name: str) -> str:
    """Sanitize a dotted metric name for Prometheus exposition."""
    cleaned = [
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    ]
    text = "".join(cleaned) or "_"
    return text if not text[0].isdigit() else "_" + text


def _format_value(value: float) -> str:
    return repr(float(value))


def render_openmetrics(snapshot: Mapping[str, Any]) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` as Prometheus text.

    Counters become ``counter`` families with a ``_total`` suffix, gauges
    become ``gauge`` families, and timing histograms become ``histogram``
    families with cumulative ``_bucket{le="..."}`` series (bounds from
    :data:`HISTOGRAM_BUCKET_BOUNDS` plus ``+Inf``), ``_sum`` and
    ``_count`` — the standard exposition shape scrapers expect.
    """
    lines: list[str] = []
    for name in sorted(snapshot.get("counters", {})):
        metric = _metric_name(name) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(
            f"{metric} {_format_value(snapshot['counters'][name])}"
        )
    for name in sorted(snapshot.get("gauges", {})):
        value = snapshot["gauges"][name]
        if value is None:
            continue
        metric = _metric_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_format_value(value)}")
    for name in sorted(snapshot.get("histograms", {})):
        summary = snapshot["histograms"][name]
        metric = _metric_name(name) + "_seconds"
        lines.append(f"# TYPE {metric} histogram")
        count = int(summary.get("count", 0))
        bins = summary.get("bins") or [0] * (
            len(HISTOGRAM_BUCKET_BOUNDS) + 1
        )
        cumulative = 0
        for bound, bucket in zip(HISTOGRAM_BUCKET_BOUNDS, bins):
            cumulative += int(bucket)
            lines.append(
                f'{metric}_bucket{{le="{bound:g}"}} {cumulative}'
            )
        lines.append(f'{metric}_bucket{{le="+Inf"}} {count}')
        lines.append(
            f"{metric}_sum {_format_value(summary.get('total', 0.0))}"
        )
        lines.append(f"{metric}_count {count}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


class PrometheusSink:
    """Maintains an OpenMetrics text snapshot file of the latest metrics.

    Listens for ``metrics`` events (emitted by instrumented layers with a
    full registry ``snapshot`` field) and atomically rewrites ``path``
    with the exposition text — the file-based pattern scrape agents poll.
    All other event kinds are ignored.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.writes = 0

    def emit(self, event: Mapping[str, Any]) -> None:
        if event.get("kind") != "metrics":
            return
        snapshot = event.get("snapshot")
        if not isinstance(snapshot, Mapping):
            return
        text = render_openmetrics(snapshot)
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, self.path)
        self.writes += 1

    def close(self) -> None:
        return None


class TelemetryBus:
    """Fan-out of structured events to the attached sinks.

    Each bus stamps a ``run`` id into every event alongside the per-bus
    monotonic ``seq``.  When ``run`` is not given it is derived from the
    attached sinks: one past the highest ``last_run`` any file-backed sink
    already holds (``0`` for fresh sinks).  Two start/stop cycles
    appending to the same JSONL file therefore produce distinct run ids,
    and ``(run, seq)`` totally orders the combined stream even though each
    bus restarts ``seq`` at 0 — the contract :func:`read_events` sorts by.
    """

    def __init__(self, sinks: Iterable[Any] = (), run: int | None = None):
        self.sinks: tuple[Any, ...] = tuple(sinks)
        if run is None:
            previous = [
                sink.last_run
                for sink in self.sinks
                if getattr(sink, "last_run", None) is not None
            ]
            run = max(previous) + 1 if previous else 0
        self.run = int(run)
        self._seq = 0
        # Campaign jobs executed on a server's worker threads emit through
        # the same bus as the serving loop; the lock keeps ``seq`` unique
        # and sink writes whole.  Uncontended cost is negligible next to
        # the JSON encode each emit already pays.
        self._lock = threading.Lock()

    def emit(self, kind: str, **fields: Any) -> dict[str, Any]:
        """Stamp, sequence, and fan out one event; returns the event.

        Inside a :func:`~repro.obs.trace.trace_scope` the event carries
        the context's ids (:meth:`~repro.obs.trace.TraceContext.stamp`),
        which is how one job's events are filterable out of a shared
        stream; explicit ``fields`` win over stamped ones.
        """
        trace = current_trace()
        with self._lock:
            event = {
                "schema": TELEMETRY_SCHEMA_VERSION,
                "seq": self._seq,
                "run": self.run,
                "t": time.time(),
                "kind": kind,
            }
            if trace is not None:
                event.update(trace.stamp())
            event.update(fields)
            self._seq += 1
            for sink in self.sinks:
                sink.emit(event)
        return event

    def add_sink(self, sink: Any) -> None:
        """Attach ``sink`` to a live bus (e.g. an SSE fan-out hub)."""
        with self._lock:
            if sink not in self.sinks:
                self.sinks = self.sinks + (sink,)

    def remove_sink(self, sink: Any) -> None:
        """Detach ``sink`` without closing it (no-op when absent)."""
        with self._lock:
            self.sinks = tuple(s for s in self.sinks if s is not sink)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


class ProgressTracker:
    """Derives progress/heartbeat fields (rate, ETA) for ``progress`` events.

    Parent-side only: dispatchers call :meth:`update` as each job/chunk
    result arrives (with worker-side event counts riding the result
    channel) and emit the returned fields.  ETA is a simple linear
    extrapolation of the completion rate so far.
    """

    def __init__(self, total: int, unit: str = "replications"):
        self.total = int(total)
        self.unit = unit
        self.completed = 0
        self.events = 0
        self._started = time.perf_counter()

    def update(self, completed: int = 1, events: int = 0) -> dict[str, Any]:
        self.completed += int(completed)
        self.events += int(events)
        elapsed = time.perf_counter() - self._started
        fields: dict[str, Any] = {
            "unit": self.unit,
            "completed": self.completed,
            "total": self.total,
            "elapsed_s": elapsed,
        }
        if self.events:
            fields["events"] = self.events
            if elapsed > 0:
                fields["events_per_second"] = self.events / elapsed
        if self.completed and elapsed > 0:
            rate = self.completed / elapsed
            fields["rate_per_second"] = rate
            remaining = max(self.total - self.completed, 0)
            fields["eta_s"] = remaining / rate
        return fields


# -- JSONL reading (the `obs tail` side) ---------------------------------------


def _event_order(event: Mapping[str, Any]) -> tuple[int, int]:
    """``(run, seq)`` sort key; malformed/absent fields order as 0."""

    def as_int(value: Any) -> int:
        try:
            return int(value)
        except (TypeError, ValueError):
            return 0

    return as_int(event.get("run", 0)), as_int(event.get("seq", 0))


def read_events(
    path: str | Path,
    kinds: Iterable[str] | None = None,
) -> Iterator[dict[str, Any]]:
    """Yield events from a telemetry JSONL file, optionally by kind.

    Events are ordered by ``(run, seq)`` (a stable sort over file order),
    so a file holding several appended start/stop cycles — each of which
    restarts ``seq`` at 0 under its own ``run`` id — reads back in a
    single unambiguous sequence.  Unparseable lines (e.g. a partial line
    at a rotation boundary or a live writer's tail) are skipped, not
    fatal.
    """
    wanted = set(kinds) if kinds is not None else None
    events: list[dict[str, Any]] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not isinstance(event, dict):
                continue
            if wanted is not None and event.get("kind") not in wanted:
                continue
            events.append(event)
    events.sort(key=_event_order)
    return iter(events)


def follow_events(
    path: str | Path,
    kinds: Iterable[str] | None = None,
    poll_seconds: float = 0.2,
    idle_timeout: float | None = None,
    max_poll_seconds: float = 2.0,
    backoff: float = 2.0,
    _sleep: Callable[[float], None] = time.sleep,
) -> Iterator[dict[str, Any]]:
    """Yield events from a *live* telemetry JSONL file as they are written.

    The ``tail -F`` counterpart of :func:`read_events`: existing events are
    yielded first (in file order — a live stream cannot be re-sorted, but
    each event's ``(run, seq)`` stamp still totally orders the combined
    stream for consumers, the same contract appended start/stop cycles
    rely on), then the follower polls for appended lines.
    :class:`JsonlSink` shift-rotation is survived: when the path's
    inode changes (or the file shrinks), the old handle is drained to its
    end first — nothing written just before the rename is lost — and the
    follower reopens at the start of the fresh file, whose bus continues
    the rotated stream's run-id sequence.

    Polling backs off exponentially while the file is quiet:
    ``poll_seconds`` is the floor (the first idle wait, and the interval
    restored the moment an event or a rotation is seen), each further idle
    wait multiplies by ``backoff`` up to ``max_poll_seconds`` — a dormant
    overnight stream costs a stat every couple of seconds instead of five
    per second, while an active stream is still tailed at the floor
    latency.  ``backoff=1.0`` restores fixed-interval polling.

    ``idle_timeout`` bounds how long to wait with no new data before
    returning (``None`` follows forever, until the consumer stops
    iterating); a file that does not exist yet is waited for under the
    same timeout.  Partial trailing lines (a writer mid-append) are
    buffered, never dropped or mis-parsed.
    """
    if poll_seconds <= 0:
        raise ObservabilityError(
            f"poll_seconds must be > 0, got {poll_seconds}"
        )
    if max_poll_seconds < poll_seconds:
        raise ObservabilityError(
            f"max_poll_seconds ({max_poll_seconds}) must be >= "
            f"poll_seconds ({poll_seconds})"
        )
    if backoff < 1.0:
        raise ObservabilityError(f"backoff must be >= 1.0, got {backoff}")
    wanted = set(kinds) if kinds is not None else None
    target = Path(path)
    handle = None
    buffer = b""
    idle = 0.0
    delay = poll_seconds
    try:
        while True:
            if handle is None:
                try:
                    handle = open(target, "rb")
                except OSError:
                    handle = None
            rotated = False
            if handle is not None:
                chunk = handle.read()
                if chunk:
                    buffer += chunk
                try:
                    stat = os.stat(target)
                    current = os.fstat(handle.fileno())
                    rotated = (
                        stat.st_ino != current.st_ino
                        or stat.st_size < handle.tell()
                    )
                except OSError:
                    rotated = True
                if rotated:
                    # The old file is fully drained (read() above hit its
                    # EOF); reopen the fresh file from the top next pass.
                    handle.close()
                    handle = None
            progressed = False
            lines = buffer.split(b"\n")
            buffer = lines.pop()
            for raw in lines:
                text = raw.decode("utf-8", errors="replace").strip()
                if not text:
                    continue
                try:
                    event = json.loads(text)
                except json.JSONDecodeError:
                    continue
                if not isinstance(event, dict):
                    continue
                progressed = True
                if wanted is not None and event.get("kind") not in wanted:
                    continue
                yield event
            if progressed or rotated:
                idle = 0.0
                delay = poll_seconds
                continue
            if idle_timeout is not None and idle >= idle_timeout:
                return
            _sleep(delay)
            idle += delay
            delay = min(delay * backoff, max_poll_seconds)
    finally:
        if handle is not None:
            handle.close()


def follow_sse(
    url: str,
    kinds: Iterable[str] | None = None,
    idle_timeout: float | None = None,
) -> Iterator[dict[str, Any]]:
    """Yield telemetry events from a live server-sent-events stream.

    The HTTP counterpart of :func:`follow_events`: point it at a running
    service's ``/v1/events`` firehose (or a ``/v1/jobs/<id>/events`` job
    stream) and it yields the same schema-versioned event dicts a
    :class:`JsonlSink` would record — each SSE frame's ``data:`` payload
    *is* the JSONL line.  Comment frames (``: keepalive`` heartbeats) are
    skipped.  Stdlib only (``http.client`` dechunks the stream).

    ``idle_timeout`` bounds how long to block with no bytes from the
    server before returning (the server's heartbeat interval counts as
    activity); ``None`` follows until the server closes the stream.
    """
    import http.client

    split = urlsplit(url)
    if split.scheme not in ("http", "https"):
        raise ObservabilityError(
            f"follow_sse needs an http(s):// URL, got {url!r}"
        )
    if not split.hostname:
        raise ObservabilityError(f"URL {url!r} has no host")
    connection_type = (
        http.client.HTTPSConnection
        if split.scheme == "https"
        else http.client.HTTPConnection
    )
    connection = connection_type(
        split.hostname,
        split.port or (443 if split.scheme == "https" else 80),
        timeout=idle_timeout,
    )
    wanted = set(kinds) if kinds is not None else None
    target = split.path or "/"
    if split.query:
        target += f"?{split.query}"
    try:
        connection.request(
            "GET", target, headers={"Accept": "text/event-stream"}
        )
        response = connection.getresponse()
        if response.status != 200:
            body = response.read(4096).decode("utf-8", errors="replace")
            raise ObservabilityError(
                f"SSE stream {url!r} answered {response.status}: "
                f"{body[:200]}"
            )
        data_lines: list[str] = []
        while True:
            try:
                raw = response.readline()
            except TimeoutError:
                return
            if not raw:
                return  # server closed the stream
            line = raw.decode("utf-8", errors="replace").rstrip("\r\n")
            if not line:  # blank line terminates one SSE frame
                if data_lines:
                    text, data_lines = "\n".join(data_lines), []
                    try:
                        event = json.loads(text)
                    except json.JSONDecodeError:
                        continue
                    if not isinstance(event, dict):
                        continue
                    if wanted is not None and event.get("kind") not in wanted:
                        continue
                    yield event
                continue
            if line.startswith(":"):
                continue  # heartbeat/comment
            name, _, value = line.partition(":")
            if value.startswith(" "):
                value = value[1:]
            if name == "data":
                data_lines.append(value)
    finally:
        connection.close()


def render_event(event: Mapping[str, Any]) -> str:
    """One human-readable line per event (the ``obs tail`` format)."""
    seq = event.get("seq", "-")
    kind = event.get("kind", "?")
    skip = {"schema", "seq", "t", "kind", "snapshot"}
    parts = [
        f"{key}={_render_field(event[key])}"
        for key in sorted(event)
        if key not in skip
    ]
    if "snapshot" in event:
        parts.append("snapshot=<metrics>")
    body = " ".join(parts)
    return f"[{seq:>6}] {kind:<12} {body}".rstrip()


def _render_field(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    return str(value)


# -- the global bus (zero-cost when disabled) ----------------------------------

_bus: TelemetryBus | None = None


def start(sinks: Iterable[Any]) -> TelemetryBus:
    """Activate a bus over ``sinks``; raises if one is already active."""
    global _bus
    if _bus is not None:
        raise ObservabilityError(
            "a telemetry bus is already active; stop() it first"
        )
    _bus = TelemetryBus(sinks)
    return _bus


def stop() -> TelemetryBus | None:
    """Deactivate, close sinks, return the bus (``None`` if inactive)."""
    global _bus
    finished, _bus = _bus, None
    if finished is not None:
        finished.close()
    return finished


def active() -> TelemetryBus | None:
    """The current bus, or ``None``."""
    return _bus


def enabled() -> bool:
    """True while a bus is active (events are flowing)."""
    return _bus is not None


def emit(kind: str, **fields: Any) -> None:
    """Emit onto the active bus (single ``None`` check while disabled)."""
    current = _bus
    if current is not None:
        current.emit(kind, **fields)
