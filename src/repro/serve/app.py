"""The availability service: routing, instrumentation, and lifecycle.

:class:`ServeApp` wires the serving pieces together over one asyncio event
loop:

* **Queries** (``POST /v1/query``) answer the paper's analytic questions —
  closed-form hardware availability (micro-batched through the vectorized
  kernels), software-option evaluation, and control-network path analysis
  — through the single-flight LRU cache, so identical concurrent requests
  compute once and repeated requests are near-free.
* **Jobs** (``POST /v1/jobs`` / ``GET /v1/jobs/<id>``) run Monte-Carlo
  campaigns asynchronously on the sharded queue with admission control;
  results are deterministic-identical to CLI runs of the same spec.
* **Observability** (``GET /metrics``, ``GET /v1/stats``) exposes request
  latency histograms, per-request latency-attribution segments
  (cache / batch-assembly / kernel-compute / other), cache
  hit/miss/eviction counters, batch sizes, queue-depth gauges, and the
  rolling :class:`~repro.obs.slo.SLOTracker` state as OpenMetrics text and
  JSON; when a telemetry bus is active the app also emits ``serve.*``
  lifecycle events and periodic ``metrics`` snapshots (which a
  :class:`~repro.obs.telemetry.PrometheusSink` turns into a scrapeable
  file).
* **Tracing** (every request) — a :class:`~repro.obs.trace.TraceContext`
  per request (continuing an inbound W3C ``traceparent`` when present),
  installed with :func:`~repro.obs.trace.trace_scope`, so the cache and
  batcher add latency segments to the request's own ledger and the job
  queue parents its jobs to it without new call signatures.  Responses
  carry ``X-Trace-Id``; query responses embed a ``trace`` section.
  Tracing never touches computed values — instrumented results are
  bit-identical to uninstrumented ones.
* **Streaming** (``GET /v1/events``, ``GET /v1/jobs/<id>/events``) —
  server-sent events fanned out from the live telemetry bus through
  :class:`~repro.serve.stream.TelemetryHub`; each frame's ``data:`` line
  is byte-identical to the :class:`~repro.obs.telemetry.JsonlSink` line
  for the same event, in the same ``(run, seq)`` order.
* **Shutdown** — :meth:`ServeApp.stop` stops accepting, closes idle
  keep-alive connections, lets in-flight requests answer (with
  ``Connection: close``) and streams end with the hub, and cancels
  whatever is still busy after :data:`SHUTDOWN_GRACE_SECONDS`.

Everything is stdlib ``asyncio`` plus this package's own modules — no web
framework.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from dataclasses import dataclass, field, replace
from typing import Any, AsyncIterator, Mapping

import numpy as np

from repro.errors import ReproError, ServeError
from repro.obs import telemetry
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SLOConfig, SLOTracker
from repro.obs.telemetry import render_openmetrics
from repro.obs.trace import TraceContext, current_trace, trace_scope
from repro.serve.admission import AdmissionController, AdmissionPolicy
from repro.serve.batching import (
    DEFAULT_MAX_BATCH,
    DEFAULT_WINDOW_SECONDS,
    MicroBatcher,
)
from repro.serve.cache import (
    DEFAULT_MAX_ENTRIES,
    SingleFlightCache,
    result_key,
)
from repro.serve.jobs import DEFAULT_SHARDS, JobQueue
from repro.serve.protocol import (
    LAST_CHUNK,
    MAX_BODY_BYTES,
    ProtocolError,
    Request,
    Response,
    StreamingResponse,
    encode_chunk,
    read_request,
)
from repro.serve.stream import (
    DEFAULT_BUFFER_EVENTS,
    DEFAULT_QUEUE_EVENTS,
    STREAM_CLOSED,
    Subscription,
    TelemetryHub,
    encode_sse_event,
)

__all__ = ["ServeConfig", "ServeApp"]

#: Emit a ``metrics`` telemetry snapshot every this many requests (when a
#: telemetry bus is active), plus once at shutdown.
METRICS_EVERY_REQUESTS = 100

#: How long :meth:`ServeApp.stop` lets busy connections finish (answer
#: their request, end their stream) before cancelling them, so a client
#: that stops reading cannot wedge shutdown.
SHUTDOWN_GRACE_SECONDS = 5.0

#: Terminal job states (a job event stream ends after these).
_TERMINAL_STATES = ("done", "failed")

#: The latency-attribution segments exported as ``serve.segment_seconds.*``
#: histograms: time in the cache not spent computing (a hit's lookup, a
#: coalesced waiter's wait), waiting for a micro-batch window, in the
#: kernel or blocking evaluation, and the finalize-time residual.
SEGMENT_NAMES = ("cache", "batch_assembly", "kernel_compute", "other")


@dataclass(frozen=True)
class ServeConfig:
    """Tunables for one :class:`ServeApp` instance."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; read ``app.port`` after start()
    cache_entries: int = DEFAULT_MAX_ENTRIES
    batch_window_seconds: float = DEFAULT_WINDOW_SECONDS
    max_batch: int = DEFAULT_MAX_BATCH
    shards: int = DEFAULT_SHARDS
    workers_per_job: int = 1
    admission: AdmissionPolicy = field(default_factory=AdmissionPolicy)
    max_body_bytes: int = MAX_BODY_BYTES
    slo: SLOConfig = field(default_factory=SLOConfig)
    stream_buffer_events: int = DEFAULT_BUFFER_EVENTS
    stream_queue_events: int = DEFAULT_QUEUE_EVENTS
    stream_heartbeat_seconds: float = 15.0


def _probability(
    payload: Mapping[str, Any], name: str, default: float | None = None
) -> float:
    try:
        value = float(payload[name])
    except KeyError:
        if default is not None:
            return default
        raise ProtocolError(f"hw query is missing {name!r}") from None
    except (TypeError, ValueError):
        raise ProtocolError(
            f"hw query field {name!r} must be a number, "
            f"got {payload[name]!r}"
        ) from None
    if not 0.0 <= value <= 1.0:
        raise ProtocolError(f"{name} must be in [0, 1], got {value}")
    return value


def _hw_models() -> dict[str, Any]:
    from repro.perf.vectorized import (
        hw_large_array,
        hw_medium_array,
        hw_small_array,
    )

    return {
        "small": hw_small_array,
        "medium": hw_medium_array,
        "large": hw_large_array,
    }


def _lower_hw(model_fn: Any, batch: list[dict[str, float]]) -> list[float]:
    """One vectorized kernel call over a whole batch of hw queries.

    The kernels are elementwise over their parameter arrays, so element
    ``i`` of the result is bit-identical to evaluating request ``i`` alone
    — the equivalence the micro-batch tests pin.
    """
    columns = {
        name: np.array([item[name] for item in batch], dtype=np.float64)
        for name in ("a_role", "a_vm", "a_host", "a_rack")
    }
    values = model_fn(
        columns["a_role"],
        columns["a_vm"],
        columns["a_host"],
        columns["a_rack"],
    )
    return [float(value) for value in np.atleast_1d(values)]


def _resolve_graph(payload: Mapping[str, Any]) -> Any:
    from repro.network.graph import NetworkGraph
    from repro.topology.network_reference import reference_network

    graph = payload.get("graph")
    if isinstance(graph, str):
        try:
            return reference_network(graph)
        except ReproError as error:
            raise ProtocolError(
                f"unknown reference network {graph!r}: {error}"
            ) from None
    if isinstance(graph, Mapping):
        try:
            return NetworkGraph.from_dict(graph)
        except ReproError as error:
            raise ProtocolError(f"invalid network graph: {error}") from None
    raise ProtocolError(
        "network query needs 'graph': a reference name or a graph object"
    )


def _analyze_network(payload: Mapping[str, Any]) -> dict[str, Any]:
    """Blocking control-path analysis for one switch (runs on a thread)."""
    from repro.network.paths import analyze_switch

    graph = _resolve_graph(payload)
    switch = payload.get("switch")
    if not isinstance(switch, str) or not switch:
        raise ProtocolError("network query needs 'switch': a switch name")
    max_order = payload.get("max_order")
    if max_order is not None and not isinstance(max_order, int):
        raise ProtocolError(
            f"max_order must be an integer, got {max_order!r}"
        )
    try:
        analysis = analyze_switch(graph, switch, max_order=max_order)
    except ReproError as error:
        raise ProtocolError(f"network analysis failed: {error}") from None
    return {
        "switch": analysis.switch,
        "sites": list(analysis.sites),
        "availability": analysis.availability,
        "unavailability": analysis.unavailability,
        "union_bound": analysis.union_bound,
        "max_order": analysis.max_order,
        "cut_sets": len(analysis.cut_sets),
    }


def _evaluate_option(payload: Mapping[str, Any]) -> dict[str, Any]:
    from dataclasses import replace

    from repro.controller.opencontrail import opencontrail_3x
    from repro.models.sw_options import evaluate_option
    from repro.params.defaults import PAPER_HARDWARE, PAPER_SOFTWARE

    option = payload.get("option")
    if not isinstance(option, str) or not option:
        raise ProtocolError("option query needs 'option': e.g. \"2S\"")
    overrides = {
        name: _probability(payload, name)
        for name in ("a_role", "a_vm", "a_host", "a_rack")
        if name in payload
    }
    hardware = (
        replace(PAPER_HARDWARE, **overrides) if overrides else PAPER_HARDWARE
    )
    try:
        result = evaluate_option(
            opencontrail_3x(), option, hardware, PAPER_SOFTWARE
        )
    except ReproError as error:
        raise ProtocolError(f"option evaluation failed: {error}") from None
    return {
        "option": result.option,
        "cp": result.cp,
        "shared_dp": result.shared_dp,
        "local_dp": result.local_dp,
        "dp": result.dp,
        "cp_downtime_minutes": result.cp_downtime_minutes,
        "dp_downtime_minutes": result.dp_downtime_minutes,
    }


class ServeApp:
    """The availability service over one asyncio event loop."""

    def __init__(self, config: ServeConfig | None = None):
        self.config = config or ServeConfig()
        self.registry = MetricsRegistry()
        self.cache = SingleFlightCache(
            max_entries=self.config.cache_entries,
            registry=self.registry,
        )
        self.admission = AdmissionController(self.config.admission)
        self.jobs = JobQueue(
            admission=self.admission,
            shards=self.config.shards,
            workers_per_job=self.config.workers_per_job,
            registry=self.registry,
        )
        self.slo = SLOTracker(self.config.slo)
        self._slo_compliant: dict[str, bool] = {
            "availability": True,
            "latency": True,
        }
        self._hub: TelemetryHub | None = None
        self._hub_bus: telemetry.TelemetryBus | None = None
        self.batchers = {
            name: MicroBatcher(
                lambda batch, fn=model_fn: _lower_hw(fn, batch),
                window_seconds=self.config.batch_window_seconds,
                max_batch=self.config.max_batch,
            )
            for name, model_fn in _hw_models().items()
        }
        self.requests_served = 0
        self._server: asyncio.base_events.Server | None = None
        # Connection handler tasks, and the subset blocked waiting for a
        # next request (the ones stop() may cancel without losing work).
        self._connections: set[asyncio.Task] = set()
        self._idle: set[asyncio.Task] = set()
        self._closing = False

    # -- lifecycle ------------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound TCP port (after :meth:`start`)."""
        if self._server is None:
            raise ServeError("server is not running")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        if self._server is not None:
            raise ServeError("server is already running")
        self._closing = False
        self.jobs.start()
        self._server = await asyncio.start_server(
            self._serve_connection, self.config.host, self.config.port
        )
        self._ensure_hub()
        telemetry.emit(
            "serve.start", host=self.config.host, port=self.port
        )

    async def stop(self) -> None:
        server, self._server = self._server, None
        if server is not None:
            server.close()
        # Idle keep-alive connections would wait for a request forever;
        # busy ones finish their response and then close.
        self._closing = True
        for task in self._idle:
            task.cancel()
        for batcher in self.batchers.values():
            await batcher.drain()
        await self.jobs.stop()
        self._emit_metrics_event()
        telemetry.emit("serve.stop", requests=self.requests_served)
        self._detach_hub()  # ends the SSE streams
        if self._connections:
            _, stuck = await asyncio.wait(
                self._connections, timeout=SHUTDOWN_GRACE_SECONDS
            )
            for task in stuck:
                task.cancel()
            await asyncio.gather(*stuck, return_exceptions=True)
        if server is not None:
            await server.wait_closed()

    def _ensure_hub(self) -> TelemetryHub | None:
        """The SSE fan-out hub, attached to the *currently* active bus.

        The hub follows the bus: when no bus is active there is nothing to
        stream (``None``); when the active bus changed since the last
        attachment (tests start and stop buses around a running app) the
        old hub is closed and a fresh one attached.
        """
        bus = telemetry.active()
        if bus is None:
            self._detach_hub()
            return None
        if self._hub is None or self._hub_bus is not bus:
            self._detach_hub()
            hub = TelemetryHub(
                loop=asyncio.get_running_loop(),
                buffer_events=self.config.stream_buffer_events,
                max_queue_events=self.config.stream_queue_events,
            )
            bus.add_sink(hub)
            self._hub = hub
            self._hub_bus = bus
        return self._hub

    def _detach_hub(self) -> None:
        if self._hub is not None:
            if self._hub_bus is not None:
                self._hub_bus.remove_sink(self._hub)
            self._hub.close()
        self._hub = None
        self._hub_bus = None

    async def serve_until(self, stop: asyncio.Event) -> None:
        """Run until ``stop`` is set, then shut down cleanly."""
        await self.start()
        try:
            await stop.wait()
        finally:
            await self.stop()

    # -- connection handling --------------------------------------------------

    async def _serve_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            while not self._closing:
                self._idle.add(task)
                try:
                    request = await read_request(
                        reader, max_body_bytes=self.config.max_body_bytes
                    )
                except ProtocolError as error:
                    response = Response.error(error.status, str(error))
                    self._count_response(response.status)
                    writer.write(response.encode(keep_alive=False))
                    await writer.drain()
                    return
                finally:
                    self._idle.discard(task)
                if request is None:
                    return
                response = await self.handle(request)
                if isinstance(response, StreamingResponse):
                    await self._stream_response(reader, writer, response)
                    return  # the stream consumed the connection
                keep_alive = request.keep_alive and not self._closing
                writer.write(response.encode(keep_alive=keep_alive))
                await writer.drain()
                if not keep_alive:
                    return
        except (ConnectionResetError, BrokenPipeError):
            return
        except asyncio.CancelledError:
            # stop() cancelled this connection.  End normally: the
            # start_server done-callback calls task.exception(), which
            # raises (and logs a traceback) for a cancelled handler task.
            return
        finally:
            self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _stream_response(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        response: StreamingResponse,
    ) -> None:
        """Write a chunked stream until it ends or the client disconnects.

        A concurrent ``read`` watches the socket: SSE clients send nothing
        after the request, so any read completion (EOF on disconnect)
        means the peer is gone and the generator is closed promptly — a
        canceled stream must not hold its hub subscription.
        """
        generator = response.chunks
        eof_watch = asyncio.create_task(reader.read(1))
        try:
            writer.write(response.encode_head())
            await writer.drain()
            while True:
                next_chunk = asyncio.create_task(anext(generator))
                done, _ = await asyncio.wait(
                    {next_chunk, eof_watch},
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if next_chunk not in done:
                    next_chunk.cancel()
                    with contextlib.suppress(
                        asyncio.CancelledError, StopAsyncIteration
                    ):
                        await next_chunk
                    return  # client went away
                try:
                    chunk = next_chunk.result()
                except StopAsyncIteration:
                    writer.write(LAST_CHUNK)
                    await writer.drain()
                    return
                writer.write(encode_chunk(chunk))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            return
        finally:
            eof_watch.cancel()
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await eof_watch
            await generator.aclose()

    # -- routing --------------------------------------------------------------

    async def handle(
        self, request: Request
    ) -> Response | StreamingResponse:
        """Route one request to a handler; exceptions become status codes.

        Every request runs inside a :func:`~repro.obs.trace.trace_scope`:
        a new trace (or the continuation of an inbound W3C
        ``traceparent``) whose latency-attribution segments are recorded
        into the ``serve.segment_seconds.*`` histograms and whose trace id
        is returned as ``X-Trace-Id``.
        """
        started = time.perf_counter()
        context = TraceContext.from_traceparent(
            request.headers.get("traceparent")
        ) or TraceContext.new()
        try:
            with trace_scope(context):
                response = await self._dispatch(request)
        except ServeError as error:
            response = Response.error(error.status, str(error))
        except ReproError as error:
            response = Response.error(400, str(error))
        except Exception as error:  # noqa: BLE001 - the server must answer
            response = Response.error(
                500, f"internal error: {type(error).__name__}: {error}"
            )
        elapsed = time.perf_counter() - started
        self.requests_served += 1
        self.registry.histogram("serve.request_seconds").observe(elapsed)
        for name, seconds in context.finalize(elapsed).items():
            self.registry.histogram(
                f"serve.segment_seconds.{name}"
            ).observe(seconds)
        self.slo.record(response.status < 500, elapsed)
        self._check_slo()
        self._count_response(response.status)
        response = self._with_trace_header(response, context)
        if (
            telemetry.enabled()
            and self.requests_served % METRICS_EVERY_REQUESTS == 0
        ):
            self._emit_metrics_event()
        return response

    @staticmethod
    def _with_trace_header(
        response: Response | StreamingResponse, context: TraceContext
    ) -> Response | StreamingResponse:
        headers = response.headers + (("X-Trace-Id", context.trace_id),)
        if isinstance(response, StreamingResponse):
            response.headers = headers
            return response
        return replace(response, headers=headers)

    def _check_slo(self) -> None:
        """Emit breach/recovered telemetry on SLO compliance transitions."""
        if not telemetry.enabled():
            return
        compliance = self.slo.compliance()
        for objective, compliant in compliance.items():
            if compliant != self._slo_compliant[objective]:
                kind = (
                    "serve.slo.recovered"
                    if compliant
                    else "serve.slo.breach"
                )
                telemetry.emit(
                    kind,
                    objective=objective,
                    slo=self.slo.snapshot()[objective],
                )
        self._slo_compliant = compliance

    async def _dispatch(
        self, request: Request
    ) -> Response | StreamingResponse:
        path = request.path
        if path == "/healthz":
            self._require_method(request, "GET")
            return Response.json({"status": "ok"})
        if path == "/metrics":
            self._require_method(request, "GET")
            return Response.text(render_openmetrics(self.metrics_snapshot()))
        if path == "/v1/stats":
            self._require_method(request, "GET")
            return Response.json(self.stats())
        if path == "/v1/query":
            self._require_method(request, "POST")
            return await self._handle_query(request)
        if path == "/v1/jobs":
            self._require_method(request, "POST")
            return self._handle_job_submit(request)
        if path == "/v1/events":
            self._require_method(request, "GET")
            return self._handle_firehose(request)
        if path.startswith("/v1/jobs/") and path.endswith("/events"):
            self._require_method(request, "GET")
            job_id = path.removeprefix("/v1/jobs/").removesuffix("/events")
            return self._handle_job_events(job_id)
        if path.startswith("/v1/jobs/"):
            self._require_method(request, "GET")
            job = self.jobs.get(path.removeprefix("/v1/jobs/"))
            return Response.json(job.status())
        raise ServeError(f"no route for {path!r}", status=404)

    @staticmethod
    def _require_method(request: Request, method: str) -> None:
        if request.method != method:
            raise ServeError(
                f"{request.path} only supports {method}, "
                f"got {request.method}",
                status=405,
            )

    # -- queries --------------------------------------------------------------

    async def _handle_query(self, request: Request) -> Response:
        payload = request.json_object()
        kind = payload.get("kind")
        if kind == "hw":
            return await self._query_hw(payload)
        if kind == "option":
            return await self._query_cached(
                "option", payload, lambda: asyncio.to_thread(
                    _evaluate_option, payload
                )
            )
        if kind == "network":
            return await self._query_cached(
                "network", payload, lambda: asyncio.to_thread(
                    _analyze_network, payload
                )
            )
        raise ProtocolError(
            f"unknown query kind {kind!r} "
            "(expected 'hw', 'option', or 'network')"
        )

    async def _query_hw(self, payload: Mapping[str, Any]) -> Response:
        model = payload.get("model", "small")
        batcher = self.batchers.get(model)
        if batcher is None:
            raise ProtocolError(
                f"unknown hw model {model!r} "
                f"(expected one of {sorted(self.batchers)})"
            )
        from repro.params.defaults import PAPER_HARDWARE

        # Absent parameters fall back to the paper's values (the same
        # override semantics as the option query); the cache key is built
        # from the resolved params, so defaulted and explicit requests for
        # the same numbers share one entry.
        params = {
            name: _probability(payload, name, getattr(PAPER_HARDWARE, name))
            for name in ("a_role", "a_vm", "a_host", "a_rack")
        }
        key = result_key("hw", {"model": model, **params})
        started = time.perf_counter()
        value, outcome = await self.cache.get_with_outcome(
            key, lambda: batcher.submit(params)
        )
        self._observe_query(started, outcome)
        record = {
            "kind": "hw",
            "model": model,
            "availability": value,
            "cache": outcome,
        }
        return Response.json(self._with_trace_payload(record))

    async def _query_cached(
        self, kind: str, payload: Mapping[str, Any], compute: Any
    ) -> Response:
        body = {k: v for k, v in payload.items() if k != "kind"}
        key = result_key(kind, body)
        started = time.perf_counter()
        value, outcome = await self.cache.get_with_outcome(
            key, lambda: self._timed_compute(compute)
        )
        self._observe_query(started, outcome)
        record = {"kind": kind, "cache": outcome, **value}
        return Response.json(self._with_trace_payload(record))

    @staticmethod
    async def _timed_compute(compute: Any) -> Any:
        """Run an un-batched computation, attributing it kernel time."""
        trace = current_trace()
        if trace is None:
            return await compute()
        started = time.perf_counter()
        try:
            return await compute()
        finally:
            trace.add_segment(
                "kernel_compute", time.perf_counter() - started
            )

    @staticmethod
    def _with_trace_payload(record: dict[str, Any]) -> dict[str, Any]:
        trace = current_trace()
        if trace is not None:
            record["trace"] = trace.payload()
        return record

    def _observe_query(self, started: float, outcome: str) -> None:
        elapsed = time.perf_counter() - started
        self.registry.histogram(
            f"serve.query_seconds.{outcome}"
        ).observe(elapsed)

    # -- jobs -----------------------------------------------------------------

    def _handle_job_submit(self, request: Request) -> Response:
        payload = request.json_object()
        kind = payload.get("kind")
        if not isinstance(kind, str):
            raise ProtocolError(
                "job submission needs 'kind': "
                "'campaign' or 'network_campaign'"
            )
        spec = payload.get("spec")
        if not isinstance(spec, Mapping):
            raise ProtocolError("job submission needs 'spec': a JSON object")
        job = self.jobs.submit(kind, spec, request.tenant)
        return Response.json(job.status(), status=202)

    # -- streaming ------------------------------------------------------------

    def _require_hub(self) -> TelemetryHub:
        hub = self._ensure_hub()
        if hub is None:
            raise ServeError(
                "event streaming needs an active telemetry bus "
                "(start the server with --telemetry or --stream)",
                status=503,
            )
        return hub

    def _handle_firehose(self, request: Request) -> StreamingResponse:
        """``GET /v1/events`` — every bus event as it happens.

        ``?kinds=a,b`` filters by event kind; ``?replay=1`` prepends the
        hub's buffered history (the firehose defaults to live-only —
        job streams, which need a complete record, always replay).
        """
        hub = self._require_hub()
        kinds_param = request.query.get("kinds", "")
        kinds = {k.strip() for k in kinds_param.split(",") if k.strip()}
        replay = request.query.get("replay", "") in ("1", "true", "yes")
        predicate = None
        if kinds:
            def predicate(event: Mapping[str, Any]) -> bool:
                return str(event.get("kind", "")) in kinds
        subscription = hub.subscribe(predicate=predicate, replay=replay)
        return StreamingResponse(chunks=self._sse_chunks(subscription))

    def _handle_job_events(self, job_id: str) -> StreamingResponse:
        """``GET /v1/jobs/<id>/events`` — one job's stream, ending with it.

        Replays the buffered events for the job (so connecting after
        submission loses nothing the hub still holds), then follows live
        until the job's ``serve.job.end`` event has been delivered.
        """
        job = self.jobs.get(job_id)  # 404 for unknown ids
        hub = self._require_hub()

        def belongs(event: Mapping[str, Any]) -> bool:
            return event.get("job_id") == job_id

        def is_end(event: Mapping[str, Any]) -> bool:
            return event.get("kind") == "serve.job.end" and belongs(event)

        subscription = hub.subscribe(predicate=belongs, replay=True)
        # A terminal job emitted its end event before this subscription
        # existed; if the ring no longer holds it, close after replay
        # rather than waiting for an event that will never come.
        follow = job.state not in _TERMINAL_STATES or any(
            is_end(event) for event in subscription.replayed
        )
        return StreamingResponse(
            chunks=self._sse_chunks(
                subscription, end_when=is_end, follow=follow
            )
        )

    async def _sse_chunks(
        self,
        subscription: Subscription,
        end_when: Any = None,
        follow: bool = True,
    ) -> AsyncIterator[bytes]:
        """Replayed then live SSE frames; heartbeats keep idle streams up."""
        heartbeat = self.config.stream_heartbeat_seconds
        try:
            for event in subscription.replayed:
                yield encode_sse_event(event)
                if end_when is not None and end_when(event):
                    return
            if not follow:
                return
            while True:
                item = await subscription.get(timeout=heartbeat)
                if item is None:
                    yield b": keepalive\n\n"
                    continue
                if item is STREAM_CLOSED:
                    return
                yield encode_sse_event(item)
                if end_when is not None and end_when(item):
                    return
        finally:
            subscription.unsubscribe()

    # -- observability --------------------------------------------------------

    def metrics_snapshot(self) -> dict[str, Any]:
        """The registry snapshot overlaid with serve-layer instruments.

        The cache counts directly on this registry, so only the layers
        that still keep their own counters (admission, jobs, batchers)
        are overlaid by delta here.
        """
        counters: dict[str, float] = {}
        counters.update(self.admission.counters())
        counters.update(self.jobs.counters())
        for batcher in self.batchers.values():
            for name, value in batcher.counters().items():
                counters[name] = counters.get(name, 0) + value
        for name, value in counters.items():
            counter = self.registry.counter(name)
            if value > counter.value:
                counter.increment(value - counter.value)
        depths = self.jobs.queue_depths()
        self.registry.gauge("serve.jobs.queue_depth").set(sum(depths))
        for shard, depth in enumerate(depths):
            self.registry.gauge(
                f"serve.jobs.queue_depth.shard{shard}"
            ).set(depth)
        self.registry.gauge("serve.cache.entries").set(len(self.cache))
        self.registry.gauge(
            "serve.admission.inflight"
        ).set(self.admission.total_inflight)
        for name, value in self.slo.gauges().items():
            self.registry.gauge(name).set(value)
        self.registry.gauge("serve.stream.subscribers").set(
            self._hub.subscriber_count if self._hub is not None else 0
        )
        return self.registry.snapshot()

    def stats(self) -> dict[str, Any]:
        """JSON operational stats, including latency quantiles."""
        self.metrics_snapshot()  # refresh overlaid counters and gauges

        def latency(name: str) -> dict[str, Any]:
            histogram = self.registry.histogram(name)
            if not histogram.count:
                return {"count": 0, "total_seconds": 0.0}
            return {
                "count": histogram.count,
                "total_seconds": histogram.total,
                "mean_seconds": histogram.mean,
                "p50_seconds": histogram.quantile(0.50),
                "p99_seconds": histogram.quantile(0.99),
            }

        return {
            "requests": self.requests_served,
            "cache": self.cache.counters() | {"entries": len(self.cache)},
            "admission": self.admission.counters()
            | {"inflight": self.admission.total_inflight},
            "jobs": self.jobs.counters()
            | {"queue_depths": self.jobs.queue_depths()},
            "batch": {
                name: batcher.counters()
                for name, batcher in self.batchers.items()
            },
            "latency": {
                "request": latency("serve.request_seconds"),
                "query_hit": latency("serve.query_seconds.hit"),
                "query_miss": latency("serve.query_seconds.miss"),
                "query_coalesced": latency("serve.query_seconds.coalesced"),
            },
            # Per-request attribution: each finished request's wall time is
            # decomposed into these segments, so across any traffic mix the
            # segment totals sum to the request-histogram total (the
            # loadtest's coverage check).
            "segments": {
                name: latency(f"serve.segment_seconds.{name}")
                for name in SEGMENT_NAMES
            },
            "slo": self.slo.snapshot(),
        }

    def _count_response(self, status: int) -> None:
        self.registry.counter(
            f"serve.responses.{status // 100}xx"
        ).increment()

    def _emit_metrics_event(self) -> None:
        if telemetry.enabled():
            telemetry.emit("metrics", snapshot=self.metrics_snapshot())
