"""Availability-as-a-service: the analytic and campaign stacks over HTTP.

A stdlib-only asyncio service that answers the paper's availability
questions on demand instead of per CLI invocation:

* :mod:`repro.serve.protocol` — minimal HTTP/1.1 framing with hard
  request limits (plus chunked :class:`StreamingResponse` for live
  streams);
* :mod:`repro.serve.cache` — single-flight, LRU-bounded result cache
  keyed on canonical parameter hashes (schema-versioned, so version
  bumps self-invalidate);
* :mod:`repro.serve.batching` — micro-batching of concurrent closed-form
  queries into one vectorized kernel call;
* :mod:`repro.serve.admission` — queue-depth and per-tenant caps that
  shed overload with 429s;
* :mod:`repro.serve.jobs` — the sharded campaign job queue (submit,
  poll), deterministic-identical to CLI runs;
* :mod:`repro.serve.stream` — server-sent-events fan-out of the live
  telemetry bus (``GET /v1/events``, ``GET /v1/jobs/<id>/events``);
* :mod:`repro.serve.loadtest` — open-loop multi-tenant load generation
  and the attribution-coverage check;
* :mod:`repro.serve.app` — routing, instrumentation, and lifecycle.

``repro-avail serve`` starts a server (``repro-avail serve loadtest``
drives one); ``repro-avail query`` is a tiny line client;
``docs/SERVE.md`` documents the HTTP API.
"""

from repro.serve.admission import (
    AdmissionController,
    AdmissionError,
    AdmissionPolicy,
)
from repro.serve.app import ServeApp, ServeConfig
from repro.serve.batching import MicroBatcher
from repro.serve.cache import (
    CACHE_KEY_VERSIONS,
    SingleFlightCache,
    result_key,
)
from repro.serve.jobs import Job, JobQueue
from repro.serve.loadtest import LoadtestConfig, LoadtestReport, run_loadtest
from repro.serve.protocol import (
    ProtocolError,
    Request,
    Response,
    StreamingResponse,
    read_request,
)
from repro.serve.stream import TelemetryHub, encode_sse_event

__all__ = [
    "AdmissionController",
    "AdmissionError",
    "AdmissionPolicy",
    "ServeApp",
    "ServeConfig",
    "MicroBatcher",
    "CACHE_KEY_VERSIONS",
    "SingleFlightCache",
    "result_key",
    "Job",
    "JobQueue",
    "LoadtestConfig",
    "LoadtestReport",
    "run_loadtest",
    "ProtocolError",
    "Request",
    "Response",
    "StreamingResponse",
    "TelemetryHub",
    "encode_sse_event",
    "read_request",
]
