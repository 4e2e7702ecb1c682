"""Observability layer: tracing, metrics, manifests, telemetry, forensics.

The pieces are built to be *zero-cost when disabled* and to never perturb
results (instrumented runs are bit-identical to uninstrumented ones):

* :mod:`repro.obs.trace` — the span tracer (monotonic timings, nesting)
  and :class:`TraceContext`, the one ambient request/job context: trace
  ids, a job id, and the request's latency ledger, installed with
  :func:`trace_scope`;
* :mod:`repro.obs.metrics` — counters, gauges, and timing histograms;
* :mod:`repro.obs.manifest` — :class:`RunManifest`, the JSON-round-tripping
  provenance record (params hash, topology, seed material, package version,
  solver path, per-phase timings) of one run;
* :mod:`repro.obs.telemetry` — streaming event bus with pluggable sinks
  (rotating JSONL, in-process aggregation, Prometheus/OpenMetrics text
  snapshots) carrying progress/heartbeat and metric-snapshot events, each
  stamped with the ids of the trace context in scope;
* :mod:`repro.obs.slo` — rolling availability/latency objectives with
  burn rate and error budget;
* :mod:`repro.obs.forensics` — cross-checks simulated per-outage
  attribution ledgers against analytic Birnbaum / Fussell–Vesely
  importance (imported lazily — ``from repro.obs import forensics`` — to
  keep the base package free of :mod:`repro.sim` imports).

Instrumented code goes through :mod:`repro.obs.runtime`, whose module-level
helpers collapse to no-ops while no session is active; the CLI's global
``--trace file.json`` flag, per-run ``--telemetry file.jsonl`` flags, and
the ``repro-avail obs`` subcommand are the user-facing entry points.
"""

from repro.obs.manifest import (
    SCHEMA_VERSION,
    PhaseTiming,
    RunManifest,
    package_version,
    params_hash,
)
from repro.obs.metrics import Counter, Gauge, MetricsRegistry, TimingHistogram
from repro.obs.runtime import (
    ObsSession,
    active,
    annotate,
    count,
    enabled,
    gauge,
    note_solver,
    observe,
    session,
    span,
    start,
    stop,
)
from repro.obs.slo import SLOConfig, SLOTracker
from repro.obs.telemetry import (
    TELEMETRY_SCHEMA_VERSION,
    AggregatorSink,
    JsonlSink,
    PrometheusSink,
    ProgressTracker,
    TelemetryBus,
    follow_sse,
    read_events,
    render_event,
    render_openmetrics,
)
from repro.obs.trace import (
    Span,
    TraceContext,
    Tracer,
    current_trace,
    trace_scope,
)
from repro.obs.export import render_manifest, summarize_spans

__all__ = [
    # trace
    "Span",
    "Tracer",
    "TraceContext",
    "current_trace",
    "trace_scope",
    # metrics
    "Counter",
    "Gauge",
    "TimingHistogram",
    "MetricsRegistry",
    # manifest
    "SCHEMA_VERSION",
    "PhaseTiming",
    "RunManifest",
    "params_hash",
    "package_version",
    # runtime
    "ObsSession",
    "start",
    "stop",
    "active",
    "enabled",
    "session",
    "span",
    "count",
    "gauge",
    "observe",
    "note_solver",
    "annotate",
    # telemetry
    "TELEMETRY_SCHEMA_VERSION",
    "TelemetryBus",
    "JsonlSink",
    "AggregatorSink",
    "PrometheusSink",
    "ProgressTracker",
    "follow_sse",
    "read_events",
    "render_event",
    "render_openmetrics",
    # slo
    "SLOConfig",
    "SLOTracker",
    # export
    "render_manifest",
    "summarize_spans",
]
