"""Which layer functions the traced runs wrap, and the metrics they give.

:func:`install` wraps each layer's public entry points (see the table in
``perfbench/README.md``) with spans from :mod:`perfbench.tracer`;
:func:`layer_metrics` folds the span aggregates into the per-layer metric
names.  Installation must happen before the program builds the objects
that hold references to the wrapped functions (the serve app's hw
batchers, a simulator's event queue), so launchers call it first.
"""

from __future__ import annotations

import contextvars
import importlib
from typing import Any

from tracer import Tracer, wrap_function, wrap_method

#: The request line's arrival time for the read in progress (per task).
_request_line_at: contextvars.ContextVar[list | None] = contextvars.ContextVar(
    "perfbench_request_line_at", default=None
)


def _length(result: Any, args: tuple, kwargs: dict) -> float:
    return float(len(result))


def _rows(result: Any, args: tuple, kwargs: dict) -> float:
    import numpy as np

    return float(np.size(args[0]))


def _terms(result: Any, args: tuple, kwargs: dict) -> float:
    return float(result.term_count)


def _pairs(result: Any, args: tuple, kwargs: dict) -> float:
    return float(result.availability.size)


def _evaluations(result: Any, args: tuple, kwargs: dict) -> float:
    return float(result.evaluations)


def _stale_count(result: Any, args: tuple, kwargs: dict) -> float:
    if len(args) > 1:
        return float(args[1])
    return float(kwargs.get("count", 1))


def _batched_events(result: Any, args: tuple, kwargs: dict) -> float:
    return float(sum(count for _, count in result))


def _install_protocol(tracer: Tracer) -> None:
    """``read_request`` time from its request line's arrival to the parse.

    A keep-alive connection sits in ``read_request`` while idle, so the
    span starts when the first line arrives, not when the read began.
    """
    protocol = importlib.import_module("repro.serve.protocol")
    app = importlib.import_module("repro.serve.app")
    read_line = protocol._read_line
    read_request = protocol.read_request
    clock = tracer.clock

    async def timed_read_line(*args: Any, **kwargs: Any) -> Any:
        line = await read_line(*args, **kwargs)
        marker = _request_line_at.get()
        if marker is not None and not marker:
            marker.append(clock())
        return line

    async def timed_read_request(*args: Any, **kwargs: Any) -> Any:
        marker: list[float] = []
        token = _request_line_at.set(marker)
        try:
            request = await read_request(*args, **kwargs)
        finally:
            _request_line_at.reset(token)
        if request is not None and marker:
            tracer.record("serve.protocol.read_request", clock() - marker[0])
        return request

    protocol._read_line = timed_read_line
    protocol.read_request = timed_read_request
    app.read_request = timed_read_request


def install(tracer: Tracer) -> None:
    """Wrap every traced layer's entry points in this process."""
    for module in (
        "repro.perf.vectorized",
        "repro.models.sw_options",
        "repro.core.cutsets",
        "repro.core.sdp",
        "repro.network.paths",
        "repro.network.batch",
        "repro.network.placement",
        "repro.sim.engine",
        "repro.sim.events",
        "repro.sim.rng",
        "repro.sim.measures",
        "repro.sim.batched",
        "repro.faults.campaign",
        "repro.faults.crossval",
        "repro.serve.app",
    ):
        importlib.import_module(module)
    for model in ("hw_small_array", "hw_medium_array", "hw_large_array"):
        wrap_function(
            tracer, "repro.perf.vectorized", model,
            "perf.vectorized.hw_kernel", _rows,
        )
    wrap_function(
        tracer, "repro.models.sw_options", "evaluate_option",
        "models.sw_options.evaluate_option",
    )
    wrap_function(
        tracer, "repro.core.cutsets", "minimal_cut_sets",
        "core.cutsets.minimal_cut_sets", _length,
    )
    wrap_function(
        tracer, "repro.core.sdp", "compile_sdp",
        "core.sdp.compile_sdp", _terms,
    )
    wrap_function(
        tracer, "repro.network.paths", "analyze_switch",
        "network.paths.analyze_switch",
    )
    wrap_function(
        tracer, "repro.network.batch", "compile_pair_sweep",
        "network.batch.compile_pair_sweep",
    )
    batch = importlib.import_module("repro.network.batch")
    wrap_method(
        tracer, batch.PairSweepPlan, "evaluate",
        "network.batch.evaluate", _pairs,
    )
    wrap_function(
        tracer, "repro.network.placement", "optimize_placement",
        "network.placement.optimize_placement", _evaluations,
    )
    _install_simulator(tracer)
    wrap_function(
        tracer, "repro.sim.batched", "plan_batched", "sim.batched.plan_batched"
    )
    wrap_function(
        tracer, "repro.sim.batched", "run_batched",
        "sim.batched.run_batched", _batched_events,
    )
    wrap_function(
        tracer, "repro.faults.crossval", "analytic_for_campaign",
        "faults.crossval.analytic_for_campaign",
    )
    _install_protocol(tracer)


#: Event-queue methods counted as ``sim.events.ops`` (plus ``note_stale``).
_QUEUE_OPS = ("schedule", "pop", "compact")


def _install_simulator(tracer: Tracer) -> None:
    engine = importlib.import_module("repro.sim.engine")
    events = importlib.import_module("repro.sim.events")
    rng = importlib.import_module("repro.sim.rng")
    measures = importlib.import_module("repro.sim.measures")

    simulator = engine.AvailabilitySimulator
    run = simulator.__dict__["run"]

    def traced_run(self: Any, *args: Any, **kwargs: Any) -> Any:
        before = self.events_processed
        frame = tracer.begin("sim.engine.run")
        try:
            return run(self, *args, **kwargs)
        finally:
            tracer.end(frame, float(self.events_processed - before))

    simulator.run = traced_run
    for method in _QUEUE_OPS:
        wrap_method(
            tracer, events.EventQueue, method, f"sim.events.{method}"
        )
    wrap_method(
        tracer, events.EventQueue, "note_stale", "sim.events.note_stale",
        _stale_count,
    )
    wrap_method(tracer, rng.RngStreams, "exponential", "sim.rng.exponential")
    wrap_method(tracer, measures.BinarySignal, "update", "sim.measures.update")
    wrap_function(
        tracer, "repro.sim.measures", "build_attribution",
        "sim.measures.build_attribution",
    )


def layer_metrics(aggregates: dict[str, dict[str, float]]) -> dict[str, float]:
    """Per-layer metrics from merged span aggregates (see README table)."""

    def calls(name: str) -> float:
        return float(aggregates.get(name, {}).get("calls", 0))

    def total_ms(name: str) -> float:
        return 1000.0 * aggregates.get(name, {}).get("total", 0.0)

    def self_ms(name: str) -> float:
        return 1000.0 * aggregates.get(name, {}).get("self", 0.0)

    def units(name: str) -> float:
        return float(aggregates.get(name, {}).get("units", 0.0))

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    batched_s = aggregates.get("sim.batched.run_batched", {}).get("total", 0.0)
    return {
        "serve.protocol.read_request_ms": total_ms("serve.protocol.read_request"),
        "perf.vectorized.hw_kernel_ms": total_ms("perf.vectorized.hw_kernel"),
        "perf.vectorized.hw_rows": units("perf.vectorized.hw_kernel"),
        "models.sw_options.evaluate_option_ms": total_ms(
            "models.sw_options.evaluate_option"
        ),
        "models.sw_options.evaluate_option.calls": calls(
            "models.sw_options.evaluate_option"
        ),
        "network.paths.analyze_switch_ms": total_ms(
            "network.paths.analyze_switch"
        ),
        "network.paths.analyze_switch.calls": calls(
            "network.paths.analyze_switch"
        ),
        "sim.engine.events": units("sim.engine.run"),
        "sim.engine.self_ms": self_ms("sim.engine.run"),
        "sim.rng.draws": calls("sim.rng.exponential"),
        "sim.rng.ms": total_ms("sim.rng.exponential"),
        # ``compact`` runs inside ``note_stale``: count note_stale's self
        # time only, so the compaction is not counted twice.
        "sim.events.ops": sum(
            calls(f"sim.events.{op}") for op in (*_QUEUE_OPS, "note_stale")
        ),
        "sim.events.ms": sum(total_ms(f"sim.events.{op}") for op in _QUEUE_OPS)
        + self_ms("sim.events.note_stale"),
        "sim.events.stale_ratio": ratio(
            units("sim.events.note_stale"), calls("sim.events.schedule")
        ),
        "sim.measures.updates": calls("sim.measures.update"),
        "sim.measures.update_ms": total_ms("sim.measures.update"),
        "sim.measures.attribution_ms": total_ms("sim.measures.build_attribution"),
        "sim.batched.plan_ms": total_ms("sim.batched.plan_batched"),
        "sim.batched.run_ms": total_ms("sim.batched.run_batched"),
        "sim.batched.events_per_s": ratio(
            units("sim.batched.run_batched"), batched_s
        ),
        "faults.crossval.analytic_ms": total_ms(
            "faults.crossval.analytic_for_campaign"
        ),
        "core.cutsets.ms": total_ms("core.cutsets.minimal_cut_sets"),
        "core.cutsets.cut_sets": units("core.cutsets.minimal_cut_sets"),
        "core.sdp.compile_ms": total_ms("core.sdp.compile_sdp"),
        "core.sdp.terms": units("core.sdp.compile_sdp"),
        "core.sdp.compiles_per_analysis": ratio(
            calls("core.sdp.compile_sdp"), calls("network.paths.analyze_switch")
        ),
        "network.batch.compile_ms": total_ms("network.batch.compile_pair_sweep"),
        "network.batch.eval_ms": total_ms("network.batch.evaluate"),
        "network.batch.pairs": units("network.batch.evaluate"),
        "network.placement.ms": total_ms("network.placement.optimize_placement"),
        "network.placement.evaluations": units(
            "network.placement.optimize_placement"
        ),
    }
