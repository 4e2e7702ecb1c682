"""Unit tests for the observability layer (repro.obs) and its writers."""

from __future__ import annotations

import csv
import json
import math

import pytest

from repro.errors import ObservabilityError
from repro.obs import runtime as obs
from repro.obs.export import render_manifest, summarize_spans
from repro.obs.manifest import (
    SCHEMA_VERSION,
    PhaseTiming,
    RunManifest,
    package_version,
    params_hash,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    TimingHistogram,
)
from repro.obs.trace import Span, Tracer
from repro.reporting import (
    write_manifest_csv,
    write_manifest_json,
    write_spans_csv,
)


@pytest.fixture(autouse=True)
def _no_leaked_session():
    """Every test starts and ends with the runtime disabled."""
    obs.stop()
    yield
    obs.stop()


class FakeClock:
    """Deterministic monotonic clock for exact span-timing assertions."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestTracer:
    def test_span_timing_and_nesting(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("outer", size=3):
            clock.advance(1.0)
            with tracer.span("inner"):
                clock.advance(0.25)
            clock.advance(0.5)
        # children complete (and record) before parents
        inner, outer = tracer.spans
        assert (inner.name, inner.depth, inner.parent) == ("inner", 1, "outer")
        assert inner.start == 1.0 and inner.duration == 0.25
        assert (outer.name, outer.depth, outer.parent) == ("outer", 0, None)
        assert outer.duration == 1.75
        assert outer.attrs == {"size": 3}

    def test_depth_tracks_open_spans(self):
        tracer = Tracer(clock=FakeClock())
        assert tracer.depth == 0
        with tracer.span("a"):
            assert tracer.depth == 1
            with tracer.span("b"):
                assert tracer.depth == 2
        assert tracer.depth == 0

    def test_span_recorded_when_body_raises(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(ValueError):
            with tracer.span("failing"):
                raise ValueError("boom")
        assert [s.name for s in tracer.spans] == ["failing"]
        assert tracer.depth == 0

    def test_roots_in_start_order(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("first"):
            clock.advance(1.0)
        with tracer.span("second"):
            clock.advance(1.0)
            with tracer.span("child"):
                pass
        assert [s.name for s in tracer.roots()] == ["first", "second"]

    def test_span_round_trips_through_dict(self):
        span = Span(
            name="x", start=0.5, duration=0.1, depth=1, parent="p",
            attrs={"k": 2},
        )
        assert Span.from_dict(span.to_dict()) == span


class TestMetrics:
    def test_counter_accumulates_and_rejects_negative(self):
        counter = Counter("events")
        counter.increment()
        counter.increment(4)
        assert counter.value == 5.0
        with pytest.raises(ValueError):
            counter.increment(-1)

    def test_gauge_last_value_wins(self):
        gauge = Gauge("utilization")
        assert gauge.value is None
        gauge.set(0.5)
        gauge.set(0.75)
        assert gauge.value == 0.75

    def test_histogram_streaming_summary(self):
        histogram = TimingHistogram("chunk")
        # Zero-sample histograms render as absent stats, never NaN.
        assert histogram.summary() == {"count": 0}
        for value in (0.2, 0.1, 0.4):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 3
        assert summary["total"] == pytest.approx(0.7)
        assert summary["mean"] == pytest.approx(0.7 / 3)
        assert summary["min"] == 0.1 and summary["max"] == 0.4
        assert sum(summary["bins"]) == 3

    def test_registry_create_on_demand_and_snapshot(self):
        registry = MetricsRegistry()
        assert registry.counter("b") is registry.counter("b")
        registry.counter("b").increment(2)
        registry.counter("a").increment()
        registry.gauge("g").set(1.5)
        registry.histogram("h").observe(0.5)
        snapshot = registry.snapshot()
        assert list(snapshot["counters"]) == ["a", "b"]
        assert snapshot["counters"]["b"] == 2.0
        assert snapshot["gauges"] == {"g": 1.5}
        assert snapshot["histograms"]["h"]["count"] == 1
        json.dumps(snapshot)  # must be JSON-serializable
        registry.clear()
        assert registry.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }


class TestParamsHash:
    def test_equal_configurations_hash_equal(self):
        assert params_hash({"a": 1, "b": (1, 2)}) == params_hash(
            {"b": [1, 2], "a": 1}
        )

    def test_different_configurations_hash_differently(self):
        assert params_hash({"a": 1}) != params_hash({"a": 2})

    def test_sets_are_order_insensitive(self):
        assert params_hash({"s": {3, 1, 2}}) == params_hash({"s": {1, 2, 3}})


class TestManifest:
    def _manifest(self) -> RunManifest:
        return RunManifest.build(
            command="perf",
            arguments={"samples": 10_000, "workers": 4, "pi": math.pi},
            topology="small",
            seed={"mc_root": 7, "mc_chunk_size": 256},
            solver_path=("monte-carlo", "vectorized"),
            phases=(PhaseTiming("cli.perf", 1.25),),
            metrics={
                "counters": {"perf.mc.samples": 10000.0},
                "gauges": {"perf.mc.worker_utilization": 0.875},
                "histograms": {},
            },
            spans=(
                {
                    "name": "perf.monte_carlo", "start": 0.0,
                    "duration": 1.25, "depth": 0, "parent": None,
                    "attrs": {"samples": 10000},
                },
            ),
        )

    def test_build_derives_hash_and_version(self):
        manifest = self._manifest()
        assert manifest.params_hash == params_hash(manifest.arguments)
        assert manifest.package_version == package_version()
        assert manifest.schema_version == SCHEMA_VERSION

    def test_json_round_trip_is_lossless(self):
        manifest = self._manifest()
        assert RunManifest.from_json(manifest.to_json()) == manifest
        # floats survive exactly, not approximately
        restored = RunManifest.from_json(manifest.to_json())
        assert restored.arguments["pi"] == math.pi

    def test_write_and_load(self, tmp_path):
        manifest = self._manifest()
        path = manifest.write(tmp_path / "nested" / "trace.json")
        assert RunManifest.load(path) == manifest

    def test_malformed_records_raise(self):
        with pytest.raises(ObservabilityError):
            RunManifest.from_json("not json {")
        with pytest.raises(ObservabilityError):
            RunManifest.from_json("[1, 2]")
        record = self._manifest().to_dict()
        del record["solver_path"]
        with pytest.raises(ObservabilityError):
            RunManifest.from_dict(record)

    def test_phase_seconds_sums_by_name(self):
        manifest = RunManifest.build(
            command="x",
            phases=(
                PhaseTiming("a", 1.0),
                PhaseTiming("b", 0.5),
                PhaseTiming("a", 0.25),
            ),
        )
        assert manifest.phase_seconds() == {"a": 1.25, "b": 0.5}


class TestRuntime:
    def test_disabled_helpers_are_no_ops(self):
        assert not obs.enabled()
        assert obs.active() is None
        with obs.span("ignored", size=1):
            pass
        obs.count("ignored")
        obs.gauge("ignored", 1.0)
        obs.observe("ignored", 0.1)
        obs.note_solver("ignored")
        obs.annotate("ignored", "x")
        assert obs.stop() is None

    def test_null_span_is_shared(self):
        assert obs.span("a") is obs.span("b")

    def test_session_records_through_helpers(self):
        with obs.session("study") as session:
            assert obs.enabled() and obs.active() is session
            with obs.span("phase", size=2):
                obs.count("events", 3)
                obs.observe("latency", 0.5)
            obs.gauge("load", 0.9)
            obs.note_solver("markov")
            obs.note_solver("markov")  # deduplicated
            obs.annotate("topology", "small")
            obs.annotate("seed.root", 7)
        assert not obs.enabled()
        assert session.solver_path == ["markov"]
        assert [s.name for s in session.tracer.spans] == ["phase"]
        assert session.metrics.counter("events").value == 3.0

    def test_nested_start_raises(self):
        obs.start("outer")
        try:
            with pytest.raises(ObservabilityError):
                obs.start("inner")
        finally:
            obs.stop()

    def test_build_manifest_uses_annotations(self):
        with obs.session("study") as session:
            obs.annotate("topology", "medium")
            obs.annotate("seed.mc_root", 11)
            with obs.span("phase.one"):
                pass
        manifest = session.build_manifest(arguments={"samples": 5})
        assert manifest.command == "study"
        assert manifest.topology == "medium"
        assert manifest.seed == {"mc_root": 11}
        assert [p.name for p in manifest.phases] == ["phase.one"]
        # explicit values override the annotations
        override = session.build_manifest(
            topology="large", seed={"mc_root": 99}
        )
        assert override.topology == "large"
        assert override.seed == {"mc_root": 99}


class TestExport:
    def test_summarize_spans_aggregates_by_name(self):
        spans = [
            {"name": "a", "duration": 1.0},
            {"name": "b", "duration": 5.0},
            {"name": "a", "duration": 3.0},
        ]
        assert summarize_spans(spans) == [
            ("b", 1, 5.0, 5.0),
            ("a", 2, 4.0, 2.0),
        ]

    def test_render_manifest_sections(self):
        with obs.session("demo") as session:
            obs.annotate("topology", "small")
            obs.annotate("seed.root", 3)
            with obs.span("demo.phase"):
                obs.count("demo.events", 2)
                obs.observe("demo.seconds", 0.5)
            obs.gauge("demo.load", 0.25)
            obs.note_solver("closed-form")
        manifest = session.build_manifest(arguments={"points": 41})
        text = render_manifest(manifest)
        for fragment in (
            "Run manifest", "closed-form", "seed.root", "Arguments",
            "points", "Phases", "demo.phase", "Metrics", "demo.events",
            "Span profile",
        ):
            assert fragment in text


class TestReportingWriters:
    def _manifest(self) -> RunManifest:
        with obs.session("writers") as session:
            obs.annotate("seed.root", 5)
            with obs.span("phase", kind="demo"):
                obs.count("events", 7)
                obs.observe("seconds", 0.25)
        return session.build_manifest(arguments={"samples": 12})

    def test_write_manifest_json(self, tmp_path):
        manifest = self._manifest()
        path = write_manifest_json(tmp_path / "trace.json", manifest)
        assert RunManifest.load(path) == manifest

    def test_write_manifest_csv(self, tmp_path):
        manifest = self._manifest()
        path = write_manifest_csv(tmp_path / "trace.csv", manifest)
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["section", "name", "value"]
        sections = {row[0] for row in rows[1:]}
        assert {"run", "argument", "seed", "phase", "counter"} <= sections
        by_key = {(row[0], row[1]): row[2] for row in rows[1:]}
        assert by_key[("argument", "samples")] == "12"
        assert by_key[("histogram", "seconds.count")] == "1"

    def test_write_spans_csv(self, tmp_path):
        manifest = self._manifest()
        path = write_spans_csv(tmp_path / "spans.csv", manifest)
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["name", "start_s", "duration_s", "depth", "parent"]
        assert rows[1][0] == "phase"
