"""Unit tests for the streaming telemetry pipeline (:mod:`repro.obs.telemetry`).

Covers the sink zoo (JSONL with rotation, in-process aggregation,
Prometheus/OpenMetrics snapshots), the bus lifecycle, progress tracking,
the ``obs tail`` read/render path, and the worker-snapshot merge rules of
:meth:`repro.obs.metrics.MetricsRegistry.merge_snapshot` the parallel
dispatcher relies on.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ObservabilityError
from repro.obs import telemetry
from repro.obs.metrics import (
    HISTOGRAM_BUCKET_BOUNDS,
    MetricsRegistry,
    TimingHistogram,
)
from repro.obs.telemetry import (
    AggregatorSink,
    JsonlSink,
    PrometheusSink,
    ProgressTracker,
    TelemetryBus,
    read_events,
    render_event,
    render_openmetrics,
)
from repro.obs.trace import TraceContext, trace_scope


@pytest.fixture(autouse=True)
def _no_leaked_bus():
    telemetry.stop()
    yield
    telemetry.stop()


class TestJsonlSink:
    def test_appends_compact_json_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(path)
        sink.emit({"kind": "a", "seq": 0, "x": 1})
        sink.emit({"kind": "b", "seq": 1})
        sink.close()
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0]) == {"kind": "a", "seq": 0, "x": 1}
        assert sink.events_written == 2
        assert sink.rotations == 0

    def test_append_to_existing_file(self, tmp_path):
        path = tmp_path / "events.jsonl"
        JsonlSink(path).emit({"seq": 0})
        sink = JsonlSink(path)
        sink.emit({"seq": 1})
        sink.close()
        assert len(path.read_text(encoding="utf-8").splitlines()) == 2

    def test_size_based_rotation_shifts_backups(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(path, max_bytes=64, max_backups=2)
        for seq in range(30):
            sink.emit({"kind": "heartbeat", "seq": seq})
        sink.close()
        assert sink.rotations > 0
        assert path.with_name("events.jsonl.1").exists()
        assert path.with_name("events.jsonl.2").exists()
        # Backups are capped: nothing past .2 may exist.
        assert not path.with_name("events.jsonl.3").exists()
        # The live file stays within the size budget.
        assert path.stat().st_size <= 64
        # Every surviving line is still valid JSON.
        for name in ("events.jsonl", "events.jsonl.1", "events.jsonl.2"):
            for line in (tmp_path / name).read_text().splitlines():
                json.loads(line)

    def test_rejects_non_positive_max_bytes(self, tmp_path):
        with pytest.raises(ObservabilityError):
            JsonlSink(tmp_path / "x.jsonl", max_bytes=0)

    def test_events_visible_before_close(self, tmp_path):
        """Live followers must see events while the stream is open."""
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(path)
        try:
            sink.emit({"kind": "a", "seq": 0})
            lines = path.read_text(encoding="utf-8").splitlines()
            assert [json.loads(line) for line in lines] == [
                {"kind": "a", "seq": 0}
            ]
        finally:
            sink.close()

    def test_flush_every_batches_flushes(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(path, flush_every=3)
        try:
            sink.emit({"seq": 0})
            sink.emit({"seq": 1})
            assert path.read_text(encoding="utf-8") == ""
            sink.emit({"seq": 2})  # third event flushes the batch
            assert len(path.read_text(encoding="utf-8").splitlines()) == 3
        finally:
            sink.close()
        with pytest.raises(ObservabilityError):
            JsonlSink(tmp_path / "y.jsonl", flush_every=0)

    def test_oversized_event_written_and_rotated_once(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(path, max_bytes=32, max_backups=3)
        big = {"kind": "huge", "seq": 0, "payload": "x" * 100}
        sink.emit(big)
        # The event was written (never dropped) and exactly one rotation
        # retired it to a backup, leaving the live file within budget.
        assert sink.rotations == 1
        assert sink.events_written == 1
        assert path.stat().st_size == 0
        backup = path.with_name("events.jsonl.1")
        assert json.loads(backup.read_text(encoding="utf-8")) == big
        # Subsequent small events append normally without rotation churn.
        sink.emit({"kind": "a", "seq": 1})
        assert sink.rotations == 1
        sink.close()
        assert json.loads(path.read_text(encoding="utf-8"))["kind"] == "a"

    def test_oversized_event_after_existing_content(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(path, max_bytes=64, max_backups=3)
        sink.emit({"kind": "a", "seq": 0})
        before = sink.rotations
        sink.emit({"kind": "huge", "seq": 1, "payload": "y" * 200})
        # One rotation total for the oversized emit — not a pre-rotation of
        # the existing content plus a post-rotation of the big event.
        assert sink.rotations == before + 1
        sink.close()
        lines = path.with_name("events.jsonl.1").read_text().splitlines()
        assert [json.loads(line)["kind"] for line in lines] == ["a", "huge"]

    def test_max_backups_1_replaces_not_accumulates(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(path, max_bytes=16, max_backups=1)
        for seq in range(5):
            sink.emit({"kind": "huge", "seq": seq, "pad": "z" * 40})
        sink.close()
        # Every emit was oversized: each was written then rotated out, and
        # with max_backups=1 the single `.1` backup is replaced in place.
        assert sink.events_written == 5
        assert sink.rotations == 5
        backup = path.with_name("events.jsonl.1")
        assert json.loads(backup.read_text(encoding="utf-8"))["seq"] == 4
        assert not path.with_name("events.jsonl.2").exists()
        assert path.stat().st_size == 0


class TestAggregatorSink:
    def test_counts_and_last_by_kind(self):
        sink = AggregatorSink()
        sink.emit({"kind": "progress", "completed": 1})
        sink.emit({"kind": "progress", "completed": 2})
        sink.emit({"kind": "metrics"})
        assert sink.total == 3
        assert sink.counts == {"progress": 2, "metrics": 1}
        assert sink.last["progress"]["completed"] == 2


class TestOpenMetrics:
    def _snapshot(self):
        registry = MetricsRegistry()
        registry.counter("sim.events").increment(42)
        registry.gauge("perf.workers").set(4)
        histogram = registry.histogram("perf.chunk_seconds")
        histogram.observe(0.002)
        histogram.observe(0.3)
        histogram.observe(120.0)  # overflow bucket
        return registry.snapshot()

    def test_exposition_shape(self):
        text = render_openmetrics(self._snapshot())
        assert "# TYPE sim_events_total counter" in text
        assert "sim_events_total 42.0" in text
        assert "# TYPE perf_workers gauge" in text
        assert "perf_workers 4.0" in text
        assert "# TYPE perf_chunk_seconds_seconds histogram" in text
        assert 'perf_chunk_seconds_seconds_bucket{le="+Inf"} 3' in text
        assert "perf_chunk_seconds_seconds_count 3" in text
        assert text.endswith("# EOF\n")

    def test_buckets_are_cumulative(self):
        text = render_openmetrics(self._snapshot())
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith('perf_chunk_seconds_seconds_bucket{le="')
        ]
        assert len(counts) == len(HISTOGRAM_BUCKET_BOUNDS) + 1
        assert counts == sorted(counts)
        # 120 s observation lives only in +Inf: last finite bound < total.
        assert counts[-2] == 2 and counts[-1] == 3

    def test_none_gauges_are_skipped(self):
        registry = MetricsRegistry()
        registry.gauge("unset")
        text = render_openmetrics(registry.snapshot())
        assert "unset" not in text

    def test_prometheus_sink_reacts_only_to_metrics_events(self, tmp_path):
        path = tmp_path / "metrics.prom"
        sink = PrometheusSink(path)
        sink.emit({"kind": "progress", "completed": 1})
        assert sink.writes == 0 and not path.exists()
        sink.emit({"kind": "metrics", "snapshot": self._snapshot()})
        assert sink.writes == 1
        assert "sim_events_total 42.0" in path.read_text(encoding="utf-8")


class TestBusLifecycle:
    def test_events_carry_schema_and_sequence(self):
        sink = AggregatorSink()
        bus = TelemetryBus([sink])
        first = bus.emit("a", x=1)
        second = bus.emit("b")
        assert first["schema"] == telemetry.TELEMETRY_SCHEMA_VERSION
        assert (first["seq"], second["seq"]) == (0, 1)
        assert (first["run"], second["run"]) == (0, 0)
        assert first["kind"] == "a" and first["x"] == 1
        assert "t" in first

    def test_two_append_cycles_get_distinct_runs(self, tmp_path):
        """Two start/stop cycles into one file: run ids 0 then 1, and
        ``read_events`` orders the combined stream by ``(run, seq)`` even
        though each cycle restarts ``seq`` at 0."""
        path = tmp_path / "stream.jsonl"
        for cycle in range(2):
            telemetry.start([JsonlSink(path)])
            telemetry.emit("cycle.start", cycle=cycle)
            telemetry.emit("cycle.end", cycle=cycle)
            telemetry.stop()
        events = list(read_events(path))
        assert [e["run"] for e in events] == [0, 0, 1, 1]
        assert [e["seq"] for e in events] == [0, 1, 0, 1]
        assert [(e["run"], e["seq"]) for e in events] == sorted(
            (e["run"], e["seq"]) for e in events
        )
        assert [e["cycle"] for e in events] == [0, 0, 1, 1]

    def test_run_continues_past_runless_legacy_events(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        path.write_text(
            json.dumps({"kind": "legacy", "seq": 3}) + "\n", encoding="utf-8"
        )
        sink = JsonlSink(path)
        assert sink.last_run == 0  # legacy events count as run 0
        bus = TelemetryBus([sink])
        assert bus.emit("fresh")["run"] == 1
        bus.close()

    def test_explicit_run_id_wins(self, tmp_path):
        bus = TelemetryBus([AggregatorSink()], run=7)
        assert bus.emit("a")["run"] == 7

    def test_read_events_orders_interleaved_runs(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        rows = [
            {"kind": "b", "run": 1, "seq": 0},
            {"kind": "a", "run": 0, "seq": 1},
            {"kind": "a", "run": 0, "seq": 0},
            {"kind": "c", "run": 1, "seq": 1},
        ]
        path.write_text(
            "".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8"
        )
        ordered = [(e["run"], e["seq"]) for e in read_events(path)]
        assert ordered == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_module_level_bus(self):
        sink = AggregatorSink()
        assert not telemetry.enabled()
        telemetry.emit("dropped")  # no bus: a no-op, not an error
        telemetry.start([sink])
        assert telemetry.enabled()
        with pytest.raises(ObservabilityError):
            telemetry.start([sink])
        telemetry.emit("kept", value=7)
        assert telemetry.stop() is not None
        assert not telemetry.enabled()
        assert telemetry.stop() is None
        assert sink.counts == {"kept": 1}
        assert sink.last["kept"]["value"] == 7


class TestTraceStamping:
    def test_events_carry_the_trace_context_in_scope(self):
        bus = TelemetryBus([AggregatorSink()])
        context = TraceContext.new()
        job = context.child(job_id="job-000001-abcdef01")
        bare = bus.emit("bare")
        with trace_scope(context):
            request = bus.emit("request")
            with trace_scope(job):
                inner = bus.emit("inner", trace_id="explicit")
        assert not {"trace_id", "span_id", "job_id"} & set(bare)
        assert request["trace_id"] == context.trace_id
        assert request["span_id"] == context.span_id
        assert "job_id" not in request
        assert inner["job_id"] == "job-000001-abcdef01"
        assert inner["span_id"] == job.span_id
        assert inner["trace_id"] == "explicit"  # explicit fields win


class TestProgressTracker:
    def test_rate_eta_and_event_throughput(self):
        tracker = ProgressTracker(4, unit="chunks")
        fields = tracker.update(completed=1, events=100)
        assert fields["unit"] == "chunks"
        assert (fields["completed"], fields["total"]) == (1, 4)
        assert fields["events"] == 100
        assert fields["events_per_second"] > 0
        assert fields["rate_per_second"] > 0
        assert fields["eta_s"] >= 0
        fields = tracker.update(completed=3, events=300)
        assert fields["completed"] == 4
        assert fields["events"] == 400
        assert fields["eta_s"] == 0


class TestTailReadRender:
    def test_read_events_filters_and_skips_junk(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        path.write_text(
            json.dumps({"kind": "a", "seq": 0}) + "\n"
            + "not json\n"
            + "[1, 2]\n"
            + "\n"
            + json.dumps({"kind": "b", "seq": 1}) + "\n",
            encoding="utf-8",
        )
        assert [e["kind"] for e in read_events(path)] == ["a", "b"]
        assert [e["seq"] for e in read_events(path, kinds=["b"])] == [1]

    def test_render_event_format(self):
        line = render_event(
            {
                "schema": 1,
                "seq": 7,
                "t": 123.0,
                "kind": "progress",
                "completed": 2,
                "rate_per_second": 30.47711,
                "snapshot": {"counters": {}},
            }
        )
        assert line.startswith("[     7] progress")
        assert "completed=2" in line
        assert "rate_per_second=30.4771" in line  # floats at 6 sig figs
        assert "snapshot=<metrics>" in line
        # Header fields are not repeated in the key=value body.
        assert "schema=1" not in line and "t=123" not in line


class TestRegistryMerge:
    """Parent-side merge of worker snapshots (the `map_chunked` contract)."""

    def test_counters_add(self):
        parent = MetricsRegistry()
        parent.counter("sim.events").increment(10)
        parent.merge_snapshot({"counters": {"sim.events": 5, "new": 2}})
        assert parent.counters["sim.events"].value == 15
        assert parent.counters["new"].value == 2

    def test_gauges_last_writer_wins_in_merge_order(self):
        parent = MetricsRegistry()
        # Chunk-index order: the caller merges chunk 0 then chunk 1, so
        # chunk 1's value must win; None (unset worker gauge) never
        # clobbers a real value.
        parent.merge_snapshot({"gauges": {"rate": 10.0}})
        parent.merge_snapshot({"gauges": {"rate": 20.0}})
        parent.merge_snapshot({"gauges": {"rate": None}})
        assert parent.gauges["rate"].value == 20.0

    def test_histogram_bins_merge_elementwise(self):
        a, b = TimingHistogram("t"), TimingHistogram("t")
        a.observe(0.002)
        a.observe(5000.0)
        b.observe(0.002)
        b.observe(0.3)
        merged = MetricsRegistry()
        merged.merge_snapshot({"histograms": {"t": a.summary()}})
        merged.merge_snapshot({"histograms": {"t": b.summary()}})
        result = merged.histograms["t"]
        assert result.count == 4
        assert result.total == pytest.approx(5000.304)
        assert result.minimum == 0.002
        assert result.maximum == 5000.0
        expected = [x + y for x, y in zip(a.bins, b.bins)]
        assert result.bins == expected
        assert sum(result.bins) == 4

    def test_empty_histogram_summary_is_a_noop_merge(self):
        registry = MetricsRegistry()
        registry.histogram("t").observe(1.0)
        registry.merge_snapshot({"histograms": {"t": {"count": 0}}})
        assert registry.histograms["t"].count == 1

    def test_bin_length_mismatch_is_an_error(self):
        registry = MetricsRegistry()
        registry.histogram("t").observe(1.0)
        with pytest.raises(ValueError):
            registry.merge_snapshot(
                {
                    "histograms": {
                        "t": {
                            "count": 1,
                            "total": 1.0,
                            "min": 1.0,
                            "max": 1.0,
                            "bins": [1, 0],
                        }
                    }
                }
            )

    def test_zero_sample_histogram_summary(self):
        histogram = TimingHistogram("empty")
        assert histogram.summary() == {"count": 0}
        assert histogram.mean == 0.0


class TestHistogramQuantile:
    def test_empty_histogram_estimates_zero(self):
        assert TimingHistogram("t").quantile(0.5) == 0.0

    def test_out_of_range_rejected(self):
        histogram = TimingHistogram("t")
        with pytest.raises(ValueError):
            histogram.quantile(-0.1)
        with pytest.raises(ValueError):
            histogram.quantile(1.5)

    def test_single_observation_is_exact(self):
        histogram = TimingHistogram("t")
        histogram.observe(0.3)
        # Interpolation inside the (0.25, 0.5] bucket clamps to the
        # exactly-tracked max, so a degenerate histogram never extrapolates.
        assert histogram.quantile(0.5) == 0.3
        assert histogram.quantile(0.0) == 0.3
        assert histogram.quantile(1.0) == 0.3

    def test_estimates_land_in_the_right_bucket(self):
        histogram = TimingHistogram("t")
        for _ in range(50):
            histogram.observe(0.003)
        for _ in range(50):
            histogram.observe(0.7)
        p25 = histogram.quantile(0.25)
        p75 = histogram.quantile(0.75)
        assert 0.0025 <= p25 <= 0.005  # inside the 0.003 bucket
        assert 0.5 <= p75 <= 1.0  # inside the 0.7 bucket

    def test_quantiles_are_monotonic(self):
        histogram = TimingHistogram("t")
        for value in (0.001, 0.004, 0.02, 0.07, 0.3, 1.2, 4.0, 20.0, 70.0):
            histogram.observe(value)
        quantiles = [histogram.quantile(q / 10) for q in range(11)]
        assert quantiles == sorted(quantiles)
        assert quantiles[0] >= histogram.minimum
        assert quantiles[-1] <= histogram.maximum

    def test_overflow_bucket_returns_max(self):
        histogram = TimingHistogram("t")
        histogram.observe(120.0)  # beyond the last finite bound
        assert histogram.quantile(0.99) == 120.0


def _append_events(path, events, mode="a"):
    with open(path, mode, encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event) + "\n")


class TestFollowEvents:
    def test_yields_existing_then_times_out(self, tmp_path):
        path = tmp_path / "live.jsonl"
        _append_events(
            path,
            [
                {"run": 0, "seq": 0, "kind": "a"},
                {"run": 0, "seq": 1, "kind": "b"},
            ],
        )
        events = list(telemetry.follow_events(path, idle_timeout=0))
        assert [event["kind"] for event in events] == ["a", "b"]

    def test_missing_file_times_out_cleanly(self, tmp_path):
        events = list(
            telemetry.follow_events(tmp_path / "never.jsonl", idle_timeout=0)
        )
        assert events == []

    def test_picks_up_appended_events(self, tmp_path):
        path = tmp_path / "live.jsonl"
        _append_events(path, [{"run": 0, "seq": 0, "kind": "early"}])
        appended = False

        def fake_sleep(seconds):
            nonlocal appended
            if not appended:
                _append_events(path, [{"run": 0, "seq": 1, "kind": "late"}])
                appended = True

        events = list(
            telemetry.follow_events(
                path,
                poll_seconds=0.01,
                idle_timeout=0.02,
                _sleep=fake_sleep,
            )
        )
        assert [event["kind"] for event in events] == ["early", "late"]

    def test_survives_rotation_without_losing_tail(self, tmp_path):
        path = tmp_path / "live.jsonl"
        _append_events(
            path,
            [
                {"run": 0, "seq": 0, "kind": "old-a"},
                {"run": 0, "seq": 1, "kind": "old-b"},
            ],
        )
        rotated = False

        def fake_sleep(seconds):
            nonlocal rotated
            if not rotated:
                # Shift rotation: the live file is renamed away and a fresh
                # file (next run id) appears at the original path.
                path.rename(tmp_path / "live.jsonl.1")
                _append_events(
                    path, [{"run": 1, "seq": 0, "kind": "new-a"}], mode="w"
                )
                rotated = True

        events = list(
            telemetry.follow_events(
                path,
                poll_seconds=0.01,
                idle_timeout=0.02,
                _sleep=fake_sleep,
            )
        )
        assert [event["kind"] for event in events] == [
            "old-a",
            "old-b",
            "new-a",
        ]

    def test_partial_trailing_line_is_buffered(self, tmp_path):
        path = tmp_path / "live.jsonl"
        whole = json.dumps({"run": 0, "seq": 0, "kind": "whole"})
        partial = json.dumps({"run": 0, "seq": 1, "kind": "finished"})
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(whole + "\n" + partial[:10])
        completed = False

        def fake_sleep(seconds):
            nonlocal completed
            if not completed:
                with open(path, "a", encoding="utf-8") as handle:
                    handle.write(partial[10:] + "\n")
                completed = True

        events = list(
            telemetry.follow_events(
                path,
                poll_seconds=0.01,
                idle_timeout=0.02,
                _sleep=fake_sleep,
            )
        )
        assert [event["kind"] for event in events] == ["whole", "finished"]

    def test_kind_filter(self, tmp_path):
        path = tmp_path / "live.jsonl"
        _append_events(
            path,
            [
                {"run": 0, "seq": 0, "kind": "keep"},
                {"run": 0, "seq": 1, "kind": "drop"},
                {"run": 0, "seq": 2, "kind": "keep"},
            ],
        )
        events = list(
            telemetry.follow_events(path, kinds={"keep"}, idle_timeout=0)
        )
        assert len(events) == 2

    def test_nonpositive_poll_rejected(self, tmp_path):
        with pytest.raises(ObservabilityError):
            next(
                telemetry.follow_events(
                    tmp_path / "x.jsonl", poll_seconds=0.0
                )
            )

    def test_junk_lines_are_skipped(self, tmp_path):
        path = tmp_path / "live.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("not json\n")
            handle.write("[1, 2]\n")
            handle.write(json.dumps({"run": 0, "seq": 0, "kind": "ok"}) + "\n")
        events = list(telemetry.follow_events(path, idle_timeout=0))
        assert [event["kind"] for event in events] == ["ok"]
