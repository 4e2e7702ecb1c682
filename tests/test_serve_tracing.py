"""Request tracing through the service: trace ids, segments, job stamps."""

from __future__ import annotations

import asyncio
import json

from repro.obs import telemetry
from repro.obs.trace import current_trace
from repro.serve.app import ServeApp, ServeConfig
from repro.serve.protocol import Request

INBOUND_TRACE = "4bf92f3577b34da6a3ce929d0e0e4736"
INBOUND_SPAN = "00f067aa0ba902b7"

CAMPAIGN_SPEC = {
    "option": "1S",
    "horizon_hours": 300.0,
    "replications": 2,
    "seed": 7,
}


def run(coroutine):
    return asyncio.run(coroutine)


def make_request(method, path, payload=None, headers=None):
    body = json.dumps(payload).encode() if payload is not None else b""
    return Request(
        method=method,
        target=path,
        path=path,
        query={},
        headers=dict(headers or {}),
        body=body,
    )


def query(payload, headers=None):
    return make_request("POST", "/v1/query", payload, headers)


def header(response, name):
    return dict(response.headers)[name]


class ListSink:
    """Keeps every event, in emission order."""

    def __init__(self):
        self.events: list[dict] = []

    def emit(self, event):
        self.events.append(dict(event))

    def close(self):
        return None


class TestTraceContinuation:
    def test_inbound_traceparent_is_continued(self):
        traceparent = f"00-{INBOUND_TRACE}-{INBOUND_SPAN}-01"

        async def scenario():
            app = ServeApp(ServeConfig())
            return await app.handle(
                query({"kind": "hw"}, {"traceparent": traceparent})
            )

        response = run(scenario())
        assert response.status == 200
        trace = json.loads(response.body)["trace"]
        assert trace["trace_id"] == INBOUND_TRACE
        assert trace["parent_span_id"] == INBOUND_SPAN
        assert len(trace["span_id"]) == 16
        assert trace["span_id"] != INBOUND_SPAN
        assert header(response, "X-Trace-Id") == INBOUND_TRACE

    def test_malformed_traceparent_starts_a_fresh_root(self):
        async def scenario():
            app = ServeApp(ServeConfig())
            return await app.handle(
                query({"kind": "hw"}, {"traceparent": "00-nothex-xyz-01"})
            )

        response = run(scenario())
        assert response.status == 200
        trace = json.loads(response.body)["trace"]
        assert len(trace["trace_id"]) == 32
        assert trace["trace_id"] != INBOUND_TRACE
        assert "parent_span_id" not in trace

    def test_trace_id_header_matches_body(self):
        async def scenario():
            app = ServeApp(ServeConfig())
            return await app.handle(query({"kind": "option", "option": "2S"}))

        response = run(scenario())
        assert response.status == 200
        body = json.loads(response.body)
        assert header(response, "X-Trace-Id") == body["trace"]["trace_id"]


class TestSegments:
    def test_segments_tile_request_latency(self):
        async def scenario():
            app = ServeApp(ServeConfig())
            for payload in (
                {"kind": "hw"},
                {"kind": "hw", "model": "large"},
                {"kind": "option", "option": "2S"},
                {"kind": "option", "option": "2S"},
                {"kind": "network", "graph": "line", "switch": "S1"},
            ):
                response = await app.handle(query(payload))
                assert response.status == 200, response.body
            await app.handle(make_request("GET", "/healthz"))
            return await app.handle(make_request("GET", "/v1/stats"))

        stats = json.loads(run(scenario()).body)
        request_total = stats["latency"]["request"]["total_seconds"]
        segment_total = sum(
            record["total_seconds"] for record in stats["segments"].values()
        )
        assert stats["latency"]["request"]["count"] == 6
        assert request_total > 0.0
        assert abs(segment_total - request_total) <= 1e-9 * request_total

    def test_no_phantom_queue_wait_segment(self):
        async def scenario():
            app = ServeApp(ServeConfig())
            await app.handle(query({"kind": "hw"}))
            stats = await app.handle(make_request("GET", "/v1/stats"))
            metrics = await app.handle(make_request("GET", "/metrics"))
            return json.loads(stats.body), metrics.body.decode()

        stats, metrics = run(scenario())
        assert set(stats["segments"]) == {
            "cache",
            "batch_assembly",
            "kernel_compute",
            "other",
        }
        assert "segment_seconds_queue_wait" not in metrics

    def test_coalesced_waiter_records_computed_by(self):
        payload = {"kind": "option", "option": "1L"}

        async def scenario():
            app = ServeApp(ServeConfig())
            return await asyncio.gather(
                app.handle(query(payload)), app.handle(query(payload))
            )

        first, second = (json.loads(r.body) for r in run(scenario()))
        assert first["cache"] == "miss"
        assert second["cache"] == "coalesced"
        assert second["trace"]["computed_by"] == first["trace"]["trace_id"]


def traced_job():
    """Submit one campaign job; return its status, events and request trace."""
    sink = ListSink()
    submitting: list = []

    async def scenario():
        app = ServeApp(ServeConfig())
        submit = app.jobs.submit

        def recording_submit(*args, **kwargs):
            submitting.append(current_trace())
            return submit(*args, **kwargs)

        app.jobs.submit = recording_submit
        await app.start()
        try:
            response = await app.handle(
                make_request(
                    "POST",
                    "/v1/jobs",
                    {"kind": "campaign", "spec": CAMPAIGN_SPEC},
                )
            )
            assert response.status == 202, response.body
            job_id = json.loads(response.body)["id"]
            await asyncio.wait_for(app.jobs.join(), timeout=120)
            status = await app.handle(
                make_request("GET", f"/v1/jobs/{job_id}")
            )
            return response, json.loads(status.body)
        finally:
            await app.stop()

    telemetry.start([sink])
    try:
        response, status = run(scenario())
    finally:
        telemetry.stop()
    (request_trace,) = submitting
    events = [e for e in sink.events if e.get("job_id") == status["id"]]
    return response, status, events, request_trace


class TestJobTrace:
    def test_job_inherits_the_request_trace(self):
        response, status, events, request_trace = traced_job()
        assert status["state"] == "done"
        assert status["trace_id"] == request_trace.trace_id
        assert header(response, "X-Trace-Id") == request_trace.trace_id

        kinds = [event["kind"] for event in events]
        assert kinds[0] == "serve.job.start"
        assert kinds[-1] == "serve.job.end"
        assert "serve.job.running" in kinds
        for event in events:
            assert event["trace_id"] == request_trace.trace_id
            assert event.get("span_id") != request_trace.span_id
        running = next(e for e in events if e["kind"] == "serve.job.running")
        assert len(running["span_id"]) == 16

    def test_every_job_event_carries_the_job_span(self):
        _, _, events, _ = traced_job()
        spans = {event.get("span_id") for event in events}
        assert len(spans) == 1 and None not in spans, spans
