"""HTTP framing: parsing, limits, and end-to-end status codes."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.serve.app import ServeApp, ServeConfig
from repro.serve.protocol import (
    MAX_HEADER_COUNT,
    ProtocolError,
    Request,
    Response,
    read_request,
)


def run(coroutine):
    return asyncio.run(coroutine)


def parse(raw: bytes, **kwargs):
    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader, **kwargs)

    return run(scenario())


class TestRequestParsing:
    def test_get_with_query_string(self):
        request = parse(b"GET /v1/stats?verbose=1&x=%20y HTTP/1.1\r\n\r\n")
        assert request.method == "GET"
        assert request.path == "/v1/stats"
        assert request.query == {"verbose": "1", "x": " y"}
        assert request.body == b""
        assert request.keep_alive

    def test_post_with_body(self):
        body = json.dumps({"kind": "hw"}).encode()
        raw = (
            b"POST /v1/query HTTP/1.1\r\n"
            b"Content-Type: application/json\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        request = parse(raw)
        assert request.method == "POST"
        assert request.json() == {"kind": "hw"}

    def test_clean_eof_returns_none(self):
        assert parse(b"") is None

    def test_connection_close_header(self):
        request = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert not request.keep_alive

    def test_tenant_header_with_default(self):
        anonymous = parse(b"GET / HTTP/1.1\r\n\r\n")
        assert anonymous.tenant == "anonymous"
        named = parse(b"GET / HTTP/1.1\r\nX-Tenant: acme\r\n\r\n")
        assert named.tenant == "acme"

    def test_malformed_request_line(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse(b"BROKEN\r\n\r\n")
        assert excinfo.value.status == 400

    def test_unsupported_protocol_version(self):
        with pytest.raises(ProtocolError):
            parse(b"GET / SPDY/3\r\n\r\n")

    def test_invalid_content_length(self):
        with pytest.raises(ProtocolError):
            parse(b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n")
        with pytest.raises(ProtocolError):
            parse(b"POST / HTTP/1.1\r\nContent-Length: -5\r\n\r\n")

    def test_body_over_limit_is_413(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse(
                b"POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\n" + b"x" * 100,
                max_body_bytes=10,
            )
        assert excinfo.value.status == 413

    def test_too_many_headers_is_413(self):
        headers = b"".join(
            b"H%d: v\r\n" % index for index in range(MAX_HEADER_COUNT + 1)
        )
        with pytest.raises(ProtocolError) as excinfo:
            parse(b"GET / HTTP/1.1\r\n" + headers + b"\r\n")
        assert excinfo.value.status == 413

    def test_chunked_encoding_rejected(self):
        with pytest.raises(ProtocolError):
            parse(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")

    def test_truncated_body_is_an_error(self):
        with pytest.raises(ProtocolError):
            parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc")

    def test_json_object_rejects_non_objects(self):
        request = Request(
            method="POST",
            target="/",
            path="/",
            query={},
            headers={},
            body=b"[1, 2]",
        )
        assert request.json() == [1, 2]
        with pytest.raises(ProtocolError):
            request.json_object()

    def test_invalid_json_body(self):
        request = Request(
            method="POST",
            target="/",
            path="/",
            query={},
            headers={},
            body=b"{not json",
        )
        with pytest.raises(ProtocolError):
            request.json()


class TestResponseEncoding:
    def test_encode_shape(self):
        encoded = Response.json({"a": 1}).encode(keep_alive=True)
        head, _, body = encoded.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Content-Type: application/json" in head
        assert f"Content-Length: {len(body)}".encode() in head
        assert b"Connection: keep-alive" in head
        assert json.loads(body) == {"a": 1}

    def test_error_helper(self):
        response = Response.error(429, "slow down", retry=True)
        assert response.status == 429
        assert json.loads(response.body) == {
            "error": "slow down",
            "retry": True,
        }

    def test_close_header(self):
        encoded = Response.json({}).encode(keep_alive=False)
        assert b"Connection: close" in encoded


async def _roundtrip(app: ServeApp, raw: bytes) -> tuple[int, bytes]:
    """One raw request against a running app; (status, body)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", app.port)
    try:
        writer.write(raw)
        await writer.drain()
        status_line = await reader.readline()
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode().partition(":")
            if name.lower() == "content-length":
                length = int(value.strip())
        body = await reader.readexactly(length)
        return status, body
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


class TestEndToEnd:
    def _request(self, raw: bytes) -> tuple[int, bytes]:
        async def scenario():
            app = ServeApp(ServeConfig())
            await app.start()
            try:
                return await _roundtrip(app, raw)
            finally:
                await app.stop()

        return run(scenario())

    def test_healthz(self):
        status, body = self._request(b"GET /healthz HTTP/1.1\r\n\r\n")
        assert status == 200
        assert json.loads(body) == {"status": "ok"}

    def test_unknown_route_is_404(self):
        status, body = self._request(b"GET /nope HTTP/1.1\r\n\r\n")
        assert status == 404
        assert "no route" in json.loads(body)["error"]

    def test_wrong_method_is_405(self):
        status, _ = self._request(b"POST /healthz HTTP/1.1\r\n\r\n")
        assert status == 405

    def test_malformed_json_body_is_4xx(self):
        raw = (
            b"POST /v1/query HTTP/1.1\r\nContent-Length: 4\r\n\r\n{oop"
        )
        status, body = self._request(raw)
        assert status == 400
        assert "JSON" in json.loads(body)["error"]

    def test_unknown_query_kind_is_4xx(self):
        payload = json.dumps({"kind": "astrology"}).encode()
        raw = (
            b"POST /v1/query HTTP/1.1\r\n"
            + f"Content-Length: {len(payload)}\r\n\r\n".encode()
            + payload
        )
        status, body = self._request(raw)
        assert status == 400
        assert "unknown query kind" in json.loads(body)["error"]

    def test_unreachable_switch_network_query_is_400(self):
        """A switch with no path to a site is a client error, not a 500."""
        from repro.network import NetworkGraph, NetworkLink, NetworkNode

        graph = NetworkGraph(
            name="split",
            nodes=(
                NetworkNode("CTRL", kind="site"),
                NetworkNode("S1"),
                NetworkNode("S2"),
            ),
            links=(NetworkLink("L0", "S1", "S2"),),
        )
        payload = json.dumps(
            {"kind": "network", "graph": graph.to_dict(), "switch": "S1"}
        ).encode()
        raw = (
            b"POST /v1/query HTTP/1.1\r\n"
            + f"Content-Length: {len(payload)}\r\n\r\n".encode()
            + payload
        )
        status, body = self._request(raw)
        assert status == 400
        error = json.loads(body)["error"]
        assert "network analysis failed" in error
        assert "no cut sets" in error

    def test_malformed_framing_closes_with_400(self):
        status, body = self._request(b"TOTAL GARBAGE\r\n\r\n")
        assert status == 400

    def test_hw_query_defaults_to_paper_parameters(self):
        """Absent a_* fields fall back to the paper's values and share a
        cache entry with the fully-specified equivalent."""
        from repro.params.defaults import PAPER_HARDWARE

        def post(payload):
            body = json.dumps(payload).encode()
            return (
                b"POST /v1/query HTTP/1.1\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
                + body
            )

        async def scenario():
            app = ServeApp(ServeConfig())
            await app.start()
            try:
                first = await _roundtrip(app, post({"kind": "hw"}))
                explicit = await _roundtrip(
                    app,
                    post(
                        {
                            "kind": "hw",
                            "a_role": PAPER_HARDWARE.a_role,
                            "a_vm": PAPER_HARDWARE.a_vm,
                            "a_host": PAPER_HARDWARE.a_host,
                            "a_rack": PAPER_HARDWARE.a_rack,
                        }
                    ),
                )
                bad = await _roundtrip(
                    app, post({"kind": "hw", "a_role": "plenty"})
                )
                return first, explicit, bad
            finally:
                await app.stop()

        first, explicit, bad = run(scenario())
        assert first[0] == 200
        defaulted = json.loads(first[1])
        assert defaulted["cache"] == "miss"
        spelled_out = json.loads(explicit[1])
        # Same resolved params -> same cache key -> a hit, same number.
        assert spelled_out["cache"] == "hit"
        assert spelled_out["availability"] == defaulted["availability"]
        assert bad[0] == 400

    def test_metrics_exposition(self):
        async def scenario():
            app = ServeApp(ServeConfig())
            await app.start()
            try:
                await _roundtrip(app, b"GET /healthz HTTP/1.1\r\n\r\n")
                return await _roundtrip(app, b"GET /metrics HTTP/1.1\r\n\r\n")
            finally:
                await app.stop()

        status, body = run(scenario())
        text = body.decode()
        assert status == 200
        assert "# TYPE serve_cache_hits_total counter" in text
        assert "# TYPE serve_jobs_queue_depth gauge" in text
        assert "serve_responses_2xx_total" in text
        assert text.rstrip().endswith("# EOF")
