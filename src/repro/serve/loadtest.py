"""Open-loop, multi-tenant load generation against a running ServeApp.

The harness offers traffic the way real clients do — on a clock, not on
completions: request *i* of the plan is fired at ``i / rate`` seconds
after the start regardless of whether earlier requests have finished
(bounded only by ``max_connections`` sockets, so an overloaded server
shows up as latency and shed load, not as a stalled generator).  That is
the arrival model under which the admission envelope, the micro-batcher,
and the single-flight cache actually earn their keep.

The request *plan* is deterministic: ``random.Random(seed)`` draws a
traffic mix of hardware queries (a small parameter vocabulary, so the mix
exercises misses, hits, and coalescing), software-option queries, network
path queries, and — optionally — campaign job submissions, spread across
``tenants`` tenant identities.  Same seed, same plan; only the timings
differ between runs.

The report combines the client's view (per-status and per-kind counts,
latency quantiles, throughput) with the server's own ``/v1/stats`` — and
checks the **attribution coverage** invariant: summed across requests,
the latency-attribution segments (cache / batch-assembly / kernel-compute
/ other) must equal the request-latency histogram's total,
because every request's segments tile its wall time by construction.
``coverage`` near 1.0 is the loadtest's pass signal; CI gates on it.

Everything is stdlib asyncio — the HTTP client here speaks the same
minimal HTTP/1.1 the server does, one connection per request.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ParameterError, ServeError

__all__ = ["LoadtestConfig", "LoadtestReport", "run_loadtest"]

#: The hardware-parameter vocabulary the plan draws from.  Small on
#: purpose: repeated draws of the same tuple are what produce cache hits
#: and single-flight coalescing under concurrency.
_HW_VOCAB = (0.999, 0.9995, 0.9999)

_HW_MODELS = ("small", "medium", "large")

_OPTIONS = ("1S", "2S", "1L", "2L")


@dataclass(frozen=True)
class LoadtestConfig:
    """One load-generation run against ``host:port``."""

    host: str = "127.0.0.1"
    port: int = 0
    requests: int = 200
    rate: float = 200.0  # offered arrivals per second (open loop)
    tenants: int = 3
    seed: int = 0
    max_connections: int = 64
    timeout_seconds: float = 30.0
    #: Fraction of the mix per query kind; renormalized if they don't sum
    #: to 1.  Jobs are submissions of tiny Monte-Carlo campaigns.
    hw_weight: float = 0.70
    option_weight: float = 0.15
    network_weight: float = 0.10
    job_weight: float = 0.05
    #: Replications per submitted campaign job (kept tiny so the loadtest
    #: measures the serving layer, not the simulator).
    job_replications: int = 8

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ParameterError(
                f"requests must be >= 1, got {self.requests}"
            )
        if self.rate <= 0:
            raise ParameterError(f"rate must be > 0, got {self.rate}")
        if self.tenants < 1:
            raise ParameterError(f"tenants must be >= 1, got {self.tenants}")
        if self.max_connections < 1:
            raise ParameterError(
                f"max_connections must be >= 1, got {self.max_connections}"
            )
        weights = (
            self.hw_weight,
            self.option_weight,
            self.network_weight,
            self.job_weight,
        )
        if any(w < 0 for w in weights) or sum(weights) <= 0:
            raise ParameterError(
                "traffic-mix weights must be >= 0 and sum > 0, "
                f"got {weights}"
            )


@dataclass
class LoadtestReport:
    """Client-side observations of one run plus the server's stats."""

    requests: int = 0
    wall_seconds: float = 0.0
    statuses: dict[str, int] = field(default_factory=dict)
    kinds: dict[str, int] = field(default_factory=dict)
    cache_outcomes: dict[str, int] = field(default_factory=dict)
    transport_errors: int = 0
    latencies: list[float] = field(default_factory=list)
    server_stats: dict[str, Any] = field(default_factory=dict)

    @property
    def server_errors(self) -> int:
        return sum(
            count
            for status, count in self.statuses.items()
            if status.startswith("5")
        )

    def coverage(self) -> float | None:
        """Σ segment totals ÷ request-latency total, from server stats.

        1.0 means the attribution segments exactly tile the measured wall
        latency of every request; ``None`` when the server recorded no
        requests (or stats were unavailable).
        """
        segments = self.server_stats.get("segments")
        latency = self.server_stats.get("latency", {}).get("request", {})
        total = latency.get("total_seconds")
        if not segments or not total:
            return None
        attributed = sum(
            record.get("total_seconds", 0.0) for record in segments.values()
        )
        return attributed / total

    def summary(self) -> dict[str, Any]:
        """The JSON report printed by the CLI and saved by the bench."""
        ordered = sorted(self.latencies)

        def quantile(q: float) -> float:
            if not ordered:
                return 0.0
            index = min(len(ordered) - 1, int(q * len(ordered)))
            return ordered[index]

        record: dict[str, Any] = {
            "requests": self.requests,
            "wall_seconds": self.wall_seconds,
            "throughput_rps": (
                self.requests / self.wall_seconds
                if self.wall_seconds > 0
                else 0.0
            ),
            "statuses": dict(sorted(self.statuses.items())),
            "kinds": dict(sorted(self.kinds.items())),
            "cache_outcomes": dict(sorted(self.cache_outcomes.items())),
            "transport_errors": self.transport_errors,
            "server_errors": self.server_errors,
            "latency": {
                "mean_seconds": (
                    sum(ordered) / len(ordered) if ordered else 0.0
                ),
                "p50_seconds": quantile(0.50),
                "p99_seconds": quantile(0.99),
                "max_seconds": ordered[-1] if ordered else 0.0,
            },
        }
        coverage = self.coverage()
        if coverage is not None:
            record["attribution_coverage"] = coverage
        slo = self.server_stats.get("slo")
        if slo is not None:
            record["slo"] = slo
        segments = self.server_stats.get("segments")
        if segments is not None:
            record["segments"] = {
                name: data.get("total_seconds", 0.0)
                for name, data in segments.items()
            }
        return record


def _build_plan(config: LoadtestConfig) -> list[dict[str, Any]]:
    """The deterministic request plan (one dict per request)."""
    rng = random.Random(config.seed)
    kinds = ("hw", "option", "network", "job")
    weights = (
        config.hw_weight,
        config.option_weight,
        config.network_weight,
        config.job_weight,
    )
    plan: list[dict[str, Any]] = []
    for index in range(config.requests):
        tenant = f"tenant-{rng.randrange(config.tenants)}"
        kind = rng.choices(kinds, weights=weights)[0]
        if kind == "hw":
            payload = {
                "kind": "hw",
                "model": rng.choice(_HW_MODELS),
                "a_role": rng.choice(_HW_VOCAB),
                "a_vm": rng.choice(_HW_VOCAB),
                "a_host": rng.choice(_HW_VOCAB),
                "a_rack": rng.choice(_HW_VOCAB),
            }
            plan.append(
                {"path": "/v1/query", "tenant": tenant, "payload": payload}
            )
        elif kind == "option":
            payload = {"kind": "option", "option": rng.choice(_OPTIONS)}
            plan.append(
                {"path": "/v1/query", "tenant": tenant, "payload": payload}
            )
        elif kind == "network":
            payload = {
                "kind": "network",
                "graph": "line",
                "switch": f"S{rng.randrange(1, 5)}",
            }
            plan.append(
                {"path": "/v1/query", "tenant": tenant, "payload": payload}
            )
        else:
            payload = {
                "kind": "campaign",
                "spec": {
                    "option": rng.choice(_OPTIONS),
                    "horizon_hours": 100.0,
                    "replications": config.job_replications,
                    "seed": rng.randrange(1 << 16),
                },
            }
            plan.append(
                {"path": "/v1/jobs", "tenant": tenant, "payload": payload}
            )
    return plan


async def _http_post(
    host: str,
    port: int,
    path: str,
    payload: Any,
    tenant: str | None = None,
    timeout: float = 30.0,
) -> tuple[int, bytes]:
    """One ``Connection: close`` POST; returns (status, body)."""
    body = json.dumps(payload).encode("utf-8")
    tenant_header = f"X-Tenant: {tenant}\r\n" if tenant else ""
    request = (
        f"POST {path} HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"{tenant_header}"
        f"Connection: close\r\n\r\n"
    ).encode("latin-1") + body
    return await _roundtrip(host, port, request, timeout)


async def _http_get(
    host: str, port: int, path: str, timeout: float = 30.0
) -> tuple[int, bytes]:
    request = (
        f"GET {path} HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        f"Connection: close\r\n\r\n"
    ).encode("latin-1")
    return await _roundtrip(host, port, request, timeout)


async def _roundtrip(
    host: str, port: int, request: bytes, timeout: float
) -> tuple[int, bytes]:
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), timeout
    )
    try:
        writer.write(request)
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
    head, _, body = raw.partition(b"\r\n\r\n")
    status_line = head.split(b"\r\n", 1)[0].decode("latin-1", "replace")
    parts = status_line.split()
    if len(parts) < 2 or not parts[1].isdigit():
        raise ServeError(f"malformed response status line: {status_line!r}")
    return int(parts[1]), body


async def run_loadtest(config: LoadtestConfig) -> LoadtestReport:
    """Drive the plan against the server and assemble the report."""
    plan = _build_plan(config)
    report = LoadtestReport()
    gate = asyncio.Semaphore(config.max_connections)
    started = time.perf_counter()

    async def fire(index: int, item: dict[str, Any]) -> None:
        # Open loop: this request's scheduled arrival is a function of the
        # plan alone, never of other requests' completions.
        due = started + index / config.rate
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        async with gate:
            sent = time.perf_counter()
            try:
                status, body = await _http_post(
                    config.host,
                    config.port,
                    item["path"],
                    item["payload"],
                    tenant=item["tenant"],
                    timeout=config.timeout_seconds,
                )
            except (OSError, asyncio.TimeoutError, ServeError):
                report.transport_errors += 1
                return
            elapsed = time.perf_counter() - sent
        report.requests += 1
        report.latencies.append(elapsed)
        bucket = str(status)
        report.statuses[bucket] = report.statuses.get(bucket, 0) + 1
        kind = item["payload"].get("kind", "?")
        report.kinds[kind] = report.kinds.get(kind, 0) + 1
        try:
            parsed = json.loads(body)
        except (json.JSONDecodeError, UnicodeDecodeError):
            parsed = {}
        outcome = parsed.get("cache") if isinstance(parsed, dict) else None
        if isinstance(outcome, str):
            report.cache_outcomes[outcome] = (
                report.cache_outcomes.get(outcome, 0) + 1
            )

    await asyncio.gather(
        *(fire(index, item) for index, item in enumerate(plan))
    )
    report.wall_seconds = time.perf_counter() - started
    try:
        status, body = await _http_get(
            config.host, config.port, "/v1/stats", config.timeout_seconds
        )
        if status == 200:
            report.server_stats = json.loads(body)
    except (OSError, asyncio.TimeoutError, ServeError):
        pass  # the client-side report still stands
    return report
