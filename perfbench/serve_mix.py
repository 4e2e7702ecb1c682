"""Workload ``serve_mix``: a live ``repro-avail serve`` under a 3-tenant mix.

One run: boot the server :data:`SETUP_BOOTS` times (set-up time is the
median CPU time of a boot, launch to the first 200 ``/healthz``), drive an
open-loop phase at the fixed rate :data:`RATE_RPS` over
:data:`~common.CONCURRENCY` keep-alive connections, then a closed-loop
phase on more plans from the same mix (:data:`CLOSED_CHUNKS` equal chunks,
the server's CPU time read around each), wait for the submitted jobs, read
``/v1/stats``, and stop the server with SIGINT while its keep-alive
connections are still open.  Every response is
then checked against the in-process library value.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import common
import loadgen

#: Offered open-loop rate, fixed: it must not follow the program's speed,
#: or a slower server would be offered less load.  On a 2-CPU Intel Xeon
#: the closed-loop capacity is ~220 req/s; at half of it (120 req/s) one
#: run in five fell into a backlog it never left, and at 80 req/s host
#: CPU steal swung p50 by 3x, so the rate is about a quarter of capacity.
RATE_RPS = 50.0
SETUP_BOOTS = 5
BOOT_TIMEOUT_S = 60.0
JOB_TIMEOUT_S = 60.0
SHUTDOWN_TIMEOUT_S = 30.0
#: Share of ``--seconds`` spent in the open-loop phase.
OPEN_SHARE = 0.6
#: Requests in the closed-loop phase per second of ``--seconds``, sent as
#: this many equal chunks: ``cpu_ms_per_op`` is the server's CPU time per
#: request in the median chunk.
CLOSED_PER_SECOND = 100
CLOSED_CHUNKS = 6
#: The open-loop phase offers at least this many queries, so its p99 has
#: at least ten samples beyond it.
MIN_OPEN_REQUESTS = 1000
HERE = Path(__file__).resolve().parent


@dataclass
class Server:
    process: subprocess.Popen
    port: int
    boot_seconds: float
    #: CPU seconds of the server process from launch to the first 200.
    boot_cpu_seconds: float
    stderr_path: Path


def _healthy(port: int) -> bool:
    async def probe() -> int:
        connection = loadgen.Connection("127.0.0.1", port)
        try:
            status, _ = await connection.request("GET", "/healthz")
        finally:
            await connection.close()
        return status

    try:
        return asyncio.run(probe()) == 200
    except (OSError, ConnectionError, asyncio.IncompleteReadError):
        return False


def start_server(label: str, spans: Path | None = None) -> Server:
    """Boot a server on an ephemeral port; time Popen to a 200 ``/healthz``."""
    common.OUT.mkdir(exist_ok=True)
    stderr_path = common.OUT / f"serve-{label}.stderr"
    serve_args = ["serve", "--port", "0", "--workers", "1"]
    if spans is None:
        command = [sys.executable, "-m", "repro", *serve_args]
    else:
        command = [
            sys.executable, str(HERE / "serve_traced.py"),
            "--spans", str(spans), "--", *serve_args,
        ]
    started = time.perf_counter()
    with open(stderr_path, "wb") as stderr:
        process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=stderr,
            env=common.subprocess_env(),
            cwd=common.ROOT,
        )
    assert process.stdout is not None
    line = process.stdout.readline().decode("utf-8", "replace")
    if not line.startswith("serving on http://"):
        _reap(process, 5.0)
        raise RuntimeError(
            f"server did not start: {line!r}; "
            f"stderr: {stderr_path.read_text(errors='replace')[-2000:]}"
        )
    port = int(line.strip().rsplit(":", 1)[1])
    deadline = started + BOOT_TIMEOUT_S
    while not _healthy(port):
        if time.perf_counter() > deadline:
            _reap(process, 5.0)
            raise RuntimeError("server never answered /healthz")
        time.sleep(0.005)
    boot_seconds = time.perf_counter() - started
    boot_cpu = common.process_cpu_seconds(process.pid)
    return Server(process, port, boot_seconds, boot_cpu, stderr_path)


def _reap(process: subprocess.Popen, timeout: float) -> tuple[int, float, bool]:
    """Wait for ``process`` (SIGKILL after ``timeout``): status, peak MiB, killed."""
    deadline = time.monotonic() + timeout
    killed = False
    while True:
        pid, status, usage = os.wait4(process.pid, os.WNOHANG)
        if pid:
            process.returncode = os.waitstatus_to_exitcode(status)
            return process.returncode, common.maxrss_mib(usage), killed
        if time.monotonic() > deadline and not killed:
            process.kill()
            killed = True
        time.sleep(0.01)


def stop_server(server: Server) -> dict[str, Any]:
    """SIGINT the server; record its shutdown as found."""
    server.process.send_signal(signal.SIGINT)
    code, peak_mib, killed = _reap(server.process, SHUTDOWN_TIMEOUT_S)
    assert server.process.stdout is not None
    stdout = server.process.stdout.read().decode("utf-8", "replace")
    server.process.stdout.close()
    stderr = server.stderr_path.read_text(errors="replace")
    clean = [line for line in stdout.splitlines() if "shutdown clean" in line]
    return {
        "exit_code": code,
        "killed_after_timeout": killed,
        "clean_line": clean[0] if clean else None,
        "traceback_after": "Traceback (most recent call last)" in stderr,
        "traceback_last_line": (
            stderr.strip().splitlines()[-1] if stderr.strip() else None
        ),
        "peak_rss_mib": peak_mib,
    }


# -- one server session ------------------------------------------------------


async def _session(
    server: Server, open_plan: list, closed_plans: list[list]
) -> dict[str, Any]:
    """Both phases, the job wait and the stats, then the shutdown.

    The keep-alive connections stay open across the SIGINT, as a client
    pool would leave them, so the shutdown is recorded as found with idle
    connections attached.
    """
    connections = [
        loadgen.Connection("127.0.0.1", server.port)
        for _ in range(common.CONCURRENCY)
    ]
    try:
        for connection in connections:
            await connection.open()
        opened = await loadgen.open_loop(connections, open_plan, RATE_RPS)
        closed = []
        closed_cpu = []
        for plan in closed_plans:
            cpu = common.process_cpu_seconds(server.process.pid)
            closed.append(await loadgen.closed_loop(connections, plan))
            closed_cpu.append(common.process_cpu_seconds(server.process.pid) - cpu)
        jobs = await _wait_jobs(connections[0], opened, *closed)
        status, body = await connections[0].request("GET", "/v1/stats")
        stats = json.loads(body) if status == 200 else {}
        shutdown = stop_server(server)
    finally:
        if server.process.returncode is None:
            stop_server(server)
        for connection in connections:
            await connection.close()
    return {
        "open": opened,
        "closed": closed,
        "closed_cpu": closed_cpu,
        "jobs": jobs,
        "stats": stats,
        "shutdown": shutdown,
    }


async def _wait_jobs(
    connection: loadgen.Connection, *phases: loadgen.PhaseResult
) -> dict[str, dict[str, Any]]:
    """Final status record of every accepted job, keyed by job id."""
    ids = []
    for phase in phases:
        for outcome in phase.outcomes:
            if outcome.status == 202:
                ids.append(json.loads(outcome.body)["id"])
    records: dict[str, dict[str, Any]] = {}
    deadline = time.perf_counter() + JOB_TIMEOUT_S
    pending = list(ids)
    while pending and time.perf_counter() < deadline:
        still = []
        for job_id in pending:
            status, body = await connection.request("GET", f"/v1/jobs/{job_id}")
            record = json.loads(body) if status == 200 else {"state": "lost"}
            if record.get("state") in ("done", "failed", "lost"):
                records[job_id] = record
            else:
                still.append(job_id)
        pending = still
        if pending:
            await asyncio.sleep(0.05)
    for job_id in pending:
        records[job_id] = {"state": "timed out"}
    return records


def plans(seed: int, seconds: float) -> list[list[dict[str, Any]]]:
    """The open-loop plan, then the closed-loop chunks, for one session."""
    open_count = max(MIN_OPEN_REQUESTS, round(RATE_RPS * seconds * OPEN_SHARE))
    chunk = max(40, round(CLOSED_PER_SECOND * seconds / CLOSED_CHUNKS))
    return [loadgen.build_plan(seed, open_count, "open")] + [
        loadgen.build_plan(seed, chunk, f"closed-{index}")
        for index in range(CLOSED_CHUNKS)
    ]


def run_session(
    label: str, seed: int, seconds: float, spans: Path | None = None,
    boots: int = 1,
) -> dict[str, Any]:
    open_plan, *closed_plans = plans(seed, seconds)
    boot_times = []
    boot_cpu = []
    for boot in range(boots - 1):
        spare = start_server(f"{label}-boot{boot}", spans=None)
        boot_times.append(spare.boot_seconds)
        boot_cpu.append(spare.boot_cpu_seconds)
        stop_server(spare)
    server = start_server(label, spans)
    boot_times.append(server.boot_seconds)
    boot_cpu.append(server.boot_cpu_seconds)
    session = asyncio.run(_session(server, open_plan, closed_plans))
    session.update(
        open_plan=open_plan,
        closed_plans=closed_plans,
        boot_times=boot_times,
        boot_cpu=boot_cpu,
    )
    return session


# -- oracles -------------------------------------------------------------------


#: Numeric fields of an option answer the oracle compares.
OPTION_FIELDS = (
    "cp", "shared_dp", "local_dp", "dp",
    "cp_downtime_minutes", "dp_downtime_minutes",
)


class Oracle:
    """In-process library values for every request of the mix (memoized)."""

    def __init__(self) -> None:
        self._memo: dict[str, dict[str, Any]] = {}

    def expected(self, payload: dict[str, Any]) -> dict[str, Any]:
        key = json.dumps(payload, sort_keys=True)
        if key not in self._memo:
            self._memo[key] = self._compute(payload)
        return self._memo[key]

    @staticmethod
    def _compute(payload: dict[str, Any]) -> dict[str, Any]:
        kind = payload["kind"]
        if kind == "hw":
            import numpy as np

            from repro.perf import vectorized

            kernel = getattr(vectorized, f"hw_{payload['model']}_array")
            columns = [
                np.array([payload[name]], dtype=np.float64)
                for name in ("a_role", "a_vm", "a_host", "a_rack")
            ]
            return {"availability": float(np.atleast_1d(kernel(*columns))[0])}
        if kind == "option":
            from dataclasses import replace

            from repro.controller.opencontrail import opencontrail_3x
            from repro.models.sw_options import evaluate_option
            from repro.params.defaults import PAPER_HARDWARE, PAPER_SOFTWARE

            result = evaluate_option(
                opencontrail_3x(),
                payload["option"],
                replace(PAPER_HARDWARE, a_rack=payload["a_rack"]),
                PAPER_SOFTWARE,
            )
            return {name: getattr(result, name) for name in OPTION_FIELDS}
        if kind == "network":
            from repro.network.graph import NetworkGraph
            from repro.network.paths import exact_control_path_unavailability
            from repro.topology.network_reference import reference_network

            graph = payload["graph"]
            graph = (
                reference_network(graph)
                if isinstance(graph, str)
                else NetworkGraph.from_dict(graph)
            )
            unavailability = exact_control_path_unavailability(
                graph, payload["switch"]
            )
            return {
                "unavailability": unavailability,
                "availability": 1.0 - unavailability,
            }
        from repro.faults.campaign import CampaignSpec
        from repro.faults.crossval import evaluate_campaign
        from repro.reporting.faults import crossval_payload

        crossval = evaluate_campaign(CampaignSpec.from_dict(payload["spec"]))
        return {"result": json.loads(json.dumps(crossval_payload(crossval)))}

    def check(self, payload: dict[str, Any], answer: dict[str, Any]) -> bool:
        expected = self.expected(payload)
        if "result" in expected:
            return answer.get("result") == expected["result"]
        for name, value in expected.items():
            got = answer.get(name)
            if not isinstance(got, (int, float)) or abs(got - value) > 1e-12:
                return False
        return True


def check_session(session: dict[str, Any], oracle: Oracle) -> dict[str, Any]:
    """Count failed operations: errors, non-2xx, wrong values, failed jobs."""
    failures: dict[str, int] = {}
    attempted = 0

    def fail(reason: str) -> None:
        failures[reason] = failures.get(reason, 0) + 1

    phases = [(session["open"], session["open_plan"])] + list(
        zip(session["closed"], session["closed_plans"])
    )
    for phase, items in phases:
        for outcome in phase.outcomes:
            attempted += 1
            item = items[outcome.index]
            if outcome.error is not None:
                fail("transport")
                continue
            if outcome.status == 429:
                fail("refused")
                continue
            if outcome.status not in (200, 202):
                fail(f"status {outcome.status}")
                continue
            answer = json.loads(outcome.body)
            if item["kind"] == "job":
                record = session["jobs"].get(answer["id"], {})
                if record.get("state") != "done":
                    fail(f"job {record.get('state')}")
                elif not oracle.check(item["payload"], record):
                    fail("wrong job result")
            elif not oracle.check(item["payload"], answer):
                fail(f"wrong {item['kind']} value")
    return {"attempted": attempted, "failures": failures}


# -- metrics -------------------------------------------------------------------


def _open_latencies_ms(session: dict[str, Any]) -> list[float]:
    return [1000.0 * outcome.latency for outcome in session["open"].outcomes]


def _late_ms(session: dict[str, Any]) -> list[float]:
    return [
        1000.0 * (outcome.sent - outcome.due)
        for outcome in session["open"].outcomes
        if not math.isnan(outcome.sent)
    ]


def _closed_wall(session: dict[str, Any]) -> float:
    """Median wall time of one closed-loop chunk."""
    return common.median([phase.wall_seconds for phase in session["closed"]])


def _cpu_ms_per_request(session: dict[str, Any]) -> float:
    """Server CPU ms per request in the median closed-loop chunk."""
    return common.median(
        [
            1000.0 * cpu / len(phase.outcomes)
            for cpu, phase in zip(session["closed_cpu"], session["closed"])
        ]
    )


def _capacity(session: dict[str, Any]) -> float:
    """2xx responses per second over the whole closed-loop phase."""
    served = sum(
        1
        for phase in session["closed"]
        for outcome in phase.outcomes
        if outcome.error is None and 200 <= outcome.status < 300
    )
    return served / sum(phase.wall_seconds for phase in session["closed"])


def serve_layer_metrics(session: dict[str, Any]) -> dict[str, float]:
    """``serve.*`` per-layer metrics from ``/v1/stats`` and job records."""
    stats = session["stats"]
    cache = {
        name.removeprefix("serve.cache."): value
        for name, value in stats.get("cache", {}).items()
    }
    lookups = cache.get("hits", 0) + cache.get("misses", 0) + cache.get(
        "coalesced", 0
    )
    batches = sum(b.get("serve.batch.batches", 0) for b in stats["batch"].values())
    batched = sum(b.get("serve.batch.requests", 0) for b in stats["batch"].values())
    segments = stats.get("segments", {})
    records = [r for r in session["jobs"].values() if "queue_wait_seconds" in r]
    admission = stats.get("admission", {})

    def mean(values: list[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    metrics = {
        "serve.cache.hit_ratio": cache.get("hits", 0) / lookups if lookups else 0.0,
        "serve.cache.evictions": float(cache.get("evictions", 0)),
        "serve.cache.coalesced": float(cache.get("coalesced", 0)),
        "serve.batch.mean_size": batched / batches if batches else 0.0,
        "serve.jobs.queue_wait_ms": 1000.0
        * mean([r["queue_wait_seconds"] for r in records]),
        "serve.jobs.run_ms": 1000.0
        * mean([r.get("elapsed_seconds", 0.0) for r in records]),
        "serve.admission.shed": float(
            admission.get("serve.admission.shed_queue_full", 0)
            + admission.get("serve.admission.shed_tenant_cap", 0)
        ),
    }
    for name in ("queue_wait", "cache", "batch_assembly", "kernel_compute", "other"):
        metrics[f"serve.segment.{name}_ms"] = 1000.0 * segments.get(name, {}).get(
            "mean_seconds", 0.0
        )
    return metrics


def run(seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    import layers

    oracle = Oracle()
    if not trace:
        session = run_session("untraced", seed, seconds, boots=SETUP_BOOTS)
        checked = check_session(session, oracle)
        latencies = _open_latencies_ms(session)
        q = common.tail_quantile(len(latencies))
        values = {
            "setup_s": common.median(session["boot_cpu"]),
            "peak_rss_mb": session["shutdown"]["peak_rss_mib"],
            "cpu_ms_per_op": _cpu_ms_per_request(session),
        }
        details = _details(session, checked, q)
        return {"values": values, "checked": checked, "details": details}

    spans = common.OUT / f"serve_mix-spans-{seed}.json"
    plain = run_session("untraced", seed, seconds)
    traced = run_session("traced", seed, seconds, spans=spans)
    checked_plain = check_session(plain, oracle)
    checked_traced = check_session(traced, oracle)
    dump = json.loads(spans.read_text())
    values = common.zero_layers()
    values.update(layers.layer_metrics(dump["aggregates"]))
    values.update(serve_layer_metrics(plain))
    values.update(
        {
            "trace.overhead_ratio": _closed_wall(traced) / _closed_wall(plain),
            "loadgen.late_p99_ms": common.percentile(_late_ms(plain), 0.99),
        }
    )
    checked = {
        "attempted": checked_plain["attempted"] + checked_traced["attempted"],
        "failures": {
            **{f"untraced {k}": v for k, v in checked_plain["failures"].items()},
            **{f"traced {k}": v for k, v in checked_traced["failures"].items()},
        },
    }
    details = {
        "untraced": _details(plain, checked_plain, 0.99),
        "traced": _details(traced, checked_traced, 0.99),
        "spans_file": str(spans.relative_to(common.ROOT)),
    }
    return {"values": values, "checked": checked, "details": details}


def _details(session: dict[str, Any], checked: dict[str, Any], q: float) -> dict:
    latencies = _open_latencies_ms(session)
    return {
        "rate_rps": RATE_RPS,
        "connections": common.CONCURRENCY,
        "open_requests": len(latencies),
        "tail_quantile": q,
        "samples_beyond_tail": common.samples_beyond(latencies, q),
        "query_p50_ms": common.percentile(latencies, 0.5),
        "query_p99_ms": common.percentile(latencies, 0.99),
        "late_p99_ms": common.percentile(_late_ms(session), 0.99),
        "closed_requests": sum(len(p.outcomes) for p in session["closed"]),
        "closed_chunk_walls_s": [p.wall_seconds for p in session["closed"]],
        "closed_chunk_cpu_s": session["closed_cpu"],
        "capacity_rps": _capacity(session),
        "boot_times_s": session["boot_times"],
        "boot_cpu_s": session["boot_cpu"],
        "jobs": len(session["jobs"]),
        "failures": checked["failures"],
        "shutdown": session["shutdown"],
    }
