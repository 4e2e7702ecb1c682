"""P8 — availability service: cold vs cached query throughput, job parity.

Starts a real ``repro-avail serve`` subprocess on an ephemeral port and
drives it over keep-alive HTTP, appending a ``serve`` section to
``BENCH_perf.json`` (other sections are preserved):

* ``cold``: control-network path-analysis queries (fat-tree pod,
  ~20 ms of cut-set enumeration each) made unique via a ``probe`` salt in
  the payload, so every request misses the single-flight cache and pays
  the full analysis;
* ``cached``: the same query repeated, served from the LRU — throughput is
  bounded by HTTP framing, not analysis;
* server-side p50/p99 latencies from the service's own
  ``TimingHistogram`` quantiles (``GET /v1/stats``), split by cache
  outcome;
* ``job``: one small fault campaign submitted through ``POST /v1/jobs``
  and polled to completion, with the result checked ``==``-identical to
  the in-process CLI path (:func:`repro.reporting.faults.crossval_payload`
  over :func:`repro.faults.crossval.evaluate_campaign`);
* clean shutdown: SIGINT must exit 0, print the shutdown line, and
  print no ``Traceback``.

The cached path must beat the cold path by >= ``CACHED_SPEEDUP_FLOOR``
in QPS — the point of serving results out of a cache at all.  Runnable as
a pytest benchmark *or* directly as a script —
``python benchmarks/bench_serve.py --cold 8 --cached 100 --check`` is the
CI smoke invocation.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":  # script mode: make src/ importable without install
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.reporting.tables import format_table

BENCH_SEED = 20190324
DEFAULT_OUT = REPO_ROOT / "BENCH_perf.json"

#: Cached QPS must exceed cold QPS by at least this factor.
CACHED_SPEEDUP_FLOOR = 10.0

#: The campaign submitted through the job queue (small enough for CI).
JOB_SPEC = {
    "option": "1S",
    "horizon_hours": 300.0,
    "replications": 2,
    "seed": BENCH_SEED,
}

COLD_QUERY = {
    "kind": "network",
    "graph": "fat_tree",
    "switch": "E1",
}


class ServerProcess:
    """A ``repro-avail serve`` subprocess bound to an ephemeral port."""

    def __init__(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        line = self.process.stdout.readline()
        match = re.search(r"serving on http://([\d.]+):(\d+)", line)
        if not match:
            self.process.kill()
            raise RuntimeError(f"server did not start: {line!r}")
        self.host = match.group(1)
        self.port = int(match.group(2))

    def shutdown(self) -> str:
        """SIGINT, wait, and return the remaining stdout."""
        self.process.send_signal(signal.SIGINT)
        output = self.process.communicate(timeout=30)[0]
        if self.process.returncode != 0:
            raise RuntimeError(
                f"server exited {self.process.returncode}: {output}"
            )
        return output


class Client:
    """A keep-alive HTTP client pinned to one connection."""

    def __init__(self, host: str, port: int):
        self.connection = http.client.HTTPConnection(host, port, timeout=60)

    def request(self, method: str, path: str, payload=None) -> tuple[int, dict]:
        body = json.dumps(payload) if payload is not None else None
        self.connection.request(
            method, path, body=body,
            headers={"Content-Type": "application/json"} if body else {},
        )
        response = self.connection.getresponse()
        return response.status, json.loads(response.read())

    def close(self) -> None:
        self.connection.close()


def _run_queries(client: Client, payloads) -> float:
    start = time.perf_counter()
    for payload in payloads:
        status, record = client.request("POST", "/v1/query", payload)
        assert status == 200, record
    return time.perf_counter() - start


def _run_job(client: Client) -> tuple[dict, float]:
    start = time.perf_counter()
    status, record = client.request(
        "POST", "/v1/jobs", {"kind": "campaign", "spec": JOB_SPEC}
    )
    assert status == 202, record
    job_id = record["id"]
    deadline = time.monotonic() + 300
    while time.monotonic() < deadline:
        status, record = client.request("GET", f"/v1/jobs/{job_id}")
        assert status == 200, record
        if record["state"] in ("done", "failed"):
            break
        time.sleep(0.05)
    assert record["state"] == "done", record.get("error")
    return record, time.perf_counter() - start


def _cli_reference_payload() -> dict:
    """The exact payload ``repro-avail faults --json`` would write."""
    from repro.faults.campaign import CampaignSpec
    from repro.faults.crossval import evaluate_campaign
    from repro.reporting.faults import crossval_payload

    spec = CampaignSpec.from_dict(JOB_SPEC)
    payload = crossval_payload(evaluate_campaign(spec, workers=1))
    return json.loads(json.dumps(payload))


def run_serve_bench(cold: int = 30, cached: int = 300) -> dict:
    """Drive a live server and return the BENCH_perf.json section."""
    server = ServerProcess()
    try:
        client = Client(server.host, server.port)

        # Cold: every payload unique (the 'probe' salt lands in the cache
        # key), so each request pays the full cut-set analysis.
        cold_s = _run_queries(
            client,
            [{**COLD_QUERY, "probe": index} for index in range(cold)],
        )

        # Cached: one warm-up miss, then pure LRU hits.
        warm = {**COLD_QUERY, "probe": "warm"}
        _run_queries(client, [warm])
        cached_s = _run_queries(client, [warm] * cached)

        job_record, job_s = _run_job(client)
        status, stats = client.request("GET", "/v1/stats")
        assert status == 200

        client.close()
        job_matches = job_record["result"] == _cli_reference_payload()
    finally:
        shutdown_output = server.shutdown()

    clean = (
        "server shutdown clean" in shutdown_output
        and "Traceback" not in shutdown_output
    )
    return {
        "seed": BENCH_SEED,
        "cpus": os.cpu_count() or 1,
        "cold_queries": cold,
        "cold_s": cold_s,
        "cold_qps": cold / cold_s,
        "cached_queries": cached,
        "cached_s": cached_s,
        "cached_qps": cached / cached_s,
        "cached_speedup": (cached / cached_s) / (cold / cold_s),
        "query_miss_p50_s": stats["latency"]["query_miss"].get(
            "p50_seconds"
        ),
        "query_miss_p99_s": stats["latency"]["query_miss"].get(
            "p99_seconds"
        ),
        "cached_query_p50_s": stats["latency"]["query_hit"].get(
            "p50_seconds"
        ),
        "cached_query_p99_s": stats["latency"]["query_hit"].get(
            "p99_seconds"
        ),
        "cache": stats["cache"],
        "job_s": job_s,
        "job_matches_cli": job_matches,
        "clean_shutdown": clean,
    }


def _report(record: dict, out_path: Path) -> None:
    rows = [
        (
            f"cold network analysis x{record['cold_queries']}",
            f"{record['cold_s'] * 1e3:.1f}",
            f"{record['cold_qps']:.1f}/s",
        ),
        (
            f"cached (LRU hit) x{record['cached_queries']}",
            f"{record['cached_s'] * 1e3:.1f}",
            f"{record['cached_qps']:.1f}/s",
        ),
        (
            "campaign job (submit+poll)",
            f"{record['job_s'] * 1e3:.1f}",
            "== CLI" if record["job_matches_cli"] else "MISMATCH",
        ),
    ]
    print(
        "\n"
        + format_table(
            ("Workload", "Wall (ms)", "Throughput"),
            rows,
            title=(
                f"Availability service "
                f"(cached speedup {record['cached_speedup']:.1f}x, "
                f"hit p50 "
                f"{(record['cached_query_p50_s'] or 0) * 1e6:.0f}us)"
            ),
        )
    )
    merged = {}
    if out_path.exists():
        merged = json.loads(out_path.read_text(encoding="utf-8"))
    merged["serve"] = record
    out_path.write_text(
        json.dumps(merged, indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote {out_path}")


def _floors_ok(record: dict) -> bool:
    """Correctness floors always hold; the QPS ratio is waived on 1 CPU."""
    if not (record["job_matches_cli"] and record["clean_shutdown"]):
        return False
    if record["cpus"] < 2:
        return True
    return record["cached_speedup"] >= CACHED_SPEEDUP_FLOOR


def test_serve_bench():
    record = run_serve_bench()
    _report(record, DEFAULT_OUT)
    assert record["job_matches_cli"]
    assert record["clean_shutdown"]
    assert record["cached_query_p50_s"] is not None
    assert _floors_ok(record)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cold", type=int, default=30)
    parser.add_argument("--cached", type=int, default=300)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument(
        "--check",
        action="store_true",
        help=(
            "fail unless the job matches the CLI path, shutdown is clean "
            "(exit 0, shutdown line, no traceback), "
            f"and cached QPS >= {CACHED_SPEEDUP_FLOOR:.0f}x cold QPS"
        ),
    )
    args = parser.parse_args(argv)
    record = run_serve_bench(cold=args.cold, cached=args.cached)
    _report(record, args.out)
    if args.check:
        assert _floors_ok(record), record
    return 0


if __name__ == "__main__":
    sys.exit(main())
