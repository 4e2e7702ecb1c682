"""P10 — serving-layer loadtest and the tracing-overhead gate.

Two measurements, appended as a ``serve_loadtest`` section to
``BENCH_perf.json`` (other sections are preserved):

* **Open-loop loadtest** — boots a real ``repro-avail serve`` subprocess
  on an ephemeral port and drives it with
  :func:`repro.serve.loadtest.run_loadtest`: a deterministic multi-tenant
  mix of hardware / option / network queries plus small campaign jobs,
  offered on a clock (open loop) rather than on completions.  The run
  must finish with **zero transport errors and zero 5xx**, and the
  latency-attribution segments (cache / batch-assembly / kernel-compute
  / other) must sum to the server's request-latency
  histogram total within ``COVERAGE_TOLERANCE`` — every request's
  segments tile its wall time by construction, so drift here means the
  attribution plumbing double-counted or dropped a segment.

* **Tracing-overhead gate** — runs the same Monte-Carlo campaign through
  the warm process pool twice, once bare and once inside an active
  :func:`repro.obs.trace.trace_scope` (the ambient request context the
  service installs per request and per job).  The two results must be
  **bit-identical** (trace ids come from ``os.urandom``, never the seeded
  RNGs) and the traced run must cost less than ``OVERHEAD_CEILING`` extra
  wall time — best-of-repeats, gated on ``os.cpu_count()`` like the other
  smokes because single-core wall clocks are too noisy to gate on.

Runnable as a pytest benchmark *or* directly as a script —
``python benchmarks/bench_loadtest.py --requests 120 --check`` is the CI
smoke invocation.
"""

from __future__ import annotations

import argparse
import asyncio
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

#: |attribution coverage - 1| must stay within this under the loadtest.
COVERAGE_TOLERANCE = 0.05

#: Traced wall time may exceed bare wall time by at most this fraction.
OVERHEAD_CEILING = 0.05

#: The campaign timed for the overhead gate.  ``batched="off"`` forces
#: the scalar engine through the warm pool, which is the path tracing
#: instruments (trace context into worker payloads, spans riding back).
GATE_SPEC = {
    "option": "2S",
    "horizon_hours": 2000.0,
    "replications": 16,
    "seed": BENCH_SEED,
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


def run_loadtest_bench(
    requests: int = 200, rate: float = 200.0, tenants: int = 3
) -> dict:
    """Drive a live server with the open-loop plan; return the record."""
    from repro.serve.loadtest import LoadtestConfig, run_loadtest

    server = ServerProcess()
    try:
        report = asyncio.run(
            run_loadtest(
                LoadtestConfig(
                    host=server.host,
                    port=server.port,
                    requests=requests,
                    rate=rate,
                    tenants=tenants,
                    seed=BENCH_SEED,
                )
            )
        )
    finally:
        shutdown_output = server.shutdown()
    summary = report.summary()
    summary["clean_shutdown"] = "server shutdown clean" in shutdown_output
    return summary


def _timed_campaign(spec, workers: int, traced: bool) -> tuple[dict, float]:
    """One campaign run (optionally inside a trace scope) and its wall."""
    from repro.faults.crossval import evaluate_campaign
    from repro.obs.trace import TraceContext, trace_scope
    from repro.reporting.faults import crossval_payload

    start = time.perf_counter()
    if traced:
        with trace_scope(TraceContext.new()):
            crossval = evaluate_campaign(spec, workers=workers, batched="off")
    else:
        crossval = evaluate_campaign(spec, workers=workers, batched="off")
    elapsed = time.perf_counter() - start
    # Round-trip through JSON so the comparison sees exactly what any
    # consumer (file, HTTP response) would see.
    return json.loads(json.dumps(crossval_payload(crossval))), elapsed


def run_tracing_gate(workers: int = 2, repeats: int = 3) -> dict:
    """Bare vs traced campaign: bit-identity plus relative overhead."""
    from repro.faults.campaign import CampaignSpec

    spec = CampaignSpec.from_dict(GATE_SPEC)
    # Warm the process pool so neither side pays worker start-up.
    _timed_campaign(spec, workers, traced=False)

    bare_payload, bare_best = None, float("inf")
    traced_payload, traced_best = None, float("inf")
    for _ in range(repeats):
        payload, elapsed = _timed_campaign(spec, workers, traced=False)
        bare_payload, bare_best = payload, min(bare_best, elapsed)
        payload, elapsed = _timed_campaign(spec, workers, traced=True)
        traced_payload, traced_best = payload, min(traced_best, elapsed)

    return {
        "spec": dict(GATE_SPEC),
        "workers": workers,
        "repeats": repeats,
        "bare_s": bare_best,
        "traced_s": traced_best,
        "overhead": traced_best / bare_best - 1.0,
        "bit_identical": bare_payload == traced_payload,
    }


def run_bench(
    requests: int = 200,
    rate: float = 200.0,
    tenants: int = 3,
    workers: int = 2,
    repeats: int = 3,
) -> dict:
    loadtest = run_loadtest_bench(
        requests=requests, rate=rate, tenants=tenants
    )
    gate = run_tracing_gate(workers=workers, repeats=repeats)
    return {
        "seed": BENCH_SEED,
        "cpus": os.cpu_count() or 1,
        "loadtest": loadtest,
        "tracing_overhead": gate,
    }


def _report(record: dict, out_path: Path) -> None:
    loadtest = record["loadtest"]
    gate = record["tracing_overhead"]
    rows = [
        (
            f"open-loop mix x{loadtest['requests']}",
            f"{loadtest['wall_seconds'] * 1e3:.1f}",
            f"{loadtest['throughput_rps']:.1f}/s",
        ),
        (
            "attribution coverage",
            f"{loadtest.get('attribution_coverage', 0.0):.4f}",
            f"target 1±{COVERAGE_TOLERANCE}",
        ),
        (
            f"campaign bare (workers={gate['workers']})",
            f"{gate['bare_s'] * 1e3:.1f}",
            "",
        ),
        (
            "campaign traced",
            f"{gate['traced_s'] * 1e3:.1f}",
            "== bare" if gate["bit_identical"] else "MISMATCH",
        ),
    ]
    print(
        "\n"
        + format_table(
            ("Workload", "Wall (ms)", "Note"),
            rows,
            title=(
                f"Serving loadtest + tracing gate "
                f"(p99 {loadtest['latency']['p99_seconds'] * 1e3:.1f}ms, "
                f"overhead {gate['overhead'] * 100:+.1f}%)"
            ),
        )
    )
    merged = {}
    if out_path.exists():
        merged = json.loads(out_path.read_text(encoding="utf-8"))
    merged["serve_loadtest"] = record
    out_path.write_text(
        json.dumps(merged, indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote {out_path}")


def _floors_ok(record: dict) -> bool:
    """Correctness floors always hold; wall-clock gates need >= 2 CPUs."""
    loadtest = record["loadtest"]
    gate = record["tracing_overhead"]
    if loadtest["transport_errors"] or loadtest["server_errors"]:
        return False
    if not loadtest.get("clean_shutdown"):
        return False
    coverage = loadtest.get("attribution_coverage")
    if coverage is None or abs(coverage - 1.0) > COVERAGE_TOLERANCE:
        return False
    if not gate["bit_identical"]:
        return False
    if record["cpus"] < 2:
        return True
    return gate["overhead"] < OVERHEAD_CEILING


def test_loadtest_bench():
    record = run_bench(requests=120, rate=240.0, repeats=2)
    _report(record, DEFAULT_OUT)
    assert _floors_ok(record), record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=200)
    parser.add_argument("--rate", type=float, default=200.0)
    parser.add_argument("--tenants", type=int, default=3)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument(
        "--check",
        action="store_true",
        help=(
            "fail on any transport error or 5xx, attribution coverage "
            f"outside 1±{COVERAGE_TOLERANCE}, non-bit-identical traced "
            f"results, or (>= 2 CPUs) tracing overhead >= "
            f"{OVERHEAD_CEILING:.0%}"
        ),
    )
    args = parser.parse_args(argv)
    record = run_bench(
        requests=args.requests,
        rate=args.rate,
        tenants=args.tenants,
        workers=args.workers,
        repeats=args.repeats,
    )
    _report(record, args.out)
    if args.check:
        assert _floors_ok(record), record
    return 0


if __name__ == "__main__":
    sys.exit(main())
