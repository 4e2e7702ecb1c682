"""Instrumentation must never perturb results.

The observability runtime is observational-only: it reads clocks and
appends records, but never touches random state or feeds back into model
code.  These tests enforce the consequence — every evaluation path produces
*bit-identical* results with tracing on and off — and exercise the
manifests the instrumented runs emit, including the CLI's global
``--trace`` flag (``repro-avail perf --trace out.json``).
"""

from __future__ import annotations

from repro.cli import main
from repro.controller.spec import Plane
from repro.models.engine import evaluate_topology
from repro.models.hw_closed import hw_large, hw_small
from repro.models.sw import plane_requirements
from repro.obs import runtime as obs
from repro.obs import telemetry
from repro.obs.manifest import RunManifest
from repro.params.software import RestartScenario
from repro.perf import monte_carlo_parallel
from repro.sim.controller_sim import SimulationConfig
from repro.sim.replicate import run_replications

import pytest

S2 = RestartScenario.REQUIRED


@pytest.fixture(autouse=True)
def _no_leaked_session():
    obs.stop()
    telemetry.stop()
    yield
    obs.stop()
    telemetry.stop()


def _availability(hardware) -> dict[str, float]:
    return {
        "rack": hardware.a_rack,
        "host": hardware.a_host,
        "vm": hardware.a_vm,
    }


class TestBitIdenticalResults:
    def test_evaluate_topology(self, spec, small, hardware, software):
        requirements = plane_requirements(spec, Plane.CP, software, S2)
        availability = _availability(hardware)
        baseline = evaluate_topology(small, requirements, availability)
        with obs.session("determinism") as session:
            traced = evaluate_topology(small, requirements, availability)
        assert traced == baseline  # exact, not approx
        assert "exact-engine" in session.solver_path
        assert session.tracer.total("engine.evaluate_topology") > 0.0

    def test_monte_carlo_parallel_workers_4(self, hardware):
        kwargs = dict(samples=512, seed=13, chunk_size=64, workers=4)
        baseline = monte_carlo_parallel(hw_large, hardware, **kwargs)
        with obs.session("determinism") as session:
            traced = monte_carlo_parallel(hw_large, hardware, **kwargs)
        assert traced.samples == baseline.samples  # tuple equality: bitwise
        assert "monte-carlo" in session.solver_path
        assert session.annotations["seed.mc_root"] == 13
        counters = session.metrics.snapshot()["counters"]
        assert counters["perf.mc.samples"] == 512.0

    def test_monte_carlo_scalar_fallback(self, hardware):
        kwargs = dict(samples=128, seed=5, vectorize=False)
        baseline = monte_carlo_parallel(hw_small, hardware, **kwargs)
        with obs.session("determinism"):
            traced = monte_carlo_parallel(hw_small, hardware, **kwargs)
        assert traced.samples == baseline.samples

    @pytest.mark.slow
    def test_sim_replications(
        self, spec, small, stressed_hardware, stressed_software
    ):
        kwargs = dict(
            config=SimulationConfig(
                seed=17,
                horizon_hours=2000.0,
                batches=2,
                rack_mtbf_hours=2000.0,
                host_mtbf_hours=1000.0,
                vm_mtbf_hours=500.0,
            ),
            replications=2,
        )
        baseline = run_replications(
            spec, small, stressed_hardware, stressed_software, S2, **kwargs
        )
        with obs.session("determinism") as session:
            traced = run_replications(
                spec, small, stressed_hardware, stressed_software, S2,
                **kwargs,
            )
        assert traced.seeds == baseline.seeds
        for a, b in zip(baseline.results, traced.results):
            assert (a.cp, a.shared_dp, a.local_dp, a.dp) == (
                b.cp, b.shared_dp, b.local_dp, b.dp,
            )
        assert "simulation" in session.solver_path
        assert session.annotations["seed.sim_root"] == 17
        counters = session.metrics.snapshot()["counters"]
        assert counters["sim.replications"] == 2.0


class TestTelemetryRoundTrip:
    """The telemetry sink must never perturb results either.

    Acceptance for the streaming pipeline: the same replication workload
    run (a) without telemetry, (b) with a JSONL sink, and (c) with the
    sink plus 4 pool workers yields ``==``-identical availabilities, and
    the recorded stream round-trips through :func:`telemetry.read_events`.
    The scalar engine (``batched="off"``) drives the inline and pooled
    dispatch paths; a last run under the sink checks the batched kernel.
    """

    def _run(self, spec, small, hardware, software, workers, batched="off"):
        return run_replications(
            spec, small, hardware, software, S2,
            config=SimulationConfig(
                seed=29,
                horizon_hours=500.0,
                batches=2,
                rack_mtbf_hours=2000.0,
                host_mtbf_hours=1000.0,
                vm_mtbf_hours=500.0,
            ),
            replications=4,
            workers=workers,
            batched=batched,
        )

    def test_sink_on_off_and_workers_bit_identical(
        self, spec, small, stressed_hardware, stressed_software, tmp_path
    ):
        baseline = self._run(
            spec, small, stressed_hardware, stressed_software, workers=1
        )
        stream = tmp_path / "telemetry.jsonl"
        telemetry.start([telemetry.JsonlSink(stream)])
        try:
            recorded = self._run(
                spec, small, stressed_hardware, stressed_software, workers=1
            )
            recorded_parallel = self._run(
                spec, small, stressed_hardware, stressed_software, workers=4
            )
            recorded_kernel = self._run(
                spec, small, stressed_hardware, stressed_software, workers=1,
                batched="on",
            )
        finally:
            telemetry.stop()
        for name in ("cp", "sdp", "ldp", "dp"):
            assert recorded.availability(name) == baseline.availability(name)
            assert recorded_parallel.availability(name) == (
                baseline.availability(name)
            )
            assert recorded_kernel.availability(name) == (
                baseline.availability(name)
            )

        events = list(telemetry.read_events(stream))
        assert events, "sink recorded nothing"
        assert all(event["schema"] == 1 for event in events)
        seqs = [event["seq"] for event in events]
        assert seqs == sorted(seqs)
        kinds = {event["kind"] for event in events}
        assert {"replications.start", "progress", "replications.end"} <= kinds
        ends = [e for e in events if e["kind"] == "replications.end"]
        assert ends[0]["availability"]["cp"] == baseline.availability("cp")
        # Per-replication progress from both the inline and the pooled
        # dispatch paths.
        progress = [e for e in events if e["kind"] == "progress"]
        assert [e["completed"] for e in progress[:4]] == [1, 2, 3, 4]
        # The pooled run also streamed merged metric snapshots upward.
        metrics = [e for e in events if e["kind"] == "metrics"]
        assert metrics
        counters = metrics[-1]["snapshot"]["counters"]
        assert counters["sim.events"] > 0


class TestTraceContextBitIdentity:
    """Request tracing must never perturb results either.

    The serving layer ships the active trace context into every warm-pool
    worker payload and rides worker spans back on the result channel.
    Trace ids come from ``os.urandom`` — never the seeded RNGs — so the
    same campaign inside and outside a trace scope, at any worker count,
    must produce ``==``-identical payloads.
    """

    SPEC = {
        "option": "1S",
        "horizon_hours": 300.0,
        "replications": 4,
        "seed": 11,
    }

    def _payload(self, workers: int, traced: bool) -> dict:
        import json

        from repro.faults.campaign import CampaignSpec
        from repro.faults.crossval import evaluate_campaign
        from repro.obs.trace import TraceContext, trace_scope
        from repro.reporting.faults import crossval_payload

        spec = CampaignSpec.from_dict(self.SPEC)
        # batched="off" forces the scalar engine through the dispatch
        # path tracing instruments.
        if traced:
            with trace_scope(TraceContext.new()):
                crossval = evaluate_campaign(
                    spec, workers=workers, batched="off"
                )
        else:
            crossval = evaluate_campaign(spec, workers=workers, batched="off")
        return json.loads(json.dumps(crossval_payload(crossval)))

    def test_tracing_on_off_and_workers_bit_identical(self):
        baseline = self._payload(workers=1, traced=False)
        assert self._payload(workers=1, traced=True) == baseline
        assert self._payload(workers=4, traced=False) == baseline
        assert self._payload(workers=4, traced=True) == baseline

    def test_worker_spans_ride_back_under_a_session(self):
        from repro.faults.campaign import CampaignSpec, run_campaign
        from repro.obs.trace import TraceContext, trace_scope

        spec = CampaignSpec.from_dict(self.SPEC)
        with obs.session("ride-back") as session:
            with trace_scope(TraceContext.new()):
                run_campaign(spec, workers=2, batched="off")
        merged = [
            span
            for span in session.tracer.spans
            if span.attrs.get("chunk") is not None
        ]
        assert merged, "no worker spans were merged back"
        # Merged worker spans are children, never phase roots.
        roots = {id(span) for span in session.tracer.roots()}
        assert all(id(span) not in roots for span in merged)


class TestSessionManifests:
    def test_instrumented_run_round_trips(self, hardware, tmp_path):
        with obs.session("round-trip") as session:
            monte_carlo_parallel(hw_large, hardware, samples=256, seed=3)
        manifest = session.build_manifest(
            arguments={"samples": 256, "seed": 3}
        )
        path = manifest.write(tmp_path / "trace.json")
        restored = RunManifest.load(path)
        assert restored == manifest
        assert restored.seed["mc_root"] == 3
        assert "monte-carlo" in restored.solver_path
        assert restored.metrics["counters"]["perf.mc.samples"] == 256.0


class TestCliTrace:
    def test_perf_trace_writes_valid_manifest(self, capsys, tmp_path):
        """Acceptance: ``repro-avail perf --trace out.json`` -> RunManifest."""
        trace = tmp_path / "out.json"
        assert main([
            "perf", "--trace", str(trace),
            "--samples", "256", "--points", "11", "--repeats", "1",
            "--workers", "1",
        ]) == 0
        assert "wrote trace manifest" in capsys.readouterr().out
        manifest = RunManifest.load(trace)
        assert manifest.command == "perf"
        assert manifest.arguments["samples"] == 256
        assert manifest.params_hash
        assert manifest.seed["mc_root"] == 0
        assert "monte-carlo" in manifest.solver_path
        assert "vectorized" in manifest.solver_path
        assert [p.name for p in manifest.phases] == ["cli.perf"]
        assert manifest.phases[0].seconds > 0.0
        assert any(s["name"] == "perf.monte_carlo" for s in manifest.spans)
        assert not obs.enabled()  # the CLI stopped its session

    def test_global_trace_flag_position(self, capsys, tmp_path):
        trace = tmp_path / "hw.json"
        assert main(["--trace", str(trace), "hw"]) == 0
        manifest = RunManifest.load(trace)
        assert manifest.command == "hw"
        assert "closed-form" in manifest.solver_path
        assert manifest.metrics["counters"]["models.hw_closed.calls"] >= 3.0

    def test_trace_does_not_change_output(self, capsys, tmp_path):
        assert main(["hw"]) == 0
        plain = capsys.readouterr().out
        assert main(["hw", "--trace", str(tmp_path / "t.json")]) == 0
        traced = capsys.readouterr().out
        assert traced.startswith(plain)
        extra = traced[len(plain):]
        assert extra.startswith("wrote trace manifest")

    def test_obs_command_renders_stored_manifest(self, capsys, tmp_path):
        trace = tmp_path / "demo.json"
        assert main([
            "obs", "--trace", str(trace), "--samples", "128",
        ]) == 0
        capsys.readouterr()
        assert main(["obs", "--manifest", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "Run manifest" in out
        assert "Span profile" in out
