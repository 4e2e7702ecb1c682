"""Command-line interface: ``repro-avail`` / ``python -m repro``.

Subcommands mirror the paper's artifacts:

* ``tables`` — print Tables I-III for the OpenContrail 3.x profile.
* ``hw`` — HW-centric availabilities (Fig. 3 anchors) for S/M/L.
* ``sw`` — SW-centric option results (1S/2S/1L/2L) with downtime.
* ``fig3`` / ``fig4`` / ``fig5`` — dump the figure series (optionally CSV).
* ``modes`` — dominant failure modes of a plane/option.
* ``simulate`` — run the Monte-Carlo validation at stressed parameters.
* ``faults`` — run a stochastic fault-injection campaign (correlated
  failures, maintenance windows, limited repair crews) and cross-validate
  it against the analytic prediction; ``--sweep-beta`` sweeps the
  common-cause fraction.
* ``network`` — control-network graph analysis (:mod:`repro.network`):
  ``evaluate`` prints per-switch control-path cut sets, bounds, and exact
  availability; ``place`` runs the controller-placement search.
* ``perf`` — time the vectorized/parallel evaluation engine against the
  sequential paths (``--workers``, ``--vectorize``).
* ``obs`` — render a stored run manifest, run a small instrumented demo
  workload and print its trace summary, or (``obs tail FILE.jsonl``)
  pretty-print a recorded telemetry event stream; ``obs tail --follow``
  keeps streaming new events as they are appended (surviving rotation),
  like ``tail -F``.
* ``serve`` — run the availability service (:mod:`repro.serve`): analytic
  queries with single-flight caching and micro-batching, campaign jobs on
  the sharded queue, OpenMetrics on ``/metrics``.
* ``query`` — send one JSON request to a running service and print the
  response.

Every subcommand additionally accepts the global ``--trace FILE.json``
flag (before or after the subcommand name): the whole invocation then runs
under an observability session and writes its :class:`RunManifest` —
parameters, seeds, solver path, per-phase timings, metrics, spans — to the
file on exit.  The ``simulate``, ``faults``, and ``network`` subcommands
also accept
``--telemetry FILE.jsonl``: the run then streams progress/heartbeat and
metric-snapshot events to a rotating JSONL sink (readable afterwards with
``obs tail``) without perturbing results — telemetry-on runs stay
bit-identical to telemetry-off runs.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.analysis.figures import fig3_series, fig4_series, fig5_series
from repro.analysis.report import generate_report, render_report
from repro.analysis.sweep import SweepResult
from repro.controller.opencontrail import opencontrail_3x
from repro.controller.spec import Plane
from repro.controller.tables import render_table1, render_table2, render_table3
from repro.models.failure_modes import dominant_failure_modes
from repro.models.hw_closed import hw_large, hw_medium, hw_small
from repro.models.design import CostModel, enumerate_designs, pareto_frontier
from repro.models.outage import fleet_outages_per_year, plane_outage_profile
from repro.models.sw_options import PAPER_OPTIONS, evaluate_option, parse_option
from repro.obs import RunManifest, render_manifest
from repro.obs import runtime as obs_runtime
from repro.obs import telemetry
from repro.params.defaults import PAPER_HARDWARE, PAPER_SOFTWARE
from repro.params.hardware import HardwareParams
from repro.params.software import SoftwareParams
from repro.reporting.csvout import write_csv
from repro.reporting.manifest import write_manifest_json
from repro.reporting.tables import format_table
from repro.sim.controller_sim import SimulationConfig
from repro.sim.validate import validate_against_analytic
from repro.topology.reference import reference_topology
from repro.units import downtime_minutes_per_year


def _add_hardware_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--a-role", type=float, default=PAPER_HARDWARE.a_role)
    parser.add_argument("--a-vm", type=float, default=PAPER_HARDWARE.a_vm)
    parser.add_argument("--a-host", type=float, default=PAPER_HARDWARE.a_host)
    parser.add_argument("--a-rack", type=float, default=PAPER_HARDWARE.a_rack)


def _hardware(args: argparse.Namespace) -> HardwareParams:
    return HardwareParams(
        a_role=args.a_role,
        a_vm=args.a_vm,
        a_host=args.a_host,
        a_rack=args.a_rack,
    )


def _print_sweep(result: SweepResult, csv_path: str | None) -> None:
    headers = (result.parameter, *result.labels)
    rows = [
        tuple(f"{value:.8f}" for value in row) for row in result.rows()
    ]
    print(format_table(headers, rows))
    if csv_path:
        write_csv(csv_path, headers, result.rows())
        print(f"\nwrote {csv_path}")


def _cmd_tables(args: argparse.Namespace) -> int:
    spec = opencontrail_3x()
    print(render_table1(spec))
    print()
    print(render_table2(spec))
    print()
    print(render_table3(spec))
    return 0


def _cmd_hw(args: argparse.Namespace) -> int:
    hardware = _hardware(args)
    rows = []
    for label, model in (
        ("Small", hw_small),
        ("Medium", hw_medium),
        ("Large", hw_large),
    ):
        availability = model(hardware)
        rows.append(
            (
                label,
                f"{availability:.8f}",
                f"{downtime_minutes_per_year(availability):.2f}",
            )
        )
    print(
        format_table(
            ("Topology", "Availability", "Downtime (min/yr)"),
            rows,
            title="HW-centric controller availability (section V)",
        )
    )
    return 0


def _cmd_sw(args: argparse.Namespace) -> int:
    spec = opencontrail_3x()
    hardware = _hardware(args)
    software = PAPER_SOFTWARE
    rows = []
    for option in PAPER_OPTIONS:
        result = evaluate_option(spec, option, hardware, software)
        rows.append(
            (
                option,
                f"{result.cp:.7f}",
                f"{result.cp_downtime_minutes:.2f}",
                f"{result.dp:.6f}",
                f"{result.dp_downtime_minutes:.1f}",
            )
        )
    print(
        format_table(
            ("Option", "A_CP", "CP m/y", "A_DP", "DP m/y"),
            rows,
            title="SW-centric availability (section VI)",
        )
    )
    return 0


def _cmd_fig(args: argparse.Namespace) -> int:
    spec = opencontrail_3x()
    hardware = _hardware(args)
    if args.figure == "fig3":
        result = fig3_series(hardware, points=args.points)
    elif args.figure == "fig4":
        result = fig4_series(spec, hardware, PAPER_SOFTWARE, points=args.points)
    else:
        result = fig5_series(spec, hardware, PAPER_SOFTWARE, points=args.points)
    _print_sweep(result, args.csv)
    return 0


def _cmd_modes(args: argparse.Namespace) -> int:
    spec = opencontrail_3x()
    scenario, topology_name = parse_option(args.option)
    topology = reference_topology(topology_name, spec)
    plane = Plane.CP if args.plane == "cp" else Plane.DP
    ranked = dominant_failure_modes(
        spec,
        topology,
        _hardware(args),
        PAPER_SOFTWARE,
        scenario,
        plane,
        max_order=args.max_order,
        top=args.top,
    )
    rows = [
        (
            i + 1,
            f"{mode.probability:.3e}",
            " + ".join(sorted(mode.components)),
        )
        for i, mode in enumerate(ranked)
    ]
    print(
        format_table(
            ("Rank", "Probability", "Minimal cut set"),
            rows,
            title=(
                f"Dominant {args.plane.upper()} failure modes, option "
                f"{args.option.upper()}"
            ),
        )
    )
    return 0


def _cmd_design(args: argparse.Namespace) -> int:
    spec = opencontrail_3x()
    scenario = (
        parse_option(f"{args.scenario}S")[0]
    )
    points = enumerate_designs(
        spec,
        _hardware(args),
        PAPER_SOFTWARE,
        scenario,
        cost_model=CostModel(
            rack_cost=args.rack_cost, host_cost=args.host_cost
        ),
    )
    frontier = {p.name for p in pareto_frontier(points)}
    rows = [
        (
            p.name,
            len(p.topology.racks),
            len(p.topology.hosts),
            f"{p.cost:.0f}",
            f"{p.availability:.8f}",
            f"{p.downtime_minutes:.2f}",
            "yes" if p.name in frontier else "",
        )
        for p in points
    ]
    print(
        format_table(
            (
                "Layout",
                "Racks",
                "Hosts",
                "Cost",
                "A_CP",
                "Downtime m/y",
                "Pareto",
            ),
            rows,
            title="Deployment design search (exact engine)",
        )
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    spec = opencontrail_3x()
    scenario, topology_name = parse_option(args.option)
    topology = reference_topology(topology_name, spec)
    report = generate_report(
        spec, topology, _hardware(args), PAPER_SOFTWARE, scenario,
        top=args.top,
    )
    print(render_report(report))
    return 0


def _cmd_outage(args: argparse.Namespace) -> int:
    spec = opencontrail_3x()
    scenario, _ = parse_option(args.option)
    plane = Plane.CP if args.plane == "cp" else Plane.DP
    hardware = _hardware(args)
    rows = []
    for name in ("small", "large"):
        topology = reference_topology(name, spec)
        profile = plane_outage_profile(
            spec, topology, hardware, PAPER_SOFTWARE, scenario, plane
        )
        rows.append(
            (
                name,
                f"{profile.downtime_minutes_per_year:.2f}",
                f"{profile.outages_per_year:.4f}",
                f"{profile.mean_outage_hours:.2f}",
                f"{fleet_outages_per_year(profile, args.sites):.1f}",
            )
        )
    print(
        format_table(
            (
                "Topology",
                "Downtime m/y",
                "Outages/yr",
                "Mean outage (h)",
                f"Outages/yr ({args.sites} sites)",
            ),
            rows,
            title=(
                f"Outage profile, {args.plane.upper()} plane, option "
                f"{args.option.upper()[0]}*"
            ),
        )
    )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    spec = opencontrail_3x()
    scenario, topology_name = parse_option(args.option)
    topology = reference_topology(topology_name, spec)
    hardware = HardwareParams(
        a_role=1.0, a_vm=args.a_vm, a_host=args.a_host, a_rack=args.a_rack
    )
    software = SoftwareParams.from_availabilities(
        args.a_process, args.a_unsupervised, mtbf_hours=args.mtbf
    )
    config = SimulationConfig(
        seed=args.seed,
        horizon_hours=args.horizon,
        batches=args.batches,
        rack_mtbf_hours=args.mtbf * 20,
        host_mtbf_hours=args.mtbf * 10,
        vm_mtbf_hours=args.mtbf * 5,
    )
    report = validate_against_analytic(
        spec, topology, topology_name, hardware, software, scenario, config
    )
    rows = []
    for plane, sim_value, analytic in (
        ("CP", report.simulated.cp, report.analytic_cp),
        ("SDP", report.simulated.shared_dp, report.analytic_sdp),
        ("LDP", report.simulated.local_dp, report.analytic_ldp),
        ("DP", report.simulated.dp, report.analytic_dp),
    ):
        rows.append(
            (
                plane,
                f"{sim_value:.6f}",
                f"{analytic:.6f}",
                f"{report.unavailability_ratio(plane.lower()):.3f}",
            )
        )
    print(
        format_table(
            ("Plane", "Simulated", "Analytic", "Unavail ratio"),
            rows,
            title=(
                f"Monte-Carlo validation, option {args.option.upper()}, "
                f"{args.horizon:.0f} simulated hours"
            ),
        )
    )
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from dataclasses import replace as dc_replace
    from pathlib import Path

    from repro.faults import CampaignSpec, evaluate_campaign
    from repro.reporting.csvout import write_csv
    from repro.reporting.faults import (
        attribution_rows,
        crossval_payload,
        crossval_rows,
        sweep_payload,
        sweep_rows,
        write_campaign_json,
    )

    if args.campaign:
        spec = CampaignSpec.from_json(
            Path(args.campaign).read_text(encoding="utf-8")
        )
        # Explicit flags refine a file-loaded spec.
        overrides = {}
        if args.replications is not None:
            overrides["replications"] = args.replications
        if args.horizon is not None:
            overrides["horizon_hours"] = args.horizon
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.crews is not None:
            overrides["repair_crews"] = args.crews
        if overrides:
            spec = dc_replace(spec, **overrides)
    else:
        spec = CampaignSpec(
            option=args.option,
            horizon_hours=args.horizon or 20_000.0,
            replications=args.replications or 4,
            seed=args.seed if args.seed is not None else 1,
            batches=args.batches,
            repair_crews=args.crews,
        )
    if args.beta is not None:
        spec = spec.with_beta(args.beta, args.beta_group)

    if args.sweep_beta:
        betas = [float(b) for b in args.sweep_beta.split(",") if b.strip()]
        crossvals = [
            evaluate_campaign(
                spec.with_beta(beta, args.beta_group),
                workers=args.workers,
                batched=args.batched,
            )
            for beta in betas
        ]
        headers, rows = sweep_rows(crossvals, betas)
        print(
            format_table(
                headers,
                rows,
                title=(
                    f"Common-cause beta sweep, option {spec.option}, "
                    f"{spec.replications}x{spec.horizon_hours:.0f}h"
                ),
            )
        )
        payload = sweep_payload(crossvals, betas)
    else:
        crossval = evaluate_campaign(
            spec, workers=args.workers, batched=args.batched
        )
        headers, rows = crossval_rows(crossval)
        print(
            format_table(
                headers,
                rows,
                title=(
                    f"Fault campaign vs analytic, option {spec.option}, "
                    f"{len(spec.hazards)} hazard(s), crews="
                    f"{spec.repair_crews or 'unlimited'}"
                ),
            )
        )
        result = crossval.result
        print(
            f"\ninjections: {result.total_injections()}  "
            f"repairs queued: {result.total_queued}  "
            f"max queue depth: {result.max_queue_depth}"
        )
        attr_headers, attr_rows = attribution_rows(
            result, signal=args.attribution_signal, top=args.attribution_top
        )
        if attr_rows:
            print()
            print(
                format_table(
                    attr_headers,
                    attr_rows,
                    title=(
                        f"{args.attribution_signal.upper()} downtime "
                        "attribution (simulated hours per triggering "
                        "component)"
                    ),
                )
            )
        payload = crossval_payload(crossval)

    if args.json:
        write_campaign_json(args.json, payload)
        print(f"wrote {args.json}")
    if args.csv:
        write_csv(args.csv, headers, rows)
        print(f"wrote {args.csv}")
    return 0


def _cmd_network(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.network import analyze_switch, optimize_placement
    from repro.network.graph import NetworkGraph
    from repro.reporting.network import (
        evaluate_payload,
        evaluate_rows,
        placement_payload,
        placement_rows,
        write_network_json,
    )
    from repro.topology.network_reference import (
        NETWORK_REFERENCE_BUILDERS,
        reference_network,
    )

    if args.graph_file:
        graph = NetworkGraph.from_json(
            Path(args.graph_file).read_text(encoding="utf-8")
        )
    else:
        if args.graph not in NETWORK_REFERENCE_BUILDERS:
            print(
                f"unknown reference graph {args.graph!r}; expected one of "
                f"{sorted(NETWORK_REFERENCE_BUILDERS)}",
                file=sys.stderr,
            )
            return 2
        graph = reference_network(args.graph)
    obs_runtime.annotate("topology", graph.name)
    obs_runtime.annotate("graph_hash", graph.graph_hash())
    sites = (
        tuple(s.strip() for s in args.sites.split(",") if s.strip())
        if args.sites
        else None
    )

    if args.action == "evaluate":
        analyses = [
            analyze_switch(
                graph,
                switch,
                sites,
                max_order=args.max_order,
                evaluator=args.evaluator,
            )
            for switch in graph.switches
        ]
        headers, rows = evaluate_rows(analyses)
        print(
            format_table(
                headers,
                rows,
                title=(
                    f"Control-path availability, graph {graph.name} "
                    f"(cut order <= {args.max_order or 'full'}, "
                    f"evaluator "
                    f"{analyses[0].evaluator if analyses else args.evaluator})"
                ),
            )
        )
        payload = evaluate_payload(graph, analyses)
    else:
        result = optimize_placement(
            graph,
            k=args.k,
            candidates=sites,
            method=args.method,
            restarts=args.restarts,
            seed=args.seed,
        )
        headers, rows = placement_rows(result)
        print(
            format_table(
                headers,
                rows,
                title=(
                    f"Placement {result.sites} on {graph.name} "
                    f"(method={result.method}, k={result.k})"
                ),
            )
        )
        print(
            f"\nfleet A_CP: {result.availability:.8f}  "
            f"bound: {result.bound:.8f}  gap: {result.gap:.2e}  "
            f"evaluations: {result.evaluations}"
        )
        payload = placement_payload(graph, result)

    if args.json:
        write_network_json(args.json, payload)
        print(f"wrote {args.json}")
    if args.csv:
        write_csv(args.csv, headers, rows)
        print(f"wrote {args.csv}")
    return 0


def _cmd_perf(args: argparse.Namespace) -> int:
    import json
    import time

    from repro.analysis.uncertainty import monte_carlo
    from repro.models.hw_closed import hw_large
    from repro.perf import fig3_series_vectorized, monte_carlo_parallel

    hardware = _hardware(args)

    def best_of(fn, repeats: int) -> float:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return min(times)

    sweep_scalar = best_of(
        lambda: fig3_series(hardware, points=args.points), args.repeats
    )
    sweep_vector = best_of(
        lambda: fig3_series_vectorized(hardware, points=args.points),
        args.repeats,
    )
    mc_sequential = best_of(
        lambda: monte_carlo(
            hw_large, hardware, samples=args.samples, seed=args.seed
        ),
        args.repeats,
    )
    mc_engine = best_of(
        lambda: monte_carlo_parallel(
            hw_large,
            hardware,
            samples=args.samples,
            seed=args.seed,
            workers=args.workers,
            vectorize=args.vectorize,
        ),
        args.repeats,
    )
    rows = [
        (
            f"fig3 sweep ({args.points} pts)",
            f"{sweep_scalar * 1e3:.2f}",
            f"{sweep_vector * 1e3:.2f}",
            f"{sweep_scalar / sweep_vector:.1f}x",
        ),
        (
            f"monte_carlo ({args.samples} samples)",
            f"{mc_sequential * 1e3:.2f}",
            f"{mc_engine * 1e3:.2f}",
            f"{mc_sequential / mc_engine:.1f}x",
        ),
    ]
    print(
        format_table(
            ("Workload", "Sequential (ms)", "Perf engine (ms)", "Speedup"),
            rows,
            title=(
                f"Evaluation-engine timings (workers={args.workers}, "
                f"vectorize={args.vectorize}, best of {args.repeats})"
            ),
        )
    )
    if args.json:
        payload = {
            "workers": args.workers,
            "vectorize": args.vectorize,
            "points": args.points,
            "samples": args.samples,
            "sweep_scalar_s": sweep_scalar,
            "sweep_vectorized_s": sweep_vector,
            "sweep_speedup": sweep_scalar / sweep_vector,
            "monte_carlo_sequential_s": mc_sequential,
            "monte_carlo_engine_s": mc_engine,
            "monte_carlo_speedup": mc_sequential / mc_engine,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"\nwrote {args.json}")
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    if args.action == "tail":
        if not args.file:
            print("obs tail requires a telemetry file", file=sys.stderr)
            return 2
        counts: dict[str, int] = {}
        if args.file.startswith(("http://", "https://")):
            # SSE mode: connect to a running server's /v1/events (or a
            # job's /v1/jobs/<id>/events) and stream until the server
            # closes the stream, Ctrl-C, or --idle-timeout.
            try:
                for event in telemetry.follow_sse(
                    args.file, idle_timeout=args.idle_timeout
                ):
                    kind = event.get("kind", "?")
                    counts[kind] = counts.get(kind, 0) + 1
                    print(telemetry.render_event(event), flush=True)
            except KeyboardInterrupt:
                pass
        elif args.follow:
            # Live mode: arrival order, surviving file rotation, until
            # Ctrl-C (or --idle-timeout seconds without a new event).
            try:
                for event in telemetry.follow_events(
                    args.file, idle_timeout=args.idle_timeout
                ):
                    kind = event.get("kind", "?")
                    counts[kind] = counts.get(kind, 0) + 1
                    print(telemetry.render_event(event), flush=True)
            except KeyboardInterrupt:
                pass
        else:
            for event in telemetry.read_events(args.file):
                kind = event.get("kind", "?")
                counts[kind] = counts.get(kind, 0) + 1
                print(telemetry.render_event(event))
        total = sum(counts.values())
        by_kind = "  ".join(
            f"{kind}={counts[kind]}" for kind in sorted(counts)
        )
        print(f"\n{total} event(s)" + (f"  [{by_kind}]" if by_kind else ""))
        return 0
    if args.manifest:
        manifest = RunManifest.load(args.manifest)
        print(render_manifest(manifest))
        return 0
    # Demo: run a small instrumented workload covering the closed forms,
    # the vectorized sweep, and the parallel Monte-Carlo, then print the
    # resulting manifest.  Reuses the --trace session when one is active.
    from repro.perf import fig3_series_vectorized, monte_carlo_parallel

    own_session = not obs_runtime.enabled()
    session = obs_runtime.start("obs-demo") if own_session else (
        obs_runtime.active()
    )
    try:
        hardware = _hardware(args)
        with obs_runtime.span("obs.demo"):
            for model in (hw_small, hw_medium, hw_large):
                model(hardware)
            fig3_series_vectorized(hardware, points=41)
            monte_carlo_parallel(
                hw_large,
                hardware,
                samples=args.samples,
                seed=args.seed,
                workers=1,
            )
        manifest = session.build_manifest(
            arguments=_manifest_arguments(args),
            seed={"root": args.seed},
        )
    finally:
        if own_session:
            obs_runtime.stop()
    print(render_manifest(manifest))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.serve import AdmissionPolicy, ServeApp, ServeConfig

    if args.action == "loadtest":
        return _cmd_serve_loadtest(args)

    config = ServeConfig(
        host=args.host,
        port=args.port,
        cache_entries=args.cache_entries,
        shards=args.shards,
        workers_per_job=args.workers,
        admission=AdmissionPolicy(
            max_queue_depth=args.max_queue_depth,
            max_tenant_inflight=args.max_tenant_inflight,
        ),
    )

    async def run() -> int:
        app = ServeApp(config)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except NotImplementedError:  # platforms without signal support
                pass
        await app.start()
        # The bench harness and smoke tests parse this line for the port.
        print(f"serving on http://{config.host}:{app.port}", flush=True)
        try:
            await stop.wait()
        finally:
            await app.stop()
        print(
            f"server shutdown clean after {app.requests_served} request(s)"
        )
        return 0

    # The SSE endpoints stream whatever telemetry bus is active; without
    # --telemetry, run an empty-sink bus so /v1/events works out of the box
    # (events fan out to connected clients and go nowhere else).
    own_bus = not telemetry.enabled()
    if own_bus:
        telemetry.start([])
    try:
        return asyncio.run(run())
    finally:
        if own_bus:
            telemetry.stop()


def _cmd_serve_loadtest(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from repro.serve.loadtest import LoadtestConfig, run_loadtest

    config = LoadtestConfig(
        host=args.host,
        port=args.port,
        requests=args.requests,
        rate=args.rate,
        tenants=args.tenants,
        seed=args.seed,
    )
    report = asyncio.run(run_loadtest(config))
    summary = report.summary()
    print(json.dumps(summary, indent=2, sort_keys=True))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json}", file=sys.stderr)
    failures = []
    if report.transport_errors:
        failures.append(f"{report.transport_errors} transport error(s)")
    if report.server_errors:
        failures.append(f"{report.server_errors} 5xx response(s)")
    coverage = report.coverage()
    if args.check_coverage:
        if coverage is None:
            failures.append("attribution coverage unavailable (no /v1/stats)")
        elif abs(coverage - 1.0) > args.coverage_tolerance:
            failures.append(
                f"attribution coverage {coverage:.4f} outside "
                f"1±{args.coverage_tolerance}"
            )
    if failures:
        print("loadtest FAILED: " + "; ".join(failures), file=sys.stderr)
        return 1
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    import http.client
    import json as json_module

    try:
        body = json_module.loads(args.body)
    except json_module.JSONDecodeError as error:
        print(f"query body is not valid JSON: {error}", file=sys.stderr)
        return 2
    headers = {"Content-Type": "application/json"}
    if args.tenant:
        headers["X-Tenant"] = args.tenant
    connection = http.client.HTTPConnection(
        args.host, args.port, timeout=args.timeout
    )
    try:
        connection.request(
            "POST", args.path, body=json_module.dumps(body), headers=headers
        )
        response = connection.getresponse()
        payload = response.read().decode("utf-8")
    finally:
        connection.close()
    try:
        print(json_module.dumps(json_module.loads(payload), indent=2))
    except json_module.JSONDecodeError:
        print(payload)
    return 0 if 200 <= response.status < 300 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-avail",
        description=(
            "Distributed SDN controller failure-mode and availability "
            "analysis (ISPASS 2019 reproduction)"
        ),
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE.json",
        help="record the run under tracing and write its manifest here",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    sub = subparsers.add_parser("tables", help="print Tables I-III")
    sub.set_defaults(handler=_cmd_tables)

    sub = subparsers.add_parser("hw", help="HW-centric availabilities")
    _add_hardware_arguments(sub)
    sub.set_defaults(handler=_cmd_hw)

    sub = subparsers.add_parser("sw", help="SW-centric option results")
    _add_hardware_arguments(sub)
    sub.set_defaults(handler=_cmd_sw)

    for figure in ("fig3", "fig4", "fig5"):
        sub = subparsers.add_parser(figure, help=f"regenerate {figure} series")
        _add_hardware_arguments(sub)
        sub.add_argument("--points", type=int, default=11)
        sub.add_argument("--csv", default=None, help="also write CSV here")
        sub.set_defaults(handler=_cmd_fig, figure=figure)

    sub = subparsers.add_parser("modes", help="dominant failure modes")
    _add_hardware_arguments(sub)
    sub.add_argument("--option", default="2S", help="1S/2S/1L/2L")
    sub.add_argument("--plane", choices=("cp", "dp"), default="cp")
    sub.add_argument("--max-order", type=int, default=2)
    sub.add_argument("--top", type=int, default=10)
    sub.set_defaults(handler=_cmd_modes)

    sub = subparsers.add_parser(
        "design", help="cost:resiliency design search"
    )
    _add_hardware_arguments(sub)
    sub.add_argument("--scenario", choices=("1", "2"), default="2")
    sub.add_argument("--rack-cost", type=float, default=10.0)
    sub.add_argument("--host-cost", type=float, default=1.0)
    sub.set_defaults(handler=_cmd_design)

    sub = subparsers.add_parser(
        "report", help="full availability report for one option"
    )
    _add_hardware_arguments(sub)
    sub.add_argument("--option", default="2S", help="1S/2S/1L/2L")
    sub.add_argument("--top", type=int, default=5)
    sub.set_defaults(handler=_cmd_report)

    sub = subparsers.add_parser(
        "outage", help="outage frequency/duration profiles"
    )
    _add_hardware_arguments(sub)
    sub.add_argument("--option", default="1S", help="1S/2S/1L/2L")
    sub.add_argument("--plane", choices=("cp", "dp"), default="cp")
    sub.add_argument("--sites", type=int, default=500)
    sub.set_defaults(handler=_cmd_outage)

    sub = subparsers.add_parser(
        "simulate", help="Monte-Carlo validation (stressed parameters)"
    )
    sub.add_argument("--option", default="1S")
    sub.add_argument("--a-process", type=float, default=0.995)
    sub.add_argument("--a-unsupervised", type=float, default=0.95)
    sub.add_argument("--a-vm", type=float, default=0.998)
    sub.add_argument("--a-host", type=float, default=0.998)
    sub.add_argument("--a-rack", type=float, default=0.999)
    sub.add_argument("--mtbf", type=float, default=100.0)
    sub.add_argument("--horizon", type=float, default=50_000.0)
    sub.add_argument("--batches", type=int, default=10)
    sub.add_argument("--seed", type=int, default=1)
    sub.add_argument(
        "--telemetry",
        default=argparse.SUPPRESS,
        metavar="FILE.jsonl",
        help="stream progress/metric telemetry events to this JSONL file",
    )
    sub.set_defaults(handler=_cmd_simulate)

    sub = subparsers.add_parser(
        "faults",
        help="fault-injection campaign with analytic cross-validation",
    )
    sub.add_argument(
        "--campaign",
        default=None,
        metavar="FILE.json",
        help="load a CampaignSpec from this JSON file",
    )
    sub.add_argument("--option", default="1S", help="1S/2S/1L/2L")
    sub.add_argument("--horizon", type=float, default=None)
    sub.add_argument("--replications", type=int, default=None)
    sub.add_argument("--batches", type=int, default=4)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--workers", type=int, default=1)
    sub.add_argument(
        "--batched",
        choices=("auto", "on", "off"),
        default="auto",
        help=(
            "batched replication kernel: auto falls back to the "
            "scalar engine when hazards/crews need it, on "
            "requires the kernel, off forces the scalar engine"
        ),
    )
    sub.add_argument(
        "--crews",
        type=int,
        default=None,
        help="limit concurrent repairs to this many crews",
    )
    sub.add_argument(
        "--beta",
        type=float,
        default=None,
        help="attach a common-cause hazard with this beta factor",
    )
    sub.add_argument(
        "--beta-group",
        default=None,
        help="group selector for --beta/--sweep-beta (default kind:vm)",
    )
    sub.add_argument(
        "--sweep-beta",
        default=None,
        metavar="B0,B1,...",
        help="run one campaign per comma-separated beta value",
    )
    sub.add_argument(
        "--attribution-signal",
        choices=("cp", "sdp", "ldp", "dp"),
        default="cp",
        help="signal whose downtime attribution table to print",
    )
    sub.add_argument(
        "--attribution-top",
        type=int,
        default=10,
        help="show at most this many attribution rows",
    )
    sub.add_argument("--json", default=None, help="also write results here")
    sub.add_argument("--csv", default=None, help="also write table rows here")
    sub.add_argument(
        "--telemetry",
        default=argparse.SUPPRESS,
        metavar="FILE.jsonl",
        help="stream progress/metric telemetry events to this JSONL file",
    )
    sub.set_defaults(handler=_cmd_faults)

    sub = subparsers.add_parser(
        "network",
        help=(
            "control-network graph analysis: per-switch control-path "
            "availability and controller placement"
        ),
    )
    sub.add_argument(
        "action",
        choices=("evaluate", "place"),
        help=(
            "'evaluate' prints per-switch cut sets/bounds/exact A_CP; "
            "'place' searches controller placements"
        ),
    )
    sub.add_argument(
        "--graph",
        default="ring",
        help=(
            "reference graph name (line, ring, fat_tree, backbone, "
            "two_tier)"
        ),
    )
    sub.add_argument(
        "--graph-file",
        default=None,
        metavar="FILE.json",
        help="load a NetworkGraph from this JSON file instead",
    )
    sub.add_argument(
        "--sites",
        default=None,
        metavar="A,B,...",
        help=(
            "controller sites (evaluate) or candidate sites (place); "
            "default: every site node"
        ),
    )
    sub.add_argument(
        "--max-order",
        type=int,
        default=None,
        help="bound cut-set enumeration order (default: complete)",
    )
    sub.add_argument(
        "--evaluator",
        choices=("auto", "sdp", "factored"),
        default="auto",
        help=(
            "exact evaluator for 'evaluate': sum-of-disjoint-products "
            "(default) or the Shannon-factored oracle"
        ),
    )
    sub.add_argument("--k", type=int, default=1, help="sites to place")
    sub.add_argument(
        "--method",
        choices=("auto", "exact", "greedy", "local"),
        default="auto",
        help="placement search method",
    )
    sub.add_argument(
        "--restarts",
        type=int,
        default=4,
        help="random restarts for --method local",
    )
    sub.add_argument(
        "--seed",
        type=int,
        default=0,
        help="root seed for --method local restarts",
    )
    sub.add_argument("--json", default=None, help="also write results here")
    sub.add_argument("--csv", default=None, help="also write table rows here")
    sub.add_argument(
        "--telemetry",
        default=argparse.SUPPRESS,
        metavar="FILE.jsonl",
        help="stream placement/candidate telemetry events to this JSONL file",
    )
    sub.set_defaults(handler=_cmd_network)

    sub = subparsers.add_parser(
        "perf", help="time the vectorized/parallel evaluation engine"
    )
    _add_hardware_arguments(sub)
    sub.add_argument("--workers", type=int, default=4)
    sub.add_argument(
        "--vectorize",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="evaluate Monte-Carlo chunks through the array models",
    )
    sub.add_argument("--samples", type=int, default=2000)
    sub.add_argument("--points", type=int, default=201)
    sub.add_argument("--repeats", type=int, default=3)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--json", default=None, help="also write timings here")
    sub.set_defaults(handler=_cmd_perf)

    sub = subparsers.add_parser(
        "obs",
        help=(
            "render a run manifest, trace a demo workload, or tail a "
            "telemetry file"
        ),
    )
    _add_hardware_arguments(sub)
    sub.add_argument(
        "action",
        nargs="?",
        choices=("tail",),
        default=None,
        help="'tail' pretty-prints a recorded telemetry JSONL file",
    )
    sub.add_argument(
        "file",
        nargs="?",
        default=None,
        metavar="FILE.jsonl|URL",
        help=(
            "telemetry file for 'tail', or an http(s) SSE URL "
            "(a server's /v1/events) to stream live"
        ),
    )
    sub.add_argument(
        "--manifest",
        default=None,
        metavar="FILE.json",
        help="render this stored manifest instead of running the demo",
    )
    sub.add_argument("--samples", type=int, default=512)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument(
        "--follow",
        action="store_true",
        help=(
            "with 'tail': keep streaming new events as they are appended "
            "(tail -F semantics, surviving file rotation) until Ctrl-C"
        ),
    )
    sub.add_argument(
        "--idle-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="with --follow: stop after this long without a new event",
    )
    sub.set_defaults(handler=_cmd_obs)

    sub = subparsers.add_parser(
        "serve",
        help=(
            "run the availability service: cached analytic queries, "
            "micro-batching, campaign job queue, OpenMetrics, live SSE "
            "('serve loadtest' drives a running server)"
        ),
    )
    sub.add_argument(
        "action",
        nargs="?",
        choices=("run", "loadtest"),
        default="run",
        help=(
            "'run' (default) starts the server; 'loadtest' drives "
            "open-loop multi-tenant traffic against a running one"
        ),
    )
    sub.add_argument("--host", default="127.0.0.1")
    sub.add_argument(
        "--port",
        type=int,
        default=8323,
        help="TCP port (0 picks an ephemeral port, printed at startup)",
    )
    sub.add_argument(
        "--cache-entries",
        type=int,
        default=256,
        help="LRU bound on cached query results",
    )
    sub.add_argument(
        "--shards", type=int, default=2, help="campaign job queue shards"
    )
    sub.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes per campaign job",
    )
    sub.add_argument(
        "--max-queue-depth",
        type=int,
        default=32,
        help="shed job submissions beyond this many in flight (429)",
    )
    sub.add_argument(
        "--max-tenant-inflight",
        type=int,
        default=8,
        help="shed a tenant's submissions beyond this many in flight (429)",
    )
    sub.add_argument(
        "--telemetry",
        default=None,
        metavar="FILE.jsonl",
        help="stream serve.* lifecycle and metrics events to this JSONL file",
    )
    sub.add_argument(
        "--requests",
        type=int,
        default=200,
        help="with 'loadtest': number of requests in the plan",
    )
    sub.add_argument(
        "--rate",
        type=float,
        default=200.0,
        help="with 'loadtest': offered arrivals per second (open loop)",
    )
    sub.add_argument(
        "--tenants",
        type=int,
        default=3,
        help="with 'loadtest': distinct tenant identities in the mix",
    )
    sub.add_argument(
        "--seed",
        type=int,
        default=0,
        help="with 'loadtest': seed for the deterministic request plan",
    )
    sub.add_argument(
        "--json",
        default=None,
        help="with 'loadtest': also write the report here",
    )
    sub.add_argument(
        "--check-coverage",
        action="store_true",
        help=(
            "with 'loadtest': fail unless attribution segments sum to the "
            "request-latency total within --coverage-tolerance"
        ),
    )
    sub.add_argument(
        "--coverage-tolerance",
        type=float,
        default=0.05,
        help="allowed |coverage - 1| for --check-coverage (default 0.05)",
    )
    sub.set_defaults(handler=_cmd_serve)

    sub = subparsers.add_parser(
        "query",
        help="send one JSON request to a running availability service",
    )
    sub.add_argument(
        "body",
        help='JSON request body, e.g. \'{"kind": "option", "option": "2S"}\'',
    )
    sub.add_argument("--host", default="127.0.0.1")
    sub.add_argument("--port", type=int, default=8323)
    sub.add_argument(
        "--path",
        default="/v1/query",
        help="endpoint path (default /v1/query; use /v1/jobs to submit)",
    )
    sub.add_argument("--tenant", default=None, help="X-Tenant header value")
    sub.add_argument("--timeout", type=float, default=30.0)
    sub.set_defaults(handler=_cmd_query)

    # The --trace flag is also accepted after the subcommand name
    # (``repro-avail perf --trace out.json``).  SUPPRESS keeps an omitted
    # per-subcommand flag from clobbering a value parsed at the top level.
    for sub in set(subparsers.choices.values()):
        sub.add_argument(
            "--trace",
            default=argparse.SUPPRESS,
            metavar="FILE.json",
            help=argparse.SUPPRESS,
        )

    return parser


#: argparse bookkeeping fields that are not run parameters.
_NON_PARAMETER_FIELDS = frozenset(
    {"handler", "trace", "manifest", "telemetry", "action", "file"}
)


def _manifest_arguments(args: argparse.Namespace) -> dict[str, object]:
    """The JSON-serializable run parameters of a parsed invocation."""
    return {
        name: value
        for name, value in vars(args).items()
        if name not in _NON_PARAMETER_FIELDS
        and isinstance(value, (str, int, float, bool, type(None)))
    }


def _seed_material(args: argparse.Namespace) -> dict[str, object]:
    """Seed-bearing arguments (everything the derivation trees hang off)."""
    return {
        name: getattr(args, name)
        for name in ("seed", "samples", "workers", "batches", "horizon")
        if hasattr(args, name)
    }


def _run_handler(args: argparse.Namespace) -> int:
    """Run the subcommand handler, inside a telemetry session if asked."""
    telemetry_path = getattr(args, "telemetry", None)
    if not telemetry_path:
        return args.handler(args)
    telemetry.start([telemetry.JsonlSink(telemetry_path)])
    try:
        telemetry.emit("run.start", command=args.command)
        status = args.handler(args)
        telemetry.emit("run.end", command=args.command, status=status)
    finally:
        telemetry.stop()
    print(f"wrote telemetry stream {telemetry_path}")
    return status


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    trace_path = getattr(args, "trace", None)
    if not trace_path:
        return _run_handler(args)
    session = obs_runtime.start(command=args.command)
    try:
        with obs_runtime.span(f"cli.{args.command}"):
            status = _run_handler(args)
    finally:
        obs_runtime.stop()
    manifest = session.build_manifest(
        arguments=_manifest_arguments(args), seed=_seed_material(args)
    )
    write_manifest_json(trace_path, manifest)
    print(f"wrote trace manifest {trace_path}")
    return status


if __name__ == "__main__":
    sys.exit(main())
