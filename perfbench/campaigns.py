"""Workload ``campaigns``: seeded fault campaigns through ``evaluate_campaign``.

Each *set* is three campaigns, run one at a time with ``workers =``
:data:`~common.CONCURRENCY` through
:func:`repro.faults.crossval.evaluate_campaign` (the function behind
``repro-avail faults`` and the serve job queue):

* ``batched_1S`` — hazard-free 1S with many replications, which routes
  to the lockstep kernel :mod:`repro.sim.batched`;
* ``hazard_1S`` — shaped like ``examples/campaign_small_ccf.json``
  (common-cause failures, maintenance, repair crews), scalar engine;
* ``scalar_2S`` — 2S, scalar engine, more components per event.

The untraced run times :func:`sets_for` sets; the traced run replays a
shorter plan three times (traced at one worker, untraced at one worker,
untraced at ``CONCURRENCY`` workers) and requires ``==`` results.
"""

from __future__ import annotations

import json
import os
import random
import time
from typing import Any

import common

#: Sets timed per second of ``--seconds`` (about 1.2 s per set here).
SETS_PER_SECOND = 0.6
MIN_SETS = 4
TRACED_SETS = 2
SETUP_PROBES = 5

_HAZARDS = [
    {"kind": "common_cause", "group": "role:Control", "beta": 0.3},
    {"kind": "common_cause", "group": "role:Database", "beta": 0.3},
    {
        "kind": "maintenance",
        "target": "host:H2",
        "start_hours": 100.0,
        "period_hours": 500.0,
        "duration_hours": 25.0,
    },
    {"kind": "repair_crews", "crews": 4},
]

#: The campaign shapes of one set: (label, spec fields without the seed).
SHAPES: tuple[tuple[str, dict[str, Any]], ...] = (
    ("batched_1S", {"option": "1S", "horizon_hours": 1000.0, "replications": 32}),
    (
        "hazard_1S",
        {
            "option": "1S",
            "horizon_hours": 1500.0,
            "replications": 4,
            "batches": 4,
            "hazards": _HAZARDS,
        },
    ),
    ("scalar_2S", {"option": "2S", "horizon_hours": 2000.0, "replications": 4}),
)


def sets_for(seconds: float) -> int:
    return max(MIN_SETS, round(seconds * SETS_PER_SECOND))


def build_plan(seed: int, sets: int) -> list[dict[str, Any]]:
    """``sets`` x the shapes, each with a campaign seed drawn from ``seed``."""
    rng = random.Random(f"campaigns-{seed}")
    plan = []
    for index in range(sets):
        for label, fields in SHAPES:
            plan.append(
                {
                    "set": index,
                    "label": label,
                    "spec": {**fields, "seed": rng.randrange(1, 1 << 30)},
                }
            )
    return plan


def _payload(crossval: Any) -> Any:
    from repro.reporting.faults import crossval_payload

    return json.loads(json.dumps(crossval_payload(crossval)))


def run_plan(plan: list[dict[str, Any]], workers: int) -> dict[str, Any]:
    """Run every campaign of ``plan``; per-campaign walls, per-set CPU."""
    from repro.faults import crossval
    from repro.faults.campaign import CampaignSpec

    specs = [CampaignSpec.from_dict(item["spec"]) for item in plan]
    walls = []
    results = []
    set_cpu: dict[int, float] = {}
    cpu = common.process_cpu_seconds(os.getpid())
    for index, (item, spec) in enumerate(zip(plan, specs)):
        started = time.perf_counter()
        result = crossval.evaluate_campaign(spec, workers=workers)
        walls.append(time.perf_counter() - started)
        results.append(result)
        if index + 1 == len(plan) or plan[index + 1]["set"] != item["set"]:
            now = common.process_cpu_seconds(os.getpid())
            set_cpu[item["set"]] = now - cpu
            cpu = now
    injections = sum(result.result.total_injections() for result in results)
    set_walls: dict[int, float] = {}
    for item, wall in zip(plan, walls):
        set_walls[item["set"]] = set_walls.get(item["set"], 0.0) + wall
    return {
        "walls": walls,
        "set_walls": [set_walls[key] for key in sorted(set_walls)],
        "set_cpu": [set_cpu[key] for key in sorted(set_cpu)],
        "payloads": [_payload(result) for result in results],
        "injections": injections,
    }


def warm_up(workers: int) -> None:
    """Start the worker pool and compile once, as set-up does."""
    from repro.faults import crossval
    from repro.faults.campaign import CampaignSpec

    for _, fields in SHAPES:
        spec = CampaignSpec.from_dict(
            {**fields, "replications": workers, "horizon_hours": 50.0, "seed": 1}
        )
        crossval.evaluate_campaign(spec, workers=workers)


def _mismatches(reference: list, other: list) -> int:
    return sum(1 for a, b in zip(reference, other) if a != b) + abs(
        len(reference) - len(other)
    )


def run(seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    from repro.perf.parallel import shutdown_warm_pools

    workers = common.CONCURRENCY
    if not trace:
        setup = common.measure_setup("campaigns", SETUP_PROBES)
        plan = build_plan(seed, sets_for(seconds))
        warm_up(workers)
        timed = run_plan(plan, workers)
        shutdown_warm_pools(wait=True)
        peak = common.self_and_children_peak_mib()
        # Oracle, outside the timed region: the first set again at one
        # worker must give == results.
        first = [item for item in plan if item["set"] == 0]
        reference = run_plan(first, 1)
        failures = _mismatches(reference["payloads"], timed["payloads"][: len(first)])
        walls_ms = [1000.0 * wall for wall in timed["walls"]]
        q = common.tail_quantile(len(walls_ms))
        values = {
            "setup_s": common.median(setup["cpu_s"]),
            "peak_rss_mb": peak,
            "cpu_ms_per_op": 1000.0
            * common.median(timed["set_cpu"])
            / len(SHAPES),
        }
        details = {
            "workers": workers,
            "campaigns": len(plan),
            "sets": len(timed["set_walls"]),
            "set_cpu_s": timed["set_cpu"],
            "campaign_wall_s": common.median(timed["set_walls"]),
            "campaign_p50_ms": common.percentile(walls_ms, 0.5),
            "campaign_tail_ms": common.percentile(walls_ms, q),
            "tail_quantile": q,
            "samples_beyond_tail": common.samples_beyond(walls_ms, q),
            "per_shape_median_ms": _per_shape(plan, walls_ms),
            "setup_cpu_s": setup["cpu_s"],
            "setup_wall_s": setup["wall_s"],
            "injections": timed["injections"],
            "checked_against_workers_1": len(first),
        }
        return {
            "values": values,
            "checked": {
                "attempted": len(plan),
                "failures": {"workers mismatch": failures} if failures else {},
            },
            "details": details,
        }

    import layers
    from tracer import Tracer

    plan = build_plan(seed, TRACED_SETS)
    warm_up(workers)
    parallel = run_plan(plan, workers)
    serial = run_plan(plan, 1)
    tracer = Tracer()
    layers.install(tracer)
    traced = run_plan(plan, 1)
    shutdown_warm_pools(wait=True)
    spans = common.OUT / f"campaigns-spans-{seed}.json"
    tracer.dump(spans)
    failures = {}
    for label, other in (("workers", parallel), ("tracing", traced)):
        count = _mismatches(serial["payloads"], other["payloads"])
        if count:
            failures[f"{label} mismatch"] = count
    values = common.zero_layers()
    values.update(layers.layer_metrics(tracer.aggregates()))
    values.update(
        {
            "trace.overhead_ratio": sum(traced["walls"]) / sum(serial["walls"]),
            "perf.parallel.speedup": sum(serial["walls"]) / sum(parallel["walls"]),
            "faults.hazards.injections": float(traced["injections"]),
        }
    )
    details = {
        "campaigns": len(plan),
        "serial_wall_s": sum(serial["walls"]),
        "parallel_wall_s": sum(parallel["walls"]),
        "traced_wall_s": sum(traced["walls"]),
        "spans_file": str(spans.relative_to(common.ROOT)),
    }
    return {
        "values": values,
        "checked": {"attempted": 3 * len(plan), "failures": failures},
        "details": details,
    }


def _per_shape(plan: list[dict[str, Any]], walls_ms: list[float]) -> dict:
    shapes: dict[str, list[float]] = {}
    for item, wall in zip(plan, walls_ms):
        shapes.setdefault(item["label"], []).append(wall)
    return {label: common.median(values) for label, values in shapes.items()}
