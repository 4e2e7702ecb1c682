"""Workload ``network_study``: a seeded control-network design study.

One *study* asks :data:`QUESTIONS` in order, one at a time, through the
functions ``repro-avail network`` calls.  Every question works on a copy
of a reference topology whose element availabilities the seed perturbs,
so topologies repeat across questions while every graph (and so every
cache keyed on a graph) is new:

* ``analyze_switch`` for every switch at the CLI default (full cut
  census) on ``line``, ``fat_tree``, ``ring`` and ``backbone``;
* ``two_tier`` at ``max_order=2``;
* ``optimize_placement`` with ``k=2``, ``method="local"`` over the
  routers and sites of ``backbone``;
* a ``sweep_site_sets`` what-if over site pairs of ``backbone``.

``two_tier`` at the default full census is left out: it does not finish.
Each analysis is checked against ``evaluator="factored"`` wherever that
evaluator is feasible (every graph but ``two_tier``).
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import common
from inputs import perturbed_graph

#: (label, reference graph, question kind) of one study, in order.
QUESTIONS: tuple[tuple[str, str, str], ...] = (
    ("evaluate_line", "line", "evaluate"),
    ("evaluate_fat_tree", "fat_tree", "evaluate"),
    ("evaluate_ring", "ring", "evaluate"),
    ("evaluate_backbone", "backbone", "evaluate"),
    ("two_tier_order2", "two_tier", "evaluate_order2"),
    ("placement_backbone", "backbone", "placement"),
    ("sweep_backbone", "backbone", "sweep"),
)
#: Graphs small enough for the factored oracle.
FACTORED_FEASIBLE = frozenset({"line", "fat_tree", "ring", "backbone"})
#: Studies timed per second of ``--seconds`` (about 4.5 s per study here).
STUDIES_PER_SECOND = 0.2
MIN_STUDIES = 3
TRACED_STUDIES = 2
SETUP_PROBES = 5
SWEEP_SITE_SETS = 12


def studies_for(seconds: float) -> int:
    return max(MIN_STUDIES, round(seconds * STUDIES_PER_SECOND))


def build_plan(seed: int, studies: int) -> list[dict[str, Any]]:
    """``studies`` x :data:`QUESTIONS`, inputs drawn from ``seed``."""
    from repro.topology.network_reference import reference_network

    rng = random.Random(f"network-study-{seed}")
    bases = {name: reference_network(name) for _, name, _ in QUESTIONS}
    plan = []
    for study in range(studies):
        for label, name, kind in QUESTIONS:
            graph = perturbed_graph(bases[name], rng)
            item: dict[str, Any] = {
                "study": study,
                "label": label,
                "topology": name,
                "kind": kind,
                "graph": graph,
            }
            routers = [n.name for n in graph.nodes if n.kind == "router"]
            if kind == "placement":
                item["candidates"] = tuple(routers) + graph.sites
                item["restarts"] = 2
                item["placement_seed"] = rng.randrange(1 << 16)
            elif kind == "sweep":
                pool = tuple(routers) + graph.sites
                pairs = [
                    (a, b) for i, a in enumerate(pool) for b in pool[i + 1 :]
                ]
                item["site_sets"] = rng.sample(pairs, SWEEP_SITE_SETS)
            plan.append(item)
    return plan


def ask(item: dict[str, Any]) -> dict[str, Any]:
    """Answer one question; returns what the oracle checks."""
    from repro.network import batch, paths, placement

    graph = item["graph"]
    kind = item["kind"]
    if kind in ("evaluate", "evaluate_order2"):
        order = 2 if kind == "evaluate_order2" else None
        analyses = [
            paths.analyze_switch(graph, switch, max_order=order)
            for switch in graph.switches
        ]
        return {
            "unavailability": {a.switch: a.unavailability for a in analyses},
            "cut_sets": sum(len(a.cut_sets) for a in analyses),
        }
    if kind == "placement":
        result = placement.optimize_placement(
            graph,
            k=2,
            candidates=item["candidates"],
            method="local",
            restarts=item["restarts"],
            seed=item["placement_seed"],
        )
        return {
            "sites": result.sites,
            "availability": result.availability,
            "evaluations": result.evaluations,
        }
    sweep = batch.sweep_site_sets(graph, item["site_sets"])
    return {"availability": sweep.availability.tolist(), "switches": sweep.switches}


def run_plan(plan: list[dict[str, Any]]) -> dict[str, Any]:
    """Answer every question of ``plan``; per-question walls, per-study CPU."""
    walls = []
    answers = []
    study_cpu: dict[int, float] = {}
    cpu = common.process_cpu_seconds(os.getpid())
    for index, item in enumerate(plan):
        started = time.perf_counter()
        answers.append(ask(item))
        walls.append(time.perf_counter() - started)
        if index + 1 == len(plan) or plan[index + 1]["study"] != item["study"]:
            now = common.process_cpu_seconds(os.getpid())
            study_cpu[item["study"]] = now - cpu
            cpu = now
    studies: dict[int, float] = {}
    for item, wall in zip(plan, walls):
        studies[item["study"]] = studies.get(item["study"], 0.0) + wall
    return {
        "walls": walls,
        "answers": answers,
        "study_walls": [studies[key] for key in sorted(studies)],
        "study_cpu": [study_cpu[key] for key in sorted(study_cpu)],
    }


def seen_topology_ratio(plan: list[dict[str, Any]]) -> float:
    """Share of questions whose topology an earlier question already used."""
    seen: set[str] = set()
    repeats = 0
    for item in plan:
        repeats += item["topology"] in seen
        seen.add(item["topology"])
    return repeats / len(plan)


def check(item: dict[str, Any], answer: dict[str, Any]) -> bool:
    """Compare one answer with ``evaluator="factored"`` where feasible."""
    from repro.network.paths import (
        exact_control_path_unavailability,
        fleet_availability,
    )

    graph = item["graph"]
    if item["topology"] not in FACTORED_FEASIBLE:
        return True

    def factored(switch: str, sites: Any = None) -> float:
        return exact_control_path_unavailability(
            graph, switch, sites, evaluator="factored"
        )

    if item["kind"] == "evaluate":
        return all(
            abs(value - factored(switch)) <= 1e-12
            for switch, value in answer["unavailability"].items()
        )
    if item["kind"] == "placement":
        expected = fleet_availability(
            {s: 1.0 - factored(s, answer["sites"]) for s in graph.switches}
        )
        return abs(expected - answer["availability"]) <= 1e-12
    for row, sites in enumerate(item["site_sets"]):
        for column, switch in enumerate(answer["switches"]):
            expected = 1.0 - factored(switch, sites)
            if abs(expected - answer["availability"][row][column]) > 1e-12:
                return False
    return True


def warm_up() -> None:
    """Import the network stack and compile one small graph, as set-up does."""
    from repro.network import paths
    from repro.topology.network_reference import reference_network

    for _, name, _ in QUESTIONS:
        reference_network(name)
    graph = reference_network("line")
    for switch in graph.switches:
        paths.analyze_switch(graph, switch)


def _failures(plan: list[dict[str, Any]], answers: list[dict]) -> dict[str, int]:
    failures: dict[str, int] = {}
    for item, answer in zip(plan, answers):
        if not check(item, answer):
            key = f"wrong {item['label']}"
            failures[key] = failures.get(key, 0) + 1
    return failures


def run(seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    if not trace:
        setup = common.measure_setup("network_study", SETUP_PROBES)
        plan = build_plan(seed, studies_for(seconds))
        warm_up()
        timed = run_plan(plan)
        peak = common.self_and_children_peak_mib()
        failures = _failures(plan, timed["answers"])
        walls_ms = [1000.0 * wall for wall in timed["walls"]]
        q = common.tail_quantile(len(walls_ms))
        values = {
            "setup_s": common.median(setup["cpu_s"]),
            "peak_rss_mb": peak,
            "cpu_ms_per_op": 1000.0
            * common.median(timed["study_cpu"])
            / len(QUESTIONS),
        }
        per_label: dict[str, list[float]] = {}
        for item, wall in zip(plan, walls_ms):
            per_label.setdefault(item["label"], []).append(wall)
        details = {
            "questions": len(plan),
            "studies": len(timed["study_walls"]),
            "study_cpu_s": timed["study_cpu"],
            "study_s": common.median(timed["study_walls"]),
            "question_p50_ms": common.percentile(walls_ms, 0.5),
            "question_tail_ms": common.percentile(walls_ms, q),
            "tail_quantile": q,
            "samples_beyond_tail": common.samples_beyond(walls_ms, q),
            "seen_topology_ratio": seen_topology_ratio(plan),
            "per_question_median_ms": {
                label: common.median(v) for label, v in per_label.items()
            },
            "setup_cpu_s": setup["cpu_s"],
            "setup_wall_s": setup["wall_s"],
        }
        return {
            "values": values,
            "checked": {"attempted": len(plan), "failures": failures},
            "details": details,
        }

    plan = build_plan(seed, TRACED_STUDIES)
    plain = run_pass(seed, TRACED_STUDIES, trace=False)
    traced = run_pass(seed, TRACED_STUDIES, trace=True)
    failures = _failures(plan, plain["answers"])
    mismatched = sum(a != b for a, b in zip(plain["answers"], traced["answers"]))
    if mismatched:
        failures["tracing mismatch"] = mismatched
    import layers

    values = common.zero_layers()
    values.update(layers.layer_metrics(traced["aggregates"]))
    values.update(
        {
            "trace.overhead_ratio": sum(traced["walls"]) / sum(plain["walls"]),
            "network.study.seen_topology_ratio": seen_topology_ratio(plan),
        }
    )
    details = {
        "questions": len(plan),
        "untraced_wall_s": sum(plain["walls"]),
        "traced_wall_s": sum(traced["walls"]),
        "spans_file": traced["spans_file"],
    }
    return {
        "values": values,
        "checked": {"attempted": 2 * len(plan), "failures": failures},
        "details": details,
    }


def run_pass(seed: int, studies: int, trace: bool) -> dict[str, Any]:
    """One pass over the plan in a fresh process, so no cache is warm.

    The program memoizes compiled paths per graph, and a second pass over
    the same plan in one process would only measure those caches.
    """
    out = common.OUT / f"network_study-pass-{seed}-{int(trace)}.json"
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--seed", str(seed), "--studies", str(studies),
        "--trace", str(int(trace)), "--out", str(out),
    ]
    completed = subprocess.run(
        command, capture_output=True, text=True, env=common.subprocess_env(),
        cwd=common.ROOT, timeout=170,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"study pass failed: {completed.stderr[-2000:]}")
    return json.loads(out.read_text())


def _pass_main(argv: list[str]) -> int:
    import argparse

    parser = argparse.ArgumentParser(description="one network_study pass")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--studies", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    common.use_checkout_source()
    plan = build_plan(args.seed, args.studies)
    warm_up()
    record: dict[str, Any] = {"aggregates": {}, "spans_file": None}
    if args.trace:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        layers.install(tracer)
        result = run_plan(plan)
        spans = common.OUT / f"network_study-spans-{args.seed}.json"
        tracer.dump(spans)
        record["aggregates"] = tracer.aggregates()
        record["spans_file"] = str(spans.relative_to(common.ROOT))
    else:
        result = run_plan(plan)
    record.update(result)
    Path(args.out).write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(_pass_main(sys.argv[1:]))
