"""Network analysis throughput: cut sets, SDP evaluation, placement.

Times (a) full per-switch control-path analyses — structure lowering,
complete minimal path enumeration with the cut sets derived from it as
minimal hitting sets, and the Shannon-factored exact evaluator — over the reference ring and fat-tree graphs, (b) an
exhaustive k=2 placement search over seven candidate sites on the backbone
mesh, and (c) the sum-of-disjoint-products stack: factored vs SDP exact
evaluation on the backbone (speedup floor: 10x), SDP-only exact
evaluation on the 66-element two-tier graph where factoring is
infeasible, batched (switch, site-set) sweep throughput, and
local-search vs greedy placement value.  Appends ``network`` and ``sdp``
sections to ``BENCH_perf.json`` (other sections are preserved).
Runnable as a pytest benchmark *or* directly as a script —
``python benchmarks/bench_network.py --repeats 1 --check`` is the CI
smoke invocation.

Acceptance floors are deliberately an order of magnitude below the rates
measured on a development laptop, and are waived entirely on single-core
runners where timing is meaningless.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":  # script mode: make src/ importable without install
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.sdp import sdp_kernel, sdp_terms
from repro.network import (
    analyze_switch,
    compile_pair_sweep,
    exact_control_path_unavailability,
    optimize_placement,
)
from repro.network.paths import (
    _control_path_sets_cached,
    _exact_unavailability_cached,
    _sdp_expression_cached,
)
from repro.reporting.tables import format_table
from repro.topology.network_reference import (
    backbone_network,
    fat_tree_pod,
    ring_network,
    two_tier_network,
)

BENCH_SEED = 20190324  # shared with bench_perf_engine.py
DEFAULT_OUT = REPO_ROOT / "BENCH_perf.json"

#: Floors ~10x below a development-laptop measurement; see module docstring.
ANALYSIS_FLOOR_PER_S = 0.5
PLACEMENT_FLOOR_EVALS_PER_S = 3.0
#: The tentpole acceptance target: SDP exact evaluation must beat the
#: factored evaluator by at least this factor on the backbone mesh.
SDP_SPEEDUP_FLOOR = 10.0
BATCH_FLOOR_PAIRS_PER_S = 200.0


def _best_of(fn, repeats: int):
    best_time, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best_time = min(best_time, time.perf_counter() - start)
    return best_time, result


def _run_analyses():
    """Full-order analysis of every switch on the ring and fat-tree pod.

    The exact-evaluator memo is cleared first so every repeat pays the
    whole pipeline (prune, enumerate, factor), not a cache lookup.
    """
    _exact_unavailability_cached.cache_clear()
    analyses = []
    for graph in (ring_network(), fat_tree_pod()):
        for switch in graph.switches:
            analyses.append(analyze_switch(graph, switch))
    return analyses


def _run_placement():
    """Exhaustive k=2 search over all 7 backbone attachment points."""
    _exact_unavailability_cached.cache_clear()
    graph = backbone_network()
    candidates = tuple(
        node.name for node in graph.nodes if node.kind in ("site", "router")
    )
    return optimize_placement(
        graph, k=2, candidates=candidates, method="exact"
    )


def _clear_sdp_caches() -> None:
    """Every repeat pays enumeration + disjointing + evaluation, cold."""
    _exact_unavailability_cached.cache_clear()
    _sdp_expression_cached.cache_clear()
    _control_path_sets_cached.cache_clear()
    sdp_kernel.cache_clear()
    sdp_terms.cache_clear()


def _run_exact(graph, evaluator: str):
    _clear_sdp_caches()
    return [
        exact_control_path_unavailability(graph, switch, evaluator=evaluator)
        for switch in graph.switches
    ]


def _batch_site_sets(candidates):
    """All 1- and 2-site subsets of the candidate pool, sorted."""
    pool = sorted(candidates)
    singles = [(site,) for site in pool]
    pairs = [
        (a, b) for i, a in enumerate(pool) for b in pool[i + 1:]
    ]
    return singles + pairs


def run_sdp_bench(repeats: int = 3) -> dict:
    """Time the SDP stack and return the BENCH_perf.json ``sdp`` section."""
    backbone = backbone_network()
    factored_s, _ = _best_of(lambda: _run_exact(backbone, "factored"), repeats)
    sdp_s, _ = _best_of(lambda: _run_exact(backbone, "sdp"), repeats)

    two_tier = two_tier_network()
    two_tier_s, _ = _best_of(lambda: _run_exact(two_tier, "sdp"), repeats)

    candidates = tuple(
        node.name
        for node in backbone.nodes
        if node.kind in ("site", "router")
    )
    site_sets = _batch_site_sets(candidates)

    def compile_cold():
        from repro.network.batch import _indicator_path_sets_cached

        _clear_sdp_caches()
        _indicator_path_sets_cached.cache_clear()
        return compile_pair_sweep(backbone, candidates=candidates)

    plan_compile_s, plan = _best_of(compile_cold, repeats)
    batch_eval_s, sweep = _best_of(lambda: plan.evaluate(site_sets), repeats)
    pairs = len(site_sets) * len(plan.switches)

    greedy = optimize_placement(
        backbone, k=2, candidates=candidates, method="greedy"
    )
    local = optimize_placement(
        backbone, k=2, candidates=candidates, method="local"
    )
    return {
        "seed": BENCH_SEED,
        "cpus": os.cpu_count() or 1,
        "repeats": repeats,
        "graph": backbone.name,
        "switches": len(backbone.switches),
        "factored_s": factored_s,
        "sdp_s": sdp_s,
        "speedup": factored_s / sdp_s,
        "two_tier_graph": two_tier.name,
        "two_tier_elements": (
            len(two_tier.nodes) + len(two_tier.links) + len(two_tier.srgs)
        ),
        "two_tier_sdp_s": two_tier_s,
        "batch_candidates": len(candidates),
        "batch_site_sets": len(site_sets),
        "batch_unique_terms": plan.unique_terms,
        "batch_compile_s": plan_compile_s,
        "batch_eval_s": batch_eval_s,
        "batch_pairs": pairs,
        "batch_pairs_per_second": pairs / batch_eval_s,
        "greedy_availability": greedy.availability,
        "local_availability": local.availability,
        "local_minus_greedy": local.availability - greedy.availability,
        "local_evaluations": local.evaluations,
        "local_restarts": local.restarts,
        "local_seed": local.seed,
    }


def run_network_bench(repeats: int = 3) -> dict:
    """Time both workloads and return the BENCH_perf.json section."""
    analysis_s, analyses = _best_of(_run_analyses, repeats)
    placement_s, placement = _best_of(_run_placement, repeats)
    cut_sets = sum(len(a.cut_sets) for a in analyses)
    return {
        "seed": BENCH_SEED,
        "cpus": os.cpu_count() or 1,
        "repeats": repeats,
        "analysis_switches": len(analyses),
        "analysis_cut_sets": cut_sets,
        "analysis_s": analysis_s,
        "analyses_per_second": len(analyses) / analysis_s,
        "placement_candidates": len(placement.candidates),
        "placement_evaluations": placement.evaluations,
        "placement_sites": list(placement.sites),
        "placement_s": placement_s,
        "placement_evaluations_per_second": (
            placement.evaluations / placement_s
        ),
    }


def _report(record: dict, sdp_record: dict, out_path: Path) -> None:
    rows = [
        (
            f"analyze {record['analysis_switches']} switches "
            f"({record['analysis_cut_sets']} cut sets)",
            f"{record['analysis_s'] * 1e3:.1f}",
            f"{record['analyses_per_second']:.1f}/s",
        ),
        (
            f"place k=2 over {record['placement_candidates']} candidates",
            f"{record['placement_s'] * 1e3:.1f}",
            f"{record['placement_evaluations_per_second']:.1f} evals/s",
        ),
        (
            f"{sdp_record['graph']} exact, factored evaluator",
            f"{sdp_record['factored_s'] * 1e3:.1f}",
            "baseline",
        ),
        (
            f"{sdp_record['graph']} exact, SDP evaluator",
            f"{sdp_record['sdp_s'] * 1e3:.1f}",
            f"{sdp_record['speedup']:.1f}x faster",
        ),
        (
            f"{sdp_record['two_tier_graph']} exact "
            f"({sdp_record['two_tier_elements']} elements), SDP",
            f"{sdp_record['two_tier_sdp_s'] * 1e3:.1f}",
            "factored infeasible",
        ),
        (
            f"batched sweep, {sdp_record['batch_pairs']} "
            "(switch, site-set) pairs",
            f"{sdp_record['batch_eval_s'] * 1e3:.1f}",
            f"{sdp_record['batch_pairs_per_second']:.0f} pairs/s",
        ),
        (
            "local search k=2 vs greedy",
            f"{sdp_record['local_evaluations']} evals",
            f"+{sdp_record['local_minus_greedy']:.2e} avail",
        ),
    ]
    print(
        "\n"
        + format_table(
            ("Workload", "Best (ms)", "Throughput"),
            rows,
            title="Network control-path analysis",
        )
    )
    merged = {}
    if out_path.exists():
        merged = json.loads(out_path.read_text(encoding="utf-8"))
    merged["network"] = record
    merged["sdp"] = sdp_record
    out_path.write_text(
        json.dumps(merged, indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote {out_path}")


def _floors_ok(record: dict) -> bool:
    """Throughput floors, waived where timing cannot be meaningful."""
    if record["cpus"] < 2:
        return True
    return (
        record["analyses_per_second"] >= ANALYSIS_FLOOR_PER_S
        and record["placement_evaluations_per_second"]
        >= PLACEMENT_FLOOR_EVALS_PER_S
    )


def _sdp_floors_ok(record: dict) -> bool:
    """The tentpole floors: SDP speedup and batched-sweep throughput."""
    if record["cpus"] < 2:
        return True
    return (
        record["speedup"] >= SDP_SPEEDUP_FLOOR
        and record["batch_pairs_per_second"] >= BATCH_FLOOR_PAIRS_PER_S
    )


def test_network_bench():
    record = run_network_bench()
    sdp_record = run_sdp_bench()
    _report(record, sdp_record, DEFAULT_OUT)
    assert record["analysis_cut_sets"] > 0
    assert record["placement_evaluations"] == 21  # C(7, 2)
    assert sdp_record["local_minus_greedy"] >= 0.0
    assert _floors_ok(record)
    assert _sdp_floors_ok(sdp_record)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail unless every workload meets its throughput floor",
    )
    args = parser.parse_args(argv)
    record = run_network_bench(repeats=args.repeats)
    sdp_record = run_sdp_bench(repeats=args.repeats)
    _report(record, sdp_record, args.out)
    if args.check:
        assert _floors_ok(record)
        assert _sdp_floors_ok(sdp_record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
