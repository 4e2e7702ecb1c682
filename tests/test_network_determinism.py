"""Network subsystem reproducibility against the committed golden fixture.

Three contracts, all anchored by ``tests/golden/network_fixtures.json``
(regenerate with ``tests/regen_network_fixtures.py`` — never in place):

* the analytic surface (exact unavailability, union bound, path lower
  bound, cut-set census) of every reference graph matches the fixture to
  1e-12, and graph hashes are stable across JSON round-trips;
* placement searches reproduce the pinned sites, values, and greedy
  bounds exactly;
* the pinned hazard campaign is bit-identical (``==``, no tolerance)
  to the fixture and across worker counts and telemetry on/off — the
  same discipline ``test_sim_engine_determinism.py`` applies to the
  controller simulator.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.network import NetworkCampaignSpec, NetworkGraph, analyze_switch
from repro.network.placement import optimize_placement
from repro.network import run_network_campaign
from repro.obs import runtime as obs
from repro.obs import telemetry
from repro.obs.telemetry import JsonlSink
from repro.topology.network_reference import NETWORK_REFERENCE_BUILDERS

from tests.regen_network_fixtures import (
    ANALYSIS_GRAPHS,
    CAMPAIGN_SPEC,
    PLACEMENT_SEARCHES,
    analysis_record,
    campaign_record,
    run_fixture_campaign,
)

GOLDEN = Path(__file__).resolve().parent / "golden" / "network_fixtures.json"
TOL = 1e-12


@pytest.fixture(scope="module")
def fixture() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def _no_leaked_session():
    obs.stop()
    telemetry.stop()
    yield
    obs.stop()
    telemetry.stop()


def _close(actual: float | None, expected: float | None) -> bool:
    if actual is None or expected is None:
        return actual is None and expected is None
    return math.isclose(actual, expected, rel_tol=0.0, abs_tol=TOL)


def _fingerprint(campaign):
    return (campaign.results, campaign.seeds, campaign.stats)


class TestAnalysisGolden:
    @pytest.mark.parametrize(
        "builder,max_order",
        ANALYSIS_GRAPHS,
        ids=[builder.__name__ for builder, _ in ANALYSIS_GRAPHS],
    )
    def test_reference_graph_matches_fixture(self, fixture, builder, max_order):
        graph = builder()
        pinned = fixture["analysis"][graph.name]
        assert graph.graph_hash() == pinned["graph_hash"]
        assert pinned["max_order"] == max_order
        assert set(pinned["switches"]) == set(graph.switches)
        for switch, expected in pinned["switches"].items():
            record = analysis_record(
                analyze_switch(graph, switch, max_order=max_order)
            )
            assert record["cut_sets"] == expected["cut_sets"]
            assert record["min_cut_order"] == expected["min_cut_order"]
            for key in ("unavailability", "union_bound", "path_lower_bound"):
                assert _close(record[key], expected[key]), (
                    f"{graph.name}/{switch} {key}: "
                    f"{record[key]!r} != {expected[key]!r}"
                )

    def test_graph_hash_survives_json_round_trip(self):
        for builder in NETWORK_REFERENCE_BUILDERS.values():
            graph = builder()
            restored = NetworkGraph.from_json(graph.to_json())
            assert restored == graph
            assert restored.graph_hash() == graph.graph_hash()


class TestPlacementGolden:
    def test_pinned_searches_reproduce_exactly(self, fixture):
        assert len(fixture["placement"]) == len(PLACEMENT_SEARCHES)
        for pinned, (builder, k, method) in zip(
            fixture["placement"], PLACEMENT_SEARCHES
        ):
            graph = builder()
            assert pinned["graph"] == graph.name
            result = optimize_placement(graph, k=k, method=method)
            expected = pinned["result"]
            assert list(result.sites) == expected["sites"]
            assert result.method == expected["method"]
            assert result.evaluations == expected["evaluations"]
            assert _close(result.availability, expected["availability"])
            assert _close(result.bound, expected["bound"])
            assert dict(result.per_switch).keys() == (
                expected["per_switch"].keys()
            )
            for switch, value in result.per_switch:
                assert _close(value, expected["per_switch"][switch])


#: Prints ``repr`` of every reference-graph analysis number, one line per
#: switch: run under two string-hash seeds, the outputs must be equal.
_HASH_SEED_PROBE = """
from repro.network import analyze_switch
from repro.topology.network_reference import reference_network

for name, order in (
    ("line", None), ("ring", None), ("fat_tree", None), ("backbone", None),
    ("two_tier", 2),
):
    graph = reference_network(name)
    for switch in graph.switches:
        a = analyze_switch(graph, switch, max_order=order)
        print(name, switch, repr(a.unavailability),
              repr(a.path_lower_bound), repr(a.union_bound))
"""


class TestHashSeedIndependence:
    def test_analyses_are_byte_identical_across_hash_seeds(self):
        """No analysis number may depend on ``PYTHONHASHSEED``: products
        multiply in sorted-name order, never frozenset iteration order."""
        root = Path(__file__).resolve().parent.parent
        runs = []
        try:
            for hash_seed in ("1", "2"):
                env = {
                    **os.environ,
                    "PYTHONHASHSEED": hash_seed,
                    "PYTHONPATH": os.pathsep.join(
                        [str(root / "src"), os.environ.get("PYTHONPATH", "")]
                    ),
                }
                runs.append(
                    subprocess.Popen(
                        [sys.executable, "-c", _HASH_SEED_PROBE],
                        cwd=root, env=env, text=True,
                        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                    )
                )
            outputs = []
            for run in runs:
                stdout, stderr = run.communicate(timeout=300)
                assert run.returncode == 0, stderr
                outputs.append(stdout)
        finally:
            for run in runs:
                run.kill()  # no-op for a process that already exited
                run.wait()
        switches = sum(
            len(NETWORK_REFERENCE_BUILDERS[name]().switches)
            for name in ("line", "ring", "fat_tree", "backbone", "two_tier")
        )
        assert len(outputs[0].splitlines()) == switches
        assert outputs[0] == outputs[1]


class TestCampaignBitIdentical:
    def test_matches_fixture_bit_for_bit(self, fixture):
        pinned = fixture["campaign"]
        assert CAMPAIGN_SPEC.to_dict() == pinned["spec"]
        assert CAMPAIGN_SPEC.params_hash() == pinned["spec_hash"]
        campaign = run_fixture_campaign()
        assert list(campaign.seeds) == pinned["seeds"]
        assert [campaign_record(r) for r in campaign.results] == (
            pinned["results"]
        )
        for kind, count in pinned["injections"].items():
            assert campaign.total_injections(kind) == count

    def test_spec_round_trip_gives_identical_results(self):
        restored = NetworkCampaignSpec.from_json(CAMPAIGN_SPEC.to_json())
        assert restored == CAMPAIGN_SPEC
        assert restored.params_hash() == CAMPAIGN_SPEC.params_hash()
        assert restored.graph.graph_hash() == (
            CAMPAIGN_SPEC.graph.graph_hash()
        )
        baseline = run_fixture_campaign()
        rerun = run_network_campaign(restored)
        assert _fingerprint(rerun) == _fingerprint(baseline)

    @pytest.mark.slow
    def test_workers_do_not_change_results(self):
        baseline = run_fixture_campaign(workers=1)
        pooled = run_fixture_campaign(workers=4)
        assert _fingerprint(pooled) == _fingerprint(baseline)

    def test_telemetry_does_not_change_results(self, tmp_path):
        baseline = run_fixture_campaign()
        telemetry.start([JsonlSink(tmp_path / "net.jsonl")])
        try:
            streamed = run_fixture_campaign()
        finally:
            telemetry.stop()
        assert _fingerprint(streamed) == _fingerprint(baseline)
        events = [
            json.loads(line)
            for line in (tmp_path / "net.jsonl")
            .read_text(encoding="utf-8")
            .splitlines()
        ]
        kinds = {event["kind"] for event in events}
        assert "network.campaign.start" in kinds
        assert "network.campaign.end" in kinds

    def test_tracing_does_not_change_results(self):
        baseline = run_fixture_campaign()
        with obs.session("network-determinism") as session:
            traced = run_fixture_campaign()
        assert _fingerprint(traced) == _fingerprint(baseline)
        assert "network-campaign" in session.solver_path
        assert session.annotations["seed.network_root"] == CAMPAIGN_SPEC.seed
        assert session.annotations["seed.network_hash"] == (
            CAMPAIGN_SPEC.params_hash()
        )
        counters = session.metrics.snapshot()["counters"]
        assert counters["network.injections.link_flap"] > 0
        assert counters["network.injections.srg_failure"] > 0

    def test_regen_out_flag_never_clobbers_goldens(self, tmp_path):
        """``--out`` writes elsewhere; the committed fixture stays put."""
        from tests.regen_network_fixtures import main

        before = GOLDEN.read_bytes()
        assert main(["--out", str(tmp_path)]) == 0
        assert (tmp_path / "network_fixtures.json").exists()
        assert GOLDEN.read_bytes() == before

    @pytest.mark.slow
    def test_script_regen_is_byte_reproducible(self, tmp_path):
        """Script-mode regeneration pins the string-hash seed, so runs
        started under different ambient seeds write identical bytes."""
        root = Path(__file__).resolve().parent.parent
        outputs = []
        for hash_seed in ("1", "2"):
            out = tmp_path / hash_seed
            env = {
                **os.environ,
                "PYTHONHASHSEED": hash_seed,
                "PYTHONPATH": os.pathsep.join(
                    [str(root / "src"), os.environ.get("PYTHONPATH", "")]
                ),
            }
            subprocess.run(
                [
                    sys.executable, "-m", "tests.regen_network_fixtures",
                    "--out", str(out),
                ],
                cwd=root, env=env, check=True, capture_output=True,
            )
            outputs.append((out / "network_fixtures.json").read_bytes())
        assert outputs[0] == outputs[1]
