"""Tests of the benchmark itself: ``python3 -m pytest perfbench/tests -q``."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import pytest

import campaigns
import common
import loadgen
import network_study
import serve_mix
from tracer import Tracer, wrap_method

BENCHMARK = json.loads((common.ROOT / "BENCHMARK.json").read_text())


# -- plans are a pure function of the seed -------------------------------------


def test_serve_plan_is_identical_for_a_seed():
    first = loadgen.build_plan(7, 300, "open")
    second = loadgen.build_plan(7, 300, "open")
    assert [item["body"] for item in first] == [item["body"] for item in second]
    assert [item["tenant"] for item in first] == [item["tenant"] for item in second]
    other = loadgen.build_plan(8, 300, "open")
    assert [item["body"] for item in first] != [item["body"] for item in other]


def test_serve_plan_has_the_stated_mix():
    plan = loadgen.build_plan(3, 1000, "closed")
    kinds = [item["kind"] for item in plan]
    twins = sum(
        a["body"] == b["body"] and a["kind"] == "network"
        for a, b in zip(plan, plan[1:])
    )
    assert twins > 0
    for kind, share in loadgen.MIX:
        expected = round(1000 * share)
        expected += {"hw": -twins, "network": twins}.get(kind, 0)
        assert kinds.count(kind) == expected
    assert len({item["tenant"] for item in plan}) == loadgen.TENANTS
    assert len(loadgen.build_vocabulary(3)["hw"]) == 4 * 256


def test_serve_run_overflows_the_lru():
    """One run's distinct cacheable queries exceed the 256-entry LRU."""
    seconds = BENCHMARK["run_seconds"]
    session = serve_mix.plans(3, seconds)
    queries = {
        item["body"]
        for plan in session
        for item in plan
        if item["path"] == "/v1/query"
    }
    assert len(queries) > 256


def test_campaign_plan_is_identical_for_a_seed():
    assert campaigns.build_plan(5, 4) == campaigns.build_plan(5, 4)
    assert campaigns.build_plan(5, 4) != campaigns.build_plan(6, 4)


def test_network_plan_is_identical_for_a_seed():
    first = network_study.build_plan(5, 2)
    second = network_study.build_plan(5, 2)
    assert first == second  # graphs compare by value
    assert first != network_study.build_plan(6, 2)


# -- percentiles ---------------------------------------------------------------


@pytest.mark.parametrize("count", [11, 12, 28, 36, 100, 999, 1000, 2400, 5000])
def test_tail_quantile_leaves_ten_samples_beyond(count):
    values = [float(i) for i in range(count)]
    q = common.tail_quantile(count)
    assert q <= 0.99
    assert common.samples_beyond(values, q) >= 10
    # Nearest rank: the reported value is the one with that many above it.
    assert sum(v > common.percentile(values, q) for v in values) >= 10


def test_tail_quantile_refuses_too_few_samples():
    with pytest.raises(ValueError):
        common.tail_quantile(10)


def test_every_workload_tail_has_ten_samples_beyond():
    seconds = BENCHMARK["run_seconds"]
    counts = {
        "serve_mix": len(serve_mix.plans(1, seconds)[0]),
        "campaigns": campaigns.sets_for(seconds) * len(campaigns.SHAPES),
        "network_study": network_study.studies_for(seconds)
        * len(network_study.QUESTIONS),
    }
    for workload, count in counts.items():
        values = list(range(count))
        q = common.tail_quantile(count)
        assert common.samples_beyond(values, q) >= 10, workload
    assert common.tail_quantile(counts["serve_mix"]) == 0.99


def test_failed_queries_count_as_infinite_latency():
    outcome = loadgen.Outcome(index=0, due=1.0, sent=1.1, error="refused")
    assert outcome.latency == math.inf
    latencies = [1.0] * 99 + [outcome.latency]
    assert common.percentile(latencies, 0.99) == 1.0
    assert common.percentile(latencies, 1.0) == math.inf


# -- tracing -------------------------------------------------------------------


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_child_spans():
    clock = _Clock()
    tracer = Tracer(clock=clock)
    parent = tracer.begin("parent")
    clock.now = 2.0
    child = tracer.begin("child")
    clock.now = 5.0
    tracer.end(child)
    clock.now = 6.0
    second = tracer.begin("child")
    clock.now = 7.5
    grandchild = tracer.begin("grandchild")
    clock.now = 8.0
    tracer.end(grandchild)
    tracer.end(second)
    clock.now = 10.0
    tracer.end(parent)
    aggregates = tracer.aggregates()
    assert aggregates["parent"]["total"] == 10.0
    # 10 s minus the 3 s and 2 s its two children cover.
    assert aggregates["parent"]["self"] == 5.0
    assert aggregates["child"]["calls"] == 2
    assert aggregates["child"]["total"] == 5.0
    # The grandchild is subtracted from its own parent only.
    assert aggregates["child"]["self"] == 4.5
    assert aggregates["grandchild"]["self"] == 0.5
    spans = {(span["name"], span["start"]): span for span in tracer.spans()}
    assert spans[("grandchild", 7.5)]["parent"] == spans[("child", 6.0)]["id"]
    assert spans[("child", 2.0)]["parent"] == spans[("parent", 0.0)]["id"]
    assert spans[("parent", 0.0)]["parent"] == 0


def test_wrapped_method_keeps_results_and_counts_units():
    class Box:
        def items(self, count):
            return list(range(count))

    tracer = Tracer()
    original = Box.items
    wrap_method(tracer, Box, "items", "box.items", lambda r, a, k: len(r))
    try:
        assert Box().items(3) == [0, 1, 2]
        assert Box().items(4) == [0, 1, 2, 3]
    finally:
        Box.items = original
    aggregate = tracer.aggregates()["box.items"]
    assert aggregate["calls"] == 2
    assert aggregate["units"] == 7


# -- CPU time ------------------------------------------------------------------


_BUSY_CHILD = """
import sys, time
end = time.process_time() + 0.3
while time.process_time() < end:
    pass
sys.stdout.write("busy done")
sys.stdout.flush()
time.sleep(60)
"""


def test_process_cpu_seconds_counts_live_then_reaped_children():
    before = common.process_cpu_seconds(os.getpid())
    child = subprocess.Popen(
        [sys.executable, "-c", _BUSY_CHILD], stdout=subprocess.PIPE
    )
    try:
        assert child.stdout.read(9) == b"busy done"
        live = common.process_cpu_seconds(os.getpid()) - before
    finally:
        child.kill()
        child.wait()
        child.stdout.close()
    reaped = common.process_cpu_seconds(os.getpid()) - before
    assert live >= 0.3
    # A reaped child is in ``cutime + cstime``, at clock-tick resolution.
    assert reaped >= 0.3 - 2.0 / common.CLOCK_TICKS


def test_idle_time_is_not_cpu_time():
    before = common.process_cpu_seconds(os.getpid())
    subprocess.run([sys.executable, "-c", "import time; time.sleep(0.5)"])
    assert common.process_cpu_seconds(os.getpid()) - before < 0.4


# -- metric names --------------------------------------------------------------


def test_metric_names_are_well_formed():
    names = [name for name, _ in common.END_TO_END + common.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert common.METRIC_NAME.fullmatch(name), name
        assert len(name) <= 64


def test_benchmark_json_matches_the_reported_metrics():
    assert [
        (m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]
    ] == list(common.END_TO_END)
    assert [
        (m["name"], m["unit"]) for m in BENCHMARK["per_layer"]
    ] == list(common.PER_LAYER)
    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    assert workloads == ["serve_mix", "campaigns", "network_study"]


def test_result_line_holds_exactly_the_contract_keys(capsys):
    values = {name: 1.5 for name, _ in common.END_TO_END}
    common.emit_result("campaigns", False, 3, 0, True, values, {})
    last = capsys.readouterr().out.strip().splitlines()[-1]
    record = json.loads(last)
    assert set(record) == {"correct", "attempted", "failed", "metrics"}
    assert set(record["metrics"]) == {name for name, _ in common.END_TO_END}
