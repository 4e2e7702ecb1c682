"""Cross-validation wall for the network control-path subsystem.

Five independent evaluators exist for the same predicate — the
sum-of-disjoint-products kernel, the Shannon factored evaluator,
brute-force structure enumeration, inclusion-exclusion over the minimal
cut sets, and the cut/path union bounds.  This suite generates random
connected graphs (spanning tree plus chords, stressed element
availabilities, optional shared-risk group) and requires:

* the bracket ``union_bound >= exact >= path_lower_bound`` on every fully
  enumerated graph;
* cut sets derived from the cached path sets equal to the brute-force
  structure-function census at every cut-order bound;
* 1e-12 agreement between the SDP and factored evaluators, between
  factored evaluation and brute-force enumeration, and 1e-9 agreement
  with cut-set inclusion-exclusion;
* the batched pair sweep reproducing the scalar evaluator on every
  (switch, site subset) pair;
* placement exactness — ``auto`` resolves to exhaustive search at <= 6
  candidates and matches an independent brute force (value and
  tie-breaking), greedy and local search never exceed their certified
  monotonicity bounds, and local search is bit-identical for a fixed
  seed.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.cutsets import exact_unavailability, minimal_cut_sets
from repro.core.structure import factored_unavailability
from repro.errors import ModelError, NetworkError
from repro.network import (
    NetworkGraph,
    NetworkLink,
    NetworkNode,
    SharedRiskGroup,
    analyze_switch,
    compile_pair_sweep,
    optimize_placement,
)
from repro.network.paths import (
    control_path_cut_sets,
    control_path_structure,
    exact_control_path_unavailability,
)
from repro.network.placement import EXACT_CANDIDATE_LIMIT, placement_value

TOL = 1e-12
#: Inclusion-exclusion sums 2^cuts alternating terms; its agreement
#: tolerance is looser than the factored/enumeration comparison.
IE_TOL = 1e-9

availabilities = st.floats(min_value=0.5, max_value=1.0, allow_nan=False)


@st.composite
def connected_graphs(draw, max_nodes: int = 6, max_chords: int = 3):
    """Random connected graphs: spanning tree + chords, <= 10 links.

    Node 0 (and sometimes node 1) are controller sites; the rest are
    switches.  Availabilities sit in [0.5, 1.0] so failures are common
    enough that bound gaps are visible, and about half the graphs put a
    random subset of links into one shared-risk group.
    """
    count = draw(st.integers(min_value=3, max_value=max_nodes))
    names = [f"N{i}" for i in range(count)]
    edges: set[tuple[int, int]] = set()
    for i in range(1, count):
        j = draw(st.integers(min_value=0, max_value=i - 1))
        edges.add((j, i))
    for _ in range(draw(st.integers(min_value=0, max_value=max_chords))):
        a = draw(st.integers(min_value=0, max_value=count - 2))
        b = draw(st.integers(min_value=a + 1, max_value=count - 1))
        edges.add((a, b))
    with_srg = draw(st.booleans())
    srgs = (
        (SharedRiskGroup("G", availability=draw(availabilities)),)
        if with_srg
        else ()
    )
    links = tuple(
        NetworkLink(
            f"L{index}",
            names[a],
            names[b],
            availability=draw(availabilities),
            srg="G" if with_srg and draw(st.booleans()) else None,
        )
        for index, (a, b) in enumerate(sorted(edges))
    )
    site_count = draw(st.integers(min_value=1, max_value=min(2, count - 1)))
    nodes = tuple(
        NetworkNode(
            name,
            kind="site" if index < site_count else "switch",
            availability=draw(availabilities),
        )
        for index, name in enumerate(names)
    )
    return NetworkGraph(name="prop", nodes=nodes, links=links, srgs=srgs)


class TestEvaluatorAgreement:
    @given(graph=connected_graphs())
    @settings(max_examples=60, deadline=None)
    def test_bounds_bracket_exact(self, graph):
        switch = graph.switches[-1]
        analysis = analyze_switch(graph, switch)
        assert 0.0 <= analysis.unavailability <= 1.0
        assert analysis.path_lower_bound is not None
        assert analysis.union_bound >= analysis.unavailability - TOL
        assert analysis.unavailability >= analysis.path_lower_bound - TOL
        assert analysis.min_cut_order >= 1

    @given(graph=connected_graphs())
    @settings(max_examples=40, deadline=None)
    def test_factored_matches_brute_force_enumeration(self, graph):
        switch = graph.switches[-1]
        structure = control_path_structure(graph, switch)
        availability = graph.availability_map()
        factored = factored_unavailability(structure, availability)
        enumerated = 1.0 - structure.availability(availability)
        assert factored == pytest.approx(enumerated, abs=TOL)

    @given(graph=connected_graphs(max_nodes=5, max_chords=2))
    @settings(max_examples=30, deadline=None)
    def test_cut_set_inclusion_exclusion_matches_factored(self, graph):
        switch = graph.switches[-1]
        analysis = analyze_switch(graph, switch)
        assume(len(analysis.cut_sets) <= 12)
        via_cuts = exact_unavailability(
            [cut.components for cut in analysis.cut_sets],
            graph.unavailability_map(),
        )
        assert via_cuts == pytest.approx(analysis.unavailability, abs=IE_TOL)

    @given(graph=connected_graphs())
    @settings(max_examples=60, deadline=None)
    def test_sdp_matches_factored_evaluator(self, graph):
        switch = graph.switches[-1]
        via_sdp = exact_control_path_unavailability(
            graph, switch, evaluator="sdp"
        )
        via_factored = exact_control_path_unavailability(
            graph, switch, evaluator="factored"
        )
        assert via_sdp == pytest.approx(via_factored, abs=TOL)
        # The default exact number sits inside the analysis bracket.
        analysis = analyze_switch(graph, switch)
        assert analysis.evaluator == "sdp"
        assert analysis.union_bound >= via_sdp - TOL
        assert via_sdp >= analysis.path_lower_bound - TOL

    @given(graph=connected_graphs(), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_batched_sweep_matches_scalar_pairs(self, graph, data):
        pool = graph.sites
        assume(len(pool) >= 1)
        plan = compile_pair_sweep(graph)
        subsets = [
            subset
            for size in range(1, len(pool) + 1)
            for subset in itertools.combinations(sorted(pool), size)
        ]
        result = plan.evaluate(subsets)
        for row, sites in enumerate(subsets):
            for column, switch in enumerate(plan.switches):
                expected = 1.0 - exact_control_path_unavailability(
                    graph, switch, sites
                )
                assert result.availability[row, column] == pytest.approx(
                    expected, abs=TOL
                ), (sites, switch)

    @given(graph=connected_graphs())
    @settings(max_examples=30, deadline=None)
    def test_path_lower_bound_needs_complete_enumeration(self, graph):
        """Bounded-order analyses must not claim a path lower bound."""
        switch = graph.switches[-1]
        bounded = analyze_switch(graph, switch, max_order=1)
        assert bounded.path_lower_bound is None
        assert bounded.max_order == 1
        complete = analyze_switch(graph, switch)
        assert complete.path_lower_bound is not None
        # The exact number is independent of the cut-order bound.
        assert bounded.unavailability == complete.unavailability


def _census(graph, switch, max_order):
    """The brute-force cut sets: a structure probe per element subset."""
    structure = control_path_structure(graph, switch)
    return set(minimal_cut_sets(structure, max_order=max_order))


def _srg_merged_diamond():
    """Two routes S1 -> CTRL whose links all ride one SRG."""
    return NetworkGraph(
        name="merged",
        nodes=(
            NetworkNode("CTRL", kind="site", availability=0.99),
            NetworkNode("R1", availability=0.9),
            NetworkNode("R2", availability=0.95),
            NetworkNode("S1", availability=0.999),
        ),
        links=tuple(
            NetworkLink(name, a, b, availability=0.97, srg="G")
            for name, a, b in (
                ("L0", "S1", "R1"),
                ("L1", "R1", "CTRL"),
                ("L2", "S1", "R2"),
                ("L3", "R2", "CTRL"),
                ("L4", "R1", "R2"),
            )
        ),
        srgs=(SharedRiskGroup("G", availability=0.98),),
    )


class TestCutSetsFromPaths:
    """Path-derived cut sets against the structure-function census."""

    @given(graph=connected_graphs())
    @settings(max_examples=60, deadline=None)
    def test_matches_census_at_every_order(self, graph):
        switch = graph.switches[-1]
        for max_order in (None, -1, 0, 1, 2, 3):
            expected = _census(graph, switch, max_order)
            derived = control_path_cut_sets(graph, switch, max_order=max_order)
            assert {cut.components for cut in derived} == expected, max_order
            analysis = analyze_switch(graph, switch, max_order=max_order)
            assert analysis.cut_sets == tuple(derived)
            if max_order is not None and max_order <= 0:
                assert analysis.cut_sets == ()

    def test_srg_merged_routes_match_census(self):
        graph = _srg_merged_diamond()
        for max_order in (None, 1, 2):
            derived = control_path_cut_sets(graph, "S1", max_order=max_order)
            assert {cut.components for cut in derived} == _census(
                graph, "S1", max_order
            )
        analysis = analyze_switch(graph, "S1")
        assert {cut.components for cut in analysis.cut_sets} >= {
            frozenset({"S1"}),
            frozenset({"CTRL"}),
            frozenset({"G"}),
        }
        assert analysis.union_bound >= analysis.unavailability


def _split_graph():
    """S1 and S2 share a link, but neither reaches the controller site."""
    return NetworkGraph(
        name="split",
        nodes=(
            NetworkNode("CTRL", kind="site"),
            NetworkNode("S1"),
            NetworkNode("S2"),
        ),
        links=(NetworkLink("L0", "S1", "S2"),),
    )


class TestPerfectAvailabilityDegeneracy:
    def test_perfect_elements_give_zero_unavailability(self):
        graph = NetworkGraph(
            name="perfect",
            nodes=(
                NetworkNode("CTRL", kind="site"),
                NetworkNode("S1"),
            ),
            links=(NetworkLink("L0", "CTRL", "S1"),),
        )
        analysis = analyze_switch(graph, "S1")
        assert analysis.unavailability == 0.0
        assert analysis.path_lower_bound == 0.0

    def test_unreachable_switch_is_fully_unavailable(self):
        graph = _split_graph()
        assert exact_control_path_unavailability(graph, "S1") == 1.0

    def test_unreachable_switch_has_no_cut_sets(self):
        """Analysis refuses a switch with no path, at any cut-order bound."""
        graph = _split_graph()
        message = "system is down with all components up; no cut sets"
        for max_order in (None, 0, 2):
            with pytest.raises(ModelError, match=message):
                analyze_switch(graph, "S1", max_order=max_order)
            with pytest.raises(ModelError, match=message):
                control_path_cut_sets(graph, "S1", max_order=max_order)

    def test_switch_as_site_rejected(self):
        graph = NetworkGraph(
            name="bad",
            nodes=(NetworkNode("CTRL", kind="site"), NetworkNode("S1")),
            links=(NetworkLink("L0", "CTRL", "S1"),),
        )
        with pytest.raises(NetworkError, match="cannot also be"):
            analyze_switch(graph, "S1", sites=("S1",))


def _brute_force(graph, k):
    """Independent exhaustive search with the documented tie-breaking."""
    pool = sorted(graph.sites)
    best, best_value = None, -1.0
    for combo in itertools.combinations(pool, k):
        value, _ = placement_value(graph, combo, graph.switches)
        if value > best_value or (value == best_value and combo < best):
            best, best_value = combo, value
    return best, best_value


class TestPlacementExactness:
    @given(graph=connected_graphs(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_auto_matches_brute_force_below_limit(self, graph, data):
        assume(len(graph.sites) >= 1)
        assert len(graph.sites) <= EXACT_CANDIDATE_LIMIT
        k = data.draw(
            st.integers(min_value=1, max_value=len(graph.sites)), label="k"
        )
        result = optimize_placement(graph, k=k, method="auto")
        assert result.method == "exact"
        expected_sites, expected_value = _brute_force(graph, k)
        assert result.sites == expected_sites
        assert result.availability == expected_value
        assert result.bound == result.availability
        assert result.gap == 0.0

    @given(graph=connected_graphs(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_greedy_respects_certified_bound(self, graph, data):
        assume(len(graph.sites) >= 1)
        k = data.draw(
            st.integers(min_value=1, max_value=len(graph.sites)), label="k"
        )
        greedy = optimize_placement(graph, k=k, method="greedy")
        assert greedy.method == "greedy"
        assert greedy.availability <= greedy.bound + TOL
        # The certified bound also dominates the true optimum.
        _, optimum = _brute_force(graph, k)
        assert optimum <= greedy.bound + TOL
        assert greedy.availability <= optimum + TOL

    @given(graph=connected_graphs())
    @settings(max_examples=30, deadline=None)
    def test_full_pool_placement_is_monotone_ceiling(self, graph):
        """Adding sites never hurts: value(k = all) >= value(k = 1)."""
        pool = graph.sites
        assume(len(pool) >= 2)
        one = optimize_placement(graph, k=1, method="exact")
        everything = optimize_placement(graph, k=len(pool), method="exact")
        assert everything.availability >= one.availability - TOL

    @given(graph=connected_graphs(), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_local_search_respects_bound_and_reaches_optimum(
        self, graph, data
    ):
        assume(len(graph.sites) >= 1)
        k = data.draw(
            st.integers(min_value=1, max_value=len(graph.sites)), label="k"
        )
        local = optimize_placement(
            graph, k=k, method="local", restarts=3, seed=19
        )
        assert local.method == "local"
        assert local.restarts == 3 and local.seed == 19
        assert local.availability <= local.bound + TOL
        _, optimum = _brute_force(graph, k)
        assert optimum <= local.bound + TOL
        assert local.availability <= optimum + TOL
        # On these tiny pools every restart climbs to the global optimum.
        assert local.availability == pytest.approx(optimum, abs=TOL)

    @given(graph=connected_graphs(), data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_local_search_is_deterministic_for_fixed_seed(
        self, graph, data
    ):
        assume(len(graph.sites) >= 1)
        k = data.draw(
            st.integers(min_value=1, max_value=len(graph.sites)), label="k"
        )
        first = optimize_placement(
            graph, k=k, method="local", restarts=2, seed=7
        )
        second = optimize_placement(
            graph, k=k, method="local", restarts=2, seed=7
        )
        assert first == second

    def test_invalid_method_and_k_rejected(self):
        graph = NetworkGraph(
            name="tiny",
            nodes=(NetworkNode("CTRL", kind="site"), NetworkNode("S1")),
            links=(NetworkLink("L0", "CTRL", "S1"),),
        )
        with pytest.raises(NetworkError, match="method must be"):
            optimize_placement(graph, k=1, method="quantum")
        with pytest.raises(NetworkError, match="k must be in"):
            optimize_placement(graph, k=2)
        with pytest.raises(NetworkError, match="no node"):
            optimize_placement(graph, k=1, candidates=("ghost",))
        with pytest.raises(NetworkError, match="restarts must be"):
            optimize_placement(graph, k=1, method="local", restarts=0)
