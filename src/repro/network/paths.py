"""Per-switch control-path availability over a network graph.

For one switch, the *control path* is up when some sequence of up links
(each requiring both endpoints and its shared-risk group up) connects the
switch to at least one up controller site.  This module lowers that
predicate into a :class:`repro.core.structure.StructureFunction` over the
graph's elements (the factored oracle and the test suite evaluate it
directly).  The node+link+SRG minimal cut sets — the switch's dominant
failure modes — are the minimal hitting sets of the cached minimal path
sets below, derived by :func:`repro.core.cutsets.minimal_cut_sets_from_paths`
(one bitmask pass per path, not a structure probe per element subset), and
:func:`~repro.core.cutsets.union_bound` turns them into the rare-event
upper bound.

Exact ground truth has two evaluators:

* ``"sdp"`` (the default) — minimal path sets are enumerated *on the
  graph* (depth-first simple paths switch -> site, each contributing its
  nodes, links, and SRGs), compiled into a sum of disjoint products
  (:mod:`repro.core.sdp`), and summed.  The path enumeration is
  polynomial per path and the compile is probability-free, so exact
  evaluation survives graphs far past the ~30-element wall where
  state-space methods blow up.
* ``"factored"`` — Shannon factoring with coherence pruning
  (:func:`repro.core.structure.factored_unavailability`), the original
  PR-7 evaluator, kept as the independent cross-check oracle on graphs
  small enough to run it.

Both are memoized on the frozen ``(graph, switch, sites)`` key, and the
path-set enumeration is cached separately so the SDP compile and the
path-set lower bound never re-enumerate.

Bound semantics: with *complete* cut enumeration (``max_order=None``)
the three numbers bracket exactly —

    union_bound  >=  exact unavailability  >=  path-set lower bound

With a bounded cut order the union bound becomes the standard rare-event
*estimate* (truncation can undershoot), and the path-set lower bound is not
computed at all (the bounded-order analysis is the fast path; complete path
enumeration stays available via :func:`control_path_path_sets`); the
analysis records ``None`` instead.  The cross-validation suite asserts the
bracket on fully-enumerated random graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Iterable, Mapping, Sequence

from repro.core.cutsets import (
    RankedCutSet,
    minimal_cut_sets_from_paths,
    minimal_path_sets,
    rank_cut_sets,
    union_bound,
)
from repro.core.sdp import SdpExpression, canonical_path_sets, compile_sdp
from repro.core.structure import StructureFunction, factored_unavailability
from repro.errors import NetworkError
from repro.models.engine import RoleRequirement, evaluate_topology_cached
from repro.network.graph import NetworkGraph, NetworkLink
from repro.topology.deployment import DeploymentTopology

__all__ = [
    "EXACT_EVALUATORS",
    "ControlPathAnalysis",
    "control_path_structure",
    "control_path_cut_sets",
    "control_path_path_sets",
    "control_path_sdp",
    "path_set_lower_bound",
    "exact_control_path_unavailability",
    "analyze_switch",
    "per_switch_availability",
    "fleet_availability",
]

#: Exact-evaluator names accepted by :func:`exact_control_path_unavailability`
#: and :func:`analyze_switch`; ``"auto"`` resolves to ``"sdp"``.
EXACT_EVALUATORS: tuple[str, ...] = ("auto", "sdp", "factored")


def _check_sites(
    graph: NetworkGraph, switch: str, sites: Iterable[str] | None
) -> tuple[str, ...]:
    node_names = {node.name for node in graph.nodes}
    if switch not in node_names:
        raise NetworkError(f"graph {graph.name!r} has no node {switch!r}")
    resolved = tuple(sites) if sites is not None else graph.sites
    if not resolved:
        raise NetworkError(
            f"graph {graph.name!r} has no controller sites; pass sites="
        )
    for site in resolved:
        if site not in node_names:
            raise NetworkError(f"graph {graph.name!r} has no node {site!r}")
    if switch in resolved:
        raise NetworkError(
            f"switch {switch!r} cannot also be a controller site"
        )
    if len(set(resolved)) != len(resolved):
        raise NetworkError("controller sites must be distinct")
    return resolved


def _prune(
    graph: NetworkGraph, switch: str, sites: tuple[str, ...]
) -> tuple[tuple[str, ...], tuple[NetworkLink, ...], tuple[str, ...]]:
    """Keep only elements that can matter to switch -> site connectivity.

    Restricts to the connected component containing the switch, then
    iteratively peels degree-1 nodes that are neither the switch nor a
    site (a spur tree can never carry a control path).  Irrelevant side
    cycles may survive; they only cost enumeration time, never correctness.
    """
    adjacency = graph.adjacency()
    seen = {switch}
    stack = [switch]
    while stack:
        current = stack.pop()
        for link in adjacency[current]:
            neighbor = link.other(current)
            if neighbor not in seen:
                seen.add(neighbor)
                stack.append(neighbor)
    keep_nodes = set(seen)
    keep_links = {
        link.name
        for link in graph.links
        if link.a in keep_nodes and link.b in keep_nodes
    }
    anchors = {switch, *(site for site in sites if site in keep_nodes)}
    changed = True
    while changed:
        changed = False
        for node in sorted(keep_nodes - anchors):
            incident = [
                link for link in adjacency[node] if link.name in keep_links
            ]
            if len(incident) <= 1:
                keep_nodes.discard(node)
                for link in incident:
                    keep_links.discard(link.name)
                changed = True
    nodes = tuple(n.name for n in graph.nodes if n.name in keep_nodes)
    links = tuple(link for link in graph.links if link.name in keep_links)
    srgs = tuple(
        srg.name
        for srg in graph.srgs
        if any(link.srg == srg.name for link in links)
    )
    return nodes, links, srgs


def control_path_structure(
    graph: NetworkGraph, switch: str, sites: Iterable[str] | None = None
) -> StructureFunction:
    """The switch's control-path predicate as a structure function.

    Component names are the (pruned) graph element names — nodes, then
    links, then SRGs, in graph order.  The function is true when the switch
    is up and a path of usable links (link up, SRG up, both endpoints up)
    reaches an up controller site.
    """
    resolved_sites = _check_sites(graph, switch, sites)
    nodes, links, srgs = _prune(graph, switch, resolved_sites)
    site_set = frozenset(site for site in resolved_sites if site in set(nodes))
    incident: dict[str, list[NetworkLink]] = {name: [] for name in nodes}
    for link in links:
        incident[link.a].append(link)
        incident[link.b].append(link)

    def reaches_site(state: Mapping[str, bool]) -> bool:
        if not state[switch]:
            return False
        if not site_set:
            return False
        seen = {switch}
        stack = [switch]
        while stack:
            current = stack.pop()
            if current in site_set:
                return True
            for link in incident[current]:
                if not state[link.name]:
                    continue
                if link.srg is not None and not state[link.srg]:
                    continue
                neighbor = link.other(current)
                if neighbor in seen or not state[neighbor]:
                    continue
                seen.add(neighbor)
                stack.append(neighbor)
        return False

    names = (*nodes, *(link.name for link in links), *srgs)
    return StructureFunction(names, reaches_site)


def control_path_cut_sets(
    graph: NetworkGraph,
    switch: str,
    sites: Iterable[str] | None = None,
    max_order: int | None = None,
) -> list[RankedCutSet]:
    """Ranked minimal cut sets of one switch's control path.

    Cut sets mix element types freely — ``{"S1"}`` (the switch itself),
    ``{"L1", "L2"}`` (a link pair), ``{"SRG-A"}`` (one conduit severing
    every path) — ranked most-probable first using the graph's per-element
    unavailabilities.  Derived from the cached minimal path sets, exactly
    as :func:`analyze_switch` does.
    """
    resolved = _check_sites(graph, switch, sites)
    names = control_path_structure(graph, switch, resolved).names
    return _ranked_cut_sets(graph, switch, resolved, names, max_order)


def _ranked_cut_sets(
    graph: NetworkGraph,
    switch: str,
    sites: tuple[str, ...],
    names: tuple[str, ...],
    max_order: int | None,
) -> list[RankedCutSet]:
    """Ranked minimal hitting sets of the cached path sets.

    Bit order follows the structure function's ``names``, so each product
    multiplies in the order a :func:`~repro.core.cutsets.minimal_cut_sets`
    census would.
    """
    cuts = minimal_cut_sets_from_paths(
        _control_path_sets_cached(graph, switch, sites),
        max_order=max_order,
        names=names,
    )
    return rank_cut_sets(cuts, graph.unavailability_map())


@lru_cache(maxsize=8192)
def _control_path_sets_cached(
    graph: NetworkGraph, switch: str, sites: tuple[str, ...]
) -> tuple[frozenset[str], ...]:
    """Minimal path sets of one switch's control path, from the graph.

    Depth-first enumeration of simple paths from the switch that terminate
    at the first controller site reached (continuing past an up site could
    only produce a superset).  Each path contributes its nodes, its links,
    and the SRGs those links ride; :func:`repro.core.sdp.canonical_path_sets`
    then drops the occasional superset (possible when SRGs collapse
    distinct routes) and fixes the shortest-first order the SDP compile
    expects.  Cached on the frozen ``(graph, switch, sites)`` key so the
    SDP compile and the path-set lower bound share one enumeration.
    """
    nodes, links, _ = _prune(graph, switch, sites)
    node_set = set(nodes)
    site_set = {site for site in sites if site in node_set}
    incident: dict[str, list[NetworkLink]] = {name: [] for name in nodes}
    for link in links:
        incident[link.a].append(link)
        incident[link.b].append(link)
    found: list[frozenset[str]] = []
    elements: list[str] = [switch]
    visited = {switch}

    def walk(current: str) -> None:
        for link in incident[current]:
            neighbor = link.other(current)
            if neighbor in visited:
                continue
            step = [link.name, neighbor]
            if link.srg is not None:
                step.append(link.srg)
            if neighbor in site_set:
                found.append(frozenset((*elements, *step)))
                continue
            visited.add(neighbor)
            elements.extend(step)
            walk(neighbor)
            del elements[-len(step):]
            visited.discard(neighbor)

    if site_set:
        walk(switch)
    return canonical_path_sets(found)


def control_path_path_sets(
    graph: NetworkGraph, switch: str, sites: Iterable[str] | None = None
) -> tuple[frozenset[str], ...]:
    """Complete minimal path sets of one switch's control path (memoized).

    Unlike the dual cut-set route
    (:func:`repro.core.cutsets.minimal_path_sets`, exponential in the
    element count), this enumerates simple switch -> site paths directly on
    the graph, so it stays feasible on hundreds-of-element backbones.
    """
    resolved = _check_sites(graph, switch, sites)
    return _control_path_sets_cached(graph, switch, resolved)


@lru_cache(maxsize=8192)
def _sdp_expression_cached(
    graph: NetworkGraph, switch: str, sites: tuple[str, ...]
) -> SdpExpression:
    return compile_sdp(_control_path_sets_cached(graph, switch, sites))


def control_path_sdp(
    graph: NetworkGraph, switch: str, sites: Iterable[str] | None = None
) -> SdpExpression:
    """The switch's control path compiled to disjoint products (memoized).

    The compiled expression is probability-free: it can be re-evaluated
    under any per-element availability assignment, which is what the
    batched sweeps in :mod:`repro.network.batch` build on.
    """
    resolved = _check_sites(graph, switch, sites)
    return _sdp_expression_cached(graph, switch, resolved)


def path_set_lower_bound(
    structure: StructureFunction, availability: Mapping[str, float]
) -> float:
    """Lower bound on unavailability from *complete* minimal path sets.

    ``A <= sum over minimal path sets of P(all members up)`` (union bound on
    the up event), so ``U >= 1 - sum``.  Requires the full path-set list —
    a truncated list would shrink the sum and overstate the bound.  Works
    on any structure function (via the exponential dual enumeration);
    :func:`analyze_switch` uses the cached graph enumeration instead.
    """
    return _paths_lower_bound(minimal_path_sets(structure), availability)


def _paths_lower_bound(
    paths: Sequence[frozenset[str]], availability: Mapping[str, float]
) -> float:
    total = 0.0
    for path in paths:
        term = 1.0
        for name in sorted(path):  # fixed order: hash-seed independent
            term *= availability[name]
        total += term
    return max(0.0, 1.0 - total)


def _resolve_evaluator(evaluator: str) -> str:
    if evaluator not in EXACT_EVALUATORS:
        raise NetworkError(
            f"evaluator must be one of {EXACT_EVALUATORS}, got {evaluator!r}"
        )
    return "sdp" if evaluator == "auto" else evaluator


@lru_cache(maxsize=8192)
def _exact_unavailability_cached(
    graph: NetworkGraph,
    switch: str,
    sites: tuple[str, ...],
    evaluator: str = "sdp",
) -> float:
    if evaluator == "factored":
        structure = control_path_structure(graph, switch, sites)
        return factored_unavailability(structure, graph.availability_map())
    expression = _sdp_expression_cached(graph, switch, sites)
    return expression.unavailability(graph.availability_map())


def exact_control_path_unavailability(
    graph: NetworkGraph,
    switch: str,
    sites: Iterable[str] | None = None,
    evaluator: str = "auto",
) -> float:
    """Exact unavailability of one switch's control path (memoized).

    ``evaluator="auto"`` (the default) resolves to the sum-of-disjoint-
    products kernel; ``"factored"`` forces the Shannon-factored
    state-space evaluator (the independent oracle — exponential past ~30
    elements).  Both agree to float rounding and are cached on the frozen
    ``(graph, switch, sites)`` key — placement searches revisit the same
    switch under many site subsets and hit this memo constantly.
    """
    resolved = _check_sites(graph, switch, sites)
    return _exact_unavailability_cached(
        graph, switch, resolved, _resolve_evaluator(evaluator)
    )


@dataclass(frozen=True)
class ControlPathAnalysis:
    """One switch's control-path availability picture.

    Attributes:
        switch: the switch analyzed.
        sites: controller sites considered.
        components: element names of the (pruned) structure function.
        cut_sets: ranked minimal cut sets (complete iff ``max_order`` was
            ``None``).
        max_order: the cut-order bound used (``None`` = complete).
        union_bound: sum of cut-set probabilities — an upper bound when
            enumeration was complete, the rare-event estimate otherwise.
        path_lower_bound: ``1 - sum(path availabilities)`` when enumeration
            was complete, else ``None``.
        unavailability: exact control-path unavailability.
        evaluator: which exact evaluator produced ``unavailability``
            (``"sdp"`` or ``"factored"``).
    """

    switch: str
    sites: tuple[str, ...]
    components: tuple[str, ...]
    cut_sets: tuple[RankedCutSet, ...]
    max_order: int | None
    union_bound: float
    path_lower_bound: float | None
    unavailability: float
    evaluator: str = "sdp"

    @property
    def availability(self) -> float:
        return 1.0 - self.unavailability

    @property
    def min_cut_order(self) -> int:
        """Order of the smallest cut set (resilience depth of the path)."""
        return min((cut.order for cut in self.cut_sets), default=0)

    def to_dict(self) -> dict[str, Any]:
        return {
            "switch": self.switch,
            "sites": list(self.sites),
            "components": list(self.components),
            "cut_sets": [
                {
                    "components": sorted(cut.components),
                    "probability": cut.probability,
                }
                for cut in self.cut_sets
            ],
            "max_order": self.max_order,
            "union_bound": self.union_bound,
            "path_lower_bound": self.path_lower_bound,
            "unavailability": self.unavailability,
            "availability": self.availability,
            "evaluator": self.evaluator,
        }


def analyze_switch(
    graph: NetworkGraph,
    switch: str,
    sites: Iterable[str] | None = None,
    max_order: int | None = None,
    evaluator: str = "auto",
) -> ControlPathAnalysis:
    """Full control-path analysis of one switch.

    ``sites`` defaults to every controller site in the graph.  The cut
    sets, the path lower bound and the exact SDP value all come from one
    cached graph path enumeration: the cut sets are its minimal hitting
    sets (:func:`repro.core.cutsets.minimal_cut_sets_from_paths`, one
    bitmask pass per path), and the lower bound costs one product per path.
    With ``max_order=None`` the cut sets are complete and the bracket
    ``union_bound >= exact >= path_lower_bound`` is guaranteed; a bounded
    order keeps only the small cut sets and trades the path lower bound
    (recorded as ``None``) and the upper-bound guarantee for time on larger
    graphs.  A switch that cannot reach any site has no path sets and so
    raises :class:`repro.errors.ModelError`.
    """
    resolved = _check_sites(graph, switch, sites)
    chosen = _resolve_evaluator(evaluator)
    structure = control_path_structure(graph, switch, resolved)
    ranked = _ranked_cut_sets(graph, switch, resolved, structure.names, max_order)
    lower = (
        _paths_lower_bound(
            _control_path_sets_cached(graph, switch, resolved),
            graph.availability_map(),
        )
        if max_order is None
        else None
    )
    exact = _exact_unavailability_cached(graph, switch, resolved, chosen)
    return ControlPathAnalysis(
        switch=switch,
        sites=resolved,
        components=structure.names,
        cut_sets=tuple(ranked),
        max_order=max_order,
        union_bound=union_bound(ranked),
        path_lower_bound=lower,
        unavailability=exact,
        evaluator=chosen,
    )


def per_switch_availability(
    graph: NetworkGraph,
    sites: Iterable[str] | None = None,
    switches: Iterable[str] | None = None,
    cluster_topology: DeploymentTopology | None = None,
    cluster_requirements: Sequence[RoleRequirement] | None = None,
    cluster_availability: Mapping[str, float] | None = None,
    evaluator: str = "auto",
) -> dict[str, float]:
    """Exact control-path availability for each switch.

    When the cluster arguments are given, each switch's network availability
    is multiplied by the controller cluster's own availability evaluated
    through the memoized exact engine
    (:func:`repro.models.engine.evaluate_topology_cached`) — the end-to-end
    ``A_CP`` a switch actually experiences is ``A_network * A_cluster``
    under the independence assumption both layers already make.
    """
    resolved_switches = tuple(switches) if switches is not None else graph.switches
    if not resolved_switches:
        raise NetworkError(f"graph {graph.name!r} has no switches to evaluate")
    cluster_factor = 1.0
    if cluster_topology is not None:
        if cluster_requirements is None or cluster_availability is None:
            raise NetworkError(
                "cluster_topology requires cluster_requirements and "
                "cluster_availability"
            )
        cluster_factor = evaluate_topology_cached(
            cluster_topology, tuple(cluster_requirements), cluster_availability
        )
    return {
        switch: cluster_factor
        * (
            1.0
            - exact_control_path_unavailability(
                graph, switch, sites, evaluator=evaluator
            )
        )
        for switch in resolved_switches
    }


def fleet_availability(per_switch: Mapping[str, float]) -> float:
    """Fleet-wide A_CP: the mean over switches (each switch weighted equally)."""
    if not per_switch:
        raise NetworkError("per-switch availability mapping is empty")
    return sum(per_switch.values()) / len(per_switch)
