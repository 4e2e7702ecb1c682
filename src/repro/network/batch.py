"""Batched (switch, site-set) control-path sweeps over one SDP compile.

Placement search and availability sweeps evaluate the *same graph* under
many candidate site subsets.  Recompiling per subset wastes the key
property of the sum-of-disjoint-products kernel: the disjoint terms depend
only on path sets, never on probabilities.  This module compiles each
switch's control paths **once against the whole candidate pool** and turns
"which sites are chosen" into data:

* every candidate ``c`` gets a virtual indicator element ``ctrl@c`` whose
  availability is 1.0 when ``c`` is in the evaluated subset and 0.0 when
  it is not — a path terminating at ``c`` carries ``ctrl@c``, so under a
  given subset the terms through unchosen sites vanish exactly;
* candidate site *nodes* keep their real availability element, so a path
  may transit an unchosen site's router en route to a chosen one — the
  enumeration therefore continues through candidate sites instead of
  stopping at the first one reached;
* each switch's memoized :class:`repro.core.sdp.SdpKernel` is remapped
  from its local element columns to the plan's columns, terms are
  deduplicated across switches (a no-op on asymmetric graphs, free when
  switches share path structure), and every (site-set, switch)
  availability is then the kernel's own gather and segmented product
  (:func:`repro.core.sdp.term_products`) over a factor matrix with one
  :func:`~repro.core.sdp.factor_layout` column per site set, followed by
  a per-switch :func:`~repro.perf.vectorized.segment_sums`.

The result is exact — identical (to float rounding) to calling
:func:`repro.network.paths.exact_control_path_unavailability` per pair —
at array-op throughput, which is what the local-search placement in
:mod:`repro.network.placement` leans on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from repro.core.sdp import (
    canonical_path_sets,
    factor_layout,
    sdp_kernel,
    term_products,
)
from repro.errors import NetworkError
from repro.network.graph import NetworkGraph, NetworkLink
from repro.network.paths import _prune
from repro.obs import telemetry
from repro.perf.vectorized import segment_sums
from repro.units import check_probability

__all__ = [
    "CTRL_PREFIX",
    "PairSweepPlan",
    "PairSweepResult",
    "indicator_path_sets",
    "compile_pair_sweep",
    "sweep_site_sets",
]

#: Prefix of the virtual choice-indicator element of candidate site ``c``.
CTRL_PREFIX = "ctrl@"


@lru_cache(maxsize=4096)
def _indicator_path_sets_cached(
    graph: NetworkGraph, switch: str, candidates: tuple[str, ...]
) -> tuple[frozenset[str], ...]:
    nodes, links, _ = _prune(graph, switch, candidates)
    node_set = set(nodes)
    candidate_set = {c for c in candidates if c in node_set}
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
            if neighbor in candidate_set:
                found.append(
                    frozenset((*elements, *step, CTRL_PREFIX + neighbor))
                )
            visited.add(neighbor)
            elements.extend(step)
            walk(neighbor)
            del elements[-len(step):]
            visited.discard(neighbor)

    if candidate_set:
        walk(switch)
    return canonical_path_sets(found)


def indicator_path_sets(
    graph: NetworkGraph, switch: str, candidates: Sequence[str]
) -> tuple[frozenset[str], ...]:
    """Minimal path sets against the whole candidate pool (memoized).

    Like :func:`repro.network.paths.control_path_path_sets`, but each path
    terminates at *some* candidate site ``c`` and carries the virtual
    indicator ``ctrl@c`` — and the walk keeps going through candidate
    sites, because a site not chosen in a given subset is still a transit
    router.  Evaluating the compiled union with ``ctrl@c = 1`` for chosen
    sites and ``0`` otherwise reproduces the fixed-subset availability
    exactly, for every subset, from one enumeration.
    """
    return _indicator_path_sets_cached(graph, switch, tuple(candidates))


def _check_pool(
    graph: NetworkGraph,
    switches: Iterable[str] | None,
    candidates: Iterable[str] | None,
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    node_names = {node.name for node in graph.nodes}
    pool = tuple(candidates) if candidates is not None else graph.sites
    if not pool:
        raise NetworkError(
            f"graph {graph.name!r} has no candidate controller sites"
        )
    if len(set(pool)) != len(pool):
        raise NetworkError("candidate sites must be distinct")
    for site in pool:
        if site not in node_names:
            raise NetworkError(f"graph {graph.name!r} has no node {site!r}")
    chosen_switches = (
        tuple(switches) if switches is not None else graph.switches
    )
    if not chosen_switches:
        raise NetworkError(f"graph {graph.name!r} has no switches to evaluate")
    for switch in chosen_switches:
        if switch not in node_names:
            raise NetworkError(f"graph {graph.name!r} has no node {switch!r}")
        if switch in pool:
            raise NetworkError(
                f"switch {switch!r} cannot also be a candidate site"
            )
    return chosen_switches, pool


@dataclass(frozen=True, eq=False)
class PairSweepResult:
    """Availability of every (site-set, switch) pair of one batched sweep.

    Attributes:
        switches: the switches evaluated (column order of the matrix).
        site_sets: the candidate site subsets evaluated (row order).
        availability: ``(len(site_sets), len(switches))`` array of exact
            per-switch control-path availabilities.
    """

    switches: tuple[str, ...]
    site_sets: tuple[tuple[str, ...], ...]
    availability: np.ndarray

    def fleet(self) -> np.ndarray:
        """Fleet-wide mean A_CP per site set — the placement objective."""
        return self.availability.mean(axis=-1)

    def per_switch_map(self, row: int) -> dict[str, float]:
        return {
            switch: float(value)
            for switch, value in zip(
                self.switches, self.availability[row]
            )
        }

    def to_dict(self) -> dict[str, Any]:
        return {
            "switches": list(self.switches),
            "site_sets": [list(sites) for sites in self.site_sets],
            "availability": [
                [float(v) for v in row] for row in self.availability
            ],
            "fleet": [float(v) for v in self.fleet()],
        }


@dataclass(frozen=True, eq=False)
class PairSweepPlan:
    """One graph's control paths compiled for arbitrary site subsets.

    Attributes:
        graph: the compiled graph.
        switches: switches covered, in evaluation (column) order.
        candidates: the candidate site pool the indicators refer to.
        columns: factor-matrix column names — every graph element followed
            by one ``ctrl@`` indicator per candidate.
        unique_terms: disjoint products after cross-switch deduplication.
        total_terms: term count before deduplication (sum over switches).
    """

    graph: NetworkGraph
    switches: tuple[str, ...]
    candidates: tuple[str, ...]
    columns: tuple[str, ...]
    unique_terms: int
    total_terms: int
    _baseline: np.ndarray
    _ctrl_column: Mapping[str, int]
    _element_column: Mapping[str, int]
    _indices: np.ndarray
    _starts: np.ndarray
    _switch_term_ids: np.ndarray
    _switch_offsets: np.ndarray

    def _factor_rows(
        self,
        site_sets: tuple[tuple[str, ...], ...],
        availability: Mapping[str, float] | None,
    ) -> np.ndarray:
        baseline = self._baseline
        if availability is not None:
            baseline = baseline.copy()
            for name, value in availability.items():
                column = self._element_column.get(name)
                if column is None:
                    raise NetworkError(
                        f"graph {self.graph.name!r} has no element {name!r} "
                        "to override"
                    )
                check_probability(value, name)
                baseline[column] = value
        rows = np.tile(baseline, (len(site_sets), 1))
        for row, sites in enumerate(site_sets):
            if not sites:
                raise NetworkError("site sets must be non-empty")
            if len(set(sites)) != len(sites):
                raise NetworkError(
                    f"site set {sites!r} has duplicate sites"
                )
            for site in sites:
                column = self._ctrl_column.get(site)
                if column is None:
                    raise NetworkError(
                        f"site {site!r} is not in the compiled candidate "
                        f"pool {self.candidates!r}"
                    )
                rows[row, column] = 1.0
        return rows

    def evaluate(
        self,
        site_sets: Iterable[Iterable[str]],
        availability: Mapping[str, float] | None = None,
    ) -> PairSweepResult:
        """Exact per-switch availability under every given site subset.

        ``availability`` optionally overrides per-element availabilities
        (graph defaults otherwise) — the whole sweep re-evaluates under the
        new vector with no recompilation.  Rows come back in ``site_sets``
        order, columns in ``switches`` order.
        """
        resolved = tuple(tuple(sites) for sites in site_sets)
        if not resolved:
            raise NetworkError("need at least one site set to evaluate")
        factors = factor_layout(self._factor_rows(resolved, availability).T)
        products = term_products(factors, self._indices, self._starts).T
        per_switch = segment_sums(
            np.take(products, self._switch_term_ids, axis=-1),
            self._switch_offsets,
        )
        telemetry.emit(
            "network.batch.evaluate",
            graph=self.graph.name,
            site_sets=len(resolved),
            switches=len(self.switches),
            pairs=len(resolved) * len(self.switches),
        )
        return PairSweepResult(
            switches=self.switches,
            site_sets=resolved,
            availability=np.clip(per_switch, 0.0, 1.0),
        )


def compile_pair_sweep(
    graph: NetworkGraph,
    switches: Iterable[str] | None = None,
    candidates: Iterable[str] | None = None,
) -> PairSweepPlan:
    """Compile one graph's (switch, site-set) sweep into array form.

    Enumerates each switch's candidate-pool path sets once, disjoints them
    once (:func:`repro.core.sdp.sdp_kernel`), remaps each kernel's gather
    indices from its sorted local elements to the plan's columns,
    deduplicates identical terms across switches, and concatenates the
    survivors into the index/start arrays :meth:`PairSweepPlan.evaluate`
    reduces over.  ``switches`` defaults to every switch in the graph,
    ``candidates`` to every site node.
    """
    chosen_switches, pool = _check_pool(graph, switches, candidates)
    element_names = tuple(graph.availability_map())
    columns = (
        *element_names,
        *(CTRL_PREFIX + site for site in pool),
    )
    column_of = {name: i for i, name in enumerate(columns)}
    baseline = np.zeros(len(columns))
    availability_map = graph.availability_map()
    for name in element_names:
        baseline[column_of[name]] = availability_map[name]

    # A term is its run of plan factor indices: the kernels list each
    # term's elements in sorted-name order, so equal terms of different
    # switches remap to equal runs.
    unique_ids: dict[tuple[int, ...], int] = {}
    indices: list[int] = []
    starts: list[int] = []
    switch_term_ids: list[int] = []
    switch_offsets = [0]
    for switch in chosen_switches:
        kernel = sdp_kernel(_indicator_path_sets_cached(graph, switch, pool))
        flat = kernel.remap(
            (column_of[name] for name in kernel.names), len(columns)
        ).tolist()
        bounds = [*kernel.starts.tolist(), len(flat)]
        for start, stop in zip(bounds, bounds[1:]):
            run = tuple(flat[start:stop])
            uid = unique_ids.setdefault(run, len(unique_ids))
            if uid == len(starts):
                starts.append(len(indices))
                indices.extend(run)
            switch_term_ids.append(uid)
        switch_offsets.append(len(switch_term_ids))

    plan = PairSweepPlan(
        graph=graph,
        switches=chosen_switches,
        candidates=pool,
        columns=columns,
        unique_terms=len(starts),
        total_terms=len(switch_term_ids),
        _baseline=baseline,
        _ctrl_column={
            site: column_of[CTRL_PREFIX + site] for site in pool
        },
        _element_column={
            name: column_of[name] for name in element_names
        },
        _indices=np.asarray(indices, dtype=np.intp),
        _starts=np.asarray(starts, dtype=np.intp),
        _switch_term_ids=np.asarray(switch_term_ids, dtype=np.intp),
        _switch_offsets=np.asarray(switch_offsets, dtype=np.intp),
    )
    telemetry.emit(
        "network.batch.compile",
        graph=graph.name,
        graph_hash=graph.graph_hash(),
        switches=len(chosen_switches),
        candidates=len(pool),
        unique_terms=plan.unique_terms,
        total_terms=plan.total_terms,
    )
    return plan


def sweep_site_sets(
    graph: NetworkGraph,
    site_sets: Iterable[Iterable[str]],
    switches: Iterable[str] | None = None,
    candidates: Iterable[str] | None = None,
    availability: Mapping[str, float] | None = None,
) -> PairSweepResult:
    """Compile-and-evaluate convenience for one-shot sweeps.

    ``candidates`` defaults to the union of the given site sets, so ad-hoc
    comparisons ("these three deployments, side by side") need no explicit
    pool.  For repeated evaluation keep the :class:`PairSweepPlan` from
    :func:`compile_pair_sweep` and call :meth:`~PairSweepPlan.evaluate`.
    """
    resolved = tuple(tuple(sites) for sites in site_sets)
    if candidates is None:
        pool: dict[str, None] = {}
        for sites in resolved:
            for site in sites:
                pool.setdefault(site)
        candidates = tuple(pool)
    plan = compile_pair_sweep(graph, switches=switches, candidates=candidates)
    return plan.evaluate(resolved, availability=availability)
