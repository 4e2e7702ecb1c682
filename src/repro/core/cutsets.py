"""Minimal cut sets and probability-ordered failure modes.

Section VI-G of the paper reasons about *dominant failure modes* ("one
Database supervisor failure and any Database process failure in another
node ..."), i.e. the most probable minimal cut sets of the availability
model.  This module computes minimal cut sets of any coherent structure
function exactly, estimates each set's occurrence probability, and ranks
them — the machinery behind :mod:`repro.models.failure_modes`.

A *cut set* is a set of components whose simultaneous failure takes the
system down (with all other components up); it is *minimal* when no proper
subset is also a cut set.  Dually, a *path set* is a set of components whose
joint operation keeps the system up.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.core.structure import StructureFunction
from repro.errors import ModelError
from repro.units import check_probability


def minimal_cut_sets(
    structure: StructureFunction, max_order: int | None = None
) -> list[frozenset[str]]:
    """All minimal cut sets of a coherent structure function.

    Searches subsets in increasing size order; a subset is a cut set when
    failing exactly those components (all others up) takes the system down,
    and is kept only if no already-found cut set is contained in it (which,
    given the size-ordered search and coherence, yields exactly the minimal
    sets).

    Args:
        structure: the system structure function.
        max_order: optionally stop after cut sets of this cardinality;
            high-availability analyses rarely need more than order 3.
    """
    names = structure.names
    all_up = {name: True for name in names}
    if not structure(all_up):
        raise ModelError("system is down with all components up; no cut sets")
    limit = len(names) if max_order is None else min(max_order, len(names))
    found: list[frozenset[str]] = []
    for size in range(1, limit + 1):
        for combo in itertools.combinations(names, size):
            candidate = frozenset(combo)
            if any(existing <= candidate for existing in found):
                continue
            state = dict(all_up)
            for name in combo:
                state[name] = False
            if not structure(state):
                found.append(candidate)
    return found


def minimal_cut_sets_from_paths(
    path_sets: Iterable[Iterable[str]],
    max_order: int | None = None,
    names: Sequence[str] | None = None,
) -> list[frozenset[str]]:
    """All minimal cut sets of a coherent system, from its minimal path sets.

    The minimal cut sets are exactly the minimal transversals (hitting
    sets) of the minimal path sets.  A Berge pass builds them one path at
    a time, with every element one bit of a Python int: a partial
    transversal that already hits the next path is kept, and each one that
    misses it is extended by every element of that path.  An extension can
    only be non-minimal by containing a kept set, and such a kept set
    meets the path in the added element alone, so only those are checked.
    Dropping candidates above ``max_order`` is safe: every minimal
    transversal of the whole family contains a no-larger minimal
    transversal of each prefix.  The cost is one bitmask pass per path
    instead of :func:`minimal_cut_sets`' 2^n structure probes.

    Args:
        path_sets: the complete family of minimal path sets.
        max_order: optionally keep only cut sets of at most this size.
        names: bit order for the elements; the result lists cut sets by
            size, then lexicographically in this order, and builds each
            set in this order (so it matches :func:`minimal_cut_sets` over
            a structure function with the same names).  Defaults to the
            sorted element names.
    """
    paths = [frozenset(path) for path in path_sets]
    if not paths:
        raise ModelError("system is down with all components up; no cut sets")
    elements = frozenset().union(*paths)
    if names is None:
        names = sorted(elements)
    bit_of = {name: 1 << index for index, name in enumerate(names)}
    unknown = elements - bit_of.keys()
    if unknown:
        raise ModelError(f"path elements {sorted(unknown)} are not in names")
    masks = [sum(bit_of[name] for name in path) for path in paths]
    limit = len(bit_of) if max_order is None else max_order
    transversals = [0] if limit > 0 else []
    for mask in masks:
        kept: list[int] = []
        missed: list[int] = []
        for t in transversals:
            (kept if t & mask else missed).append(t)
        if not missed:
            continue
        witnesses: dict[int, list[int]] = {}
        for t in kept:
            hit = t & mask
            if hit & (hit - 1) == 0:
                witnesses.setdefault(hit, []).append(t)
        extended: set[int] = set()
        for t in missed:
            if t.bit_count() >= limit:
                continue
            rest = mask
            while rest:
                bit = rest & -rest
                rest ^= bit
                candidate = t | bit
                if candidate in extended:
                    continue
                if any(w & candidate == w for w in witnesses.get(bit, ())):
                    continue
                extended.add(candidate)
        transversals = kept + list(extended)
    ordered = sorted(
        [i for i in range(t.bit_length()) if t >> i & 1] for t in transversals
    )
    ordered.sort(key=len)
    return [frozenset(tuple(names[i] for i in indices)) for indices in ordered]


def minimal_path_sets(
    structure: StructureFunction, max_order: int | None = None
) -> list[frozenset[str]]:
    """All minimal path sets, via duality on the complemented structure."""
    names = structure.names
    dual = StructureFunction(
        names, lambda state: not structure({n: not state.get(n, True) for n in names})
    )
    return minimal_cut_sets(dual, max_order=max_order)


@dataclass(frozen=True)
class RankedCutSet:
    """A minimal cut set with its occurrence probability."""

    components: frozenset[str]
    probability: float

    @property
    def order(self) -> int:
        return len(self.components)


def rank_cut_sets(
    cut_sets: Sequence[frozenset[str]],
    unavailability: Mapping[str, float],
) -> list[RankedCutSet]:
    """Rank cut sets by the probability that all members are down.

    ``unavailability[name]`` is the per-component probability of being down.
    The product over a cut set is the rare-event (first-order) estimate of
    that failure mode's probability — the standard basis for "dominant
    failure mode" statements.  Returned most-probable first; ties broken by
    lower order then name for determinism.
    """
    ranked = []
    for cut in cut_sets:
        probability = 1.0
        for name in cut:
            q = unavailability.get(name)
            if q is None:
                raise ModelError(f"missing unavailability for component {name!r}")
            check_probability(q, name)
            probability *= q
        ranked.append(RankedCutSet(cut, probability))
    ranked.sort(key=lambda r: (-r.probability, r.order, tuple(sorted(r.components))))
    return ranked


def union_bound(ranked: Sequence[RankedCutSet]) -> float:
    """Upper bound on system unavailability: sum of cut-set probabilities.

    The rare-event approximation used implicitly throughout the paper's
    qualitative discussion; exact to first order in the per-component
    unavailabilities.
    """
    return min(1.0, sum(r.probability for r in ranked))


def exact_unavailability(
    cut_sets: Sequence[frozenset[str]],
    unavailability: Mapping[str, float],
) -> float:
    """Exact system unavailability via inclusion-exclusion over cut sets.

    ``P(system down) = P(union of cut events)`` where a cut event is "all
    components in the cut are down".  Exponential in ``len(cut_sets)``;
    intended as a test oracle for small systems.
    """
    sets = list(cut_sets)
    total = 0.0
    for r in range(1, len(sets) + 1):
        sign = 1.0 if r % 2 == 1 else -1.0
        for combo in itertools.combinations(sets, r):
            union: frozenset[str] = frozenset().union(*combo)
            probability = 1.0
            for name in union:
                probability *= unavailability[name]
            total += sign * probability
    return min(1.0, max(0.0, total))
