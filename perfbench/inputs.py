"""Seeded input perturbations shared by the workloads."""

from __future__ import annotations

import math
import random
from typing import Any


def perturbed_availability(value: float, rng: random.Random) -> float:
    """``value`` with its unavailability scaled by a factor in [1/3, 3]."""
    unavailability = (1.0 - value) * math.exp(rng.uniform(-1.1, 1.1))
    return round(1.0 - min(unavailability, 0.5), 12)


def perturbed_graph(graph: Any, rng: random.Random) -> Any:
    """A copy of a network graph with every element's availability perturbed.

    The structure (nodes, links, shared-risk groups) is unchanged, so the
    copy is the same topology as a different what-if: it has a different
    graph hash and misses every cache keyed on the graph.
    """
    from repro.network.graph import NetworkGraph

    record = graph.to_dict()
    for section in ("nodes", "links", "srgs"):
        for element in record[section]:
            element["availability"] = perturbed_availability(
                element["availability"], rng
            )
    return NetworkGraph.from_dict(record)
