"""Chunk sizing for the batched replication kernel.

The batched kernel (:mod:`repro.sim.batched`) runs replications one at a
time and dispatches them in chunks; each chunk emits one ``progress``
telemetry event.  The chunk size therefore only paces progress
reporting — it does not bound the kernel's working set, which is one
replication's flat lists and RNG blocks.
"""

from __future__ import annotations

from repro.errors import SimulationError

#: Nominal bytes charged per (replication, component) against the chunk
#: budget.  A pacing constant: with the default budget a chunk of the
#: reference workloads holds every replication of a campaign.
BYTES_PER_ROW_COMPONENT = 1104

#: Default budget one chunk is sized against.
DEFAULT_BUDGET_BYTES = 96 * 2**20


def replication_batch_size(
    replications: int,
    components: int,
    budget_bytes: int = DEFAULT_BUDGET_BYTES,
) -> int:
    """Replications per kernel chunk (one ``progress`` event each).

    ``budget_bytes // (components * BYTES_PER_ROW_COMPONENT)``, never
    below 1 and never above ``replications``.
    """
    if replications < 1:
        raise SimulationError(f"replications must be >= 1, got {replications}")
    if components < 1:
        raise SimulationError(f"components must be >= 1, got {components}")
    if budget_bytes < 1:
        raise SimulationError(f"budget_bytes must be >= 1, got {budget_bytes}")
    rows = budget_bytes // (components * BYTES_PER_ROW_COMPONENT)
    return int(min(replications, max(1, rows)))
