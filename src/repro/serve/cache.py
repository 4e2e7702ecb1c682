"""Single-flight, LRU-bounded result cache for the availability service.

Every query answer in :mod:`repro.serve` is a pure function of its
canonical parameters, so the service memoizes aggressively:

* **Canonical keys** — :func:`result_key` hashes the query kind plus its
  JSON payload through :func:`repro.obs.manifest.params_hash`, the same
  canonical SHA-256 that stamps run manifests.  The key embeds the manifest
  schema version, the telemetry schema version, and the package version
  (:data:`CACHE_KEY_VERSIONS`), so any schema or code bump changes every
  key and the cache self-invalidates — there is deliberately no manual
  invalidation endpoint.
* **Single flight** — concurrent requests for the same key share one
  in-flight computation.  The first caller computes; the rest await the
  same :class:`asyncio.Future` and are counted as *coalesced*.  Failures
  propagate to every waiter and are **not** cached, so a transient error
  never poisons the key.
* **LRU bound** — at most ``max_entries`` completed results are retained;
  the least-recently-used entry is evicted and counted.

The ``hits`` / ``misses`` / ``coalesced`` / ``evictions`` counters live
directly on a :class:`~repro.obs.metrics.MetricsRegistry` (the app passes
its own, so ``/metrics`` sees them with no copying); the attribute and
:meth:`~SingleFlightCache.counters` views are kept for callers and tests.
When a trace context is in scope the cache also attributes its share of
the request's latency: a hit's lookup, or a coalesced waiter's whole wait,
lands in the ``cache`` segment, while a miss charges only the cache's own
overhead (the computation it triggered accounts for itself).
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict
from typing import Any, Awaitable, Callable, Mapping

from repro.errors import ParameterError
from repro.obs.manifest import SCHEMA_VERSION, package_version, params_hash
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import TELEMETRY_SCHEMA_VERSION
from repro.obs.trace import current_trace

__all__ = [
    "CACHE_KEY_VERSIONS",
    "DEFAULT_MAX_ENTRIES",
    "SingleFlightCache",
    "result_key",
]

#: Version fingerprint embedded in every cache key.  Bumping any schema
#: version (or releasing a new package version) changes all keys at once,
#: which is the cache's only — and sufficient — invalidation rule.
CACHE_KEY_VERSIONS: Mapping[str, Any] = {
    "manifest_schema": SCHEMA_VERSION,
    "telemetry_schema": TELEMETRY_SCHEMA_VERSION,
    "package": package_version(),
}

#: Default LRU capacity (completed results, not in-flight computations).
DEFAULT_MAX_ENTRIES = 256


def result_key(
    kind: str,
    payload: Any,
    versions: Mapping[str, Any] = CACHE_KEY_VERSIONS,
) -> str:
    """Canonical cache key for a query ``kind`` and its JSON ``payload``.

    Delegates to :func:`repro.obs.manifest.params_hash`, so two payloads
    that differ only in key order or float spelling map to the same key,
    while any semantic difference — or any version bump in ``versions`` —
    yields a different one.
    """
    return params_hash(
        {"kind": kind, "payload": payload, "versions": dict(versions)}
    )


class SingleFlightCache:
    """An asyncio single-flight memoizer with an LRU bound.

    Must be used from a single event loop (the serving loop); the compute
    callables it is handed may themselves hop to threads or process pools.
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        registry: MetricsRegistry | None = None,
    ):
        if max_entries < 1:
            raise ParameterError(
                f"cache max_entries must be >= 1, got {max_entries}"
            )
        self.max_entries = int(max_entries)
        self.registry = registry if registry is not None else MetricsRegistry()
        # Materialize the counters at zero so /metrics shows them from the
        # first scrape, not the first cache access.
        for outcome in ("hits", "misses", "coalesced", "evictions"):
            self.registry.counter(f"serve.cache.{outcome}")
        self._entries: OrderedDict[str, Any] = OrderedDict()
        self._inflight: dict[str, asyncio.Future] = {}
        # Which request trace is computing each in-flight key, so coalesced
        # waiters can annotate who did the work for them.
        self._inflight_owners: dict[str, str | None] = {}

    def _count(self, outcome: str) -> None:
        self.registry.counter(f"serve.cache.{outcome}").increment()

    @property
    def hits(self) -> int:
        return int(self.registry.counter("serve.cache.hits").value)

    @property
    def misses(self) -> int:
        return int(self.registry.counter("serve.cache.misses").value)

    @property
    def coalesced(self) -> int:
        return int(self.registry.counter("serve.cache.coalesced").value)

    @property
    def evictions(self) -> int:
        return int(self.registry.counter("serve.cache.evictions").value)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    async def get_with_outcome(
        self,
        key: str,
        compute: Callable[[], Awaitable[Any]],
    ) -> tuple[Any, str]:
        """The cached value plus how it was obtained.

        The second element is ``"hit"`` (served from the LRU), ``"miss"``
        (this caller ran ``compute``), or ``"coalesced"`` (another caller
        was already computing the same key and the result was shared).
        """
        trace = current_trace()
        started = time.perf_counter() if trace is not None else 0.0
        if key in self._entries:
            self._entries.move_to_end(key)
            self._count("hits")
            if trace is not None:
                trace.add_segment("cache", time.perf_counter() - started)
                trace.annotate(cache="hit")
            return self._entries[key], "hit"

        pending = self._inflight.get(key)
        if pending is not None:
            self._count("coalesced")
            owner = self._inflight_owners.get(key)
            value = await asyncio.shield(pending)
            if trace is not None:
                # The whole wait rode on someone else's computation.
                trace.add_segment("cache", time.perf_counter() - started)
                trace.annotate(cache="coalesced")
                if owner is not None:
                    trace.annotate(computed_by=owner)
            return value, "coalesced"

        self._count("misses")
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        self._inflight_owners[key] = (
            trace.trace_id if trace is not None else None
        )
        try:
            compute_started = time.perf_counter()
            value = await compute()
        except BaseException as error:
            future.set_exception(error)
            # A waiter may never come; don't warn about unretrieved errors.
            future.exception()
            raise
        else:
            future.set_result(value)
            self._store(key, value)
            if trace is not None:
                # Charge only the cache's own overhead; the computation
                # (batcher, kernel, thread hop) accounts for itself.
                trace.add_segment("cache", compute_started - started)
                trace.annotate(cache="miss")
            return value, "miss"
        finally:
            self._inflight.pop(key, None)
            self._inflight_owners.pop(key, None)

    async def get(
        self,
        key: str,
        compute: Callable[[], Awaitable[Any]],
    ) -> Any:
        """:meth:`get_with_outcome` without the outcome tag."""
        value, _ = await self.get_with_outcome(key, compute)
        return value

    def _store(self, key: str, value: Any) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self._count("evictions")

    def counters(self) -> dict[str, int]:
        """Current counter values, keyed for the metrics registry."""
        return {
            "serve.cache.hits": self.hits,
            "serve.cache.misses": self.misses,
            "serve.cache.coalesced": self.coalesced,
            "serve.cache.evictions": self.evictions,
        }

    def clear(self) -> None:
        """Drop completed entries (in-flight computations finish normally)."""
        self._entries.clear()
