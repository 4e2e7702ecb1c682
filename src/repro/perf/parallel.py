"""Deterministic parallel Monte-Carlo over input-parameter uncertainty.

:func:`monte_carlo_parallel` reproduces the study of
:func:`repro.analysis.uncertainty.monte_carlo` — the distribution of a
hardware-availability model output under log-uniform downtime uncertainty —
but restructured for throughput:

* the sample index space is split into **fixed-size chunks**; chunk ``c``
  draws from a generator seeded with ``np.random.SeedSequence(seed,
  spawn_key=(c,))`` (the ``SeedSequence.spawn`` child derivation), so every
  sample is a pure function of ``(seed, chunk_size, sample index)`` —
  results are **bit-identical regardless of the worker count**;
* chunks are dispatched to a :class:`concurrent.futures.ProcessPoolExecutor`
  when ``workers > 1`` and evaluated inline otherwise;
* within a chunk, models registered in :data:`ARRAY_MODELS` (the section V
  closed forms) are evaluated **vectorized** over the whole chunk via
  :mod:`repro.perf.vectorized`; unregistered models fall back to scalar
  calls, still parallelized across workers.

The draw scheme intentionally differs from the sequential seed path (which
threads one generator through every sample): the sequential path's draws
depend on sample *order*, which cannot be parallelized without either
serializing the generator or fixing a derivation tree.  This module fixes
the tree; the two paths agree in distribution and are separately
deterministic.
"""

from __future__ import annotations

import atexit
import pickle
import time
from collections import OrderedDict
from concurrent.futures import Executor, ProcessPoolExecutor
from dataclasses import replace
from typing import Callable, Sequence

import numpy as np

from repro.analysis.uncertainty import (
    HARDWARE_FIELDS,
    UncertaintyResult,
)
from repro.errors import ParameterError
from repro.models.hw_closed import hw_large, hw_medium, hw_small
from repro.obs import runtime as obs
from repro.obs import telemetry
from repro.obs.trace import Span
from repro.params.hardware import HardwareParams
from repro.perf.vectorized import (
    hw_large_array,
    hw_medium_array,
    hw_small_array,
)
from repro.units import check_positive

__all__ = [
    "ARRAY_MODELS",
    "DEFAULT_CHUNK_SIZE",
    "MAX_RIDEBACK_SPANS",
    "MAX_WARM_POOLS",
    "PoolHandle",
    "acquire_warm_pool",
    "monte_carlo_parallel",
    "chunk_bounds",
    "broadcast_value",
    "dispatch_chunks",
    "evaluate_chunk",
    "evaluate_chunk_captured",
    "get_warm_pool",
    "map_chunked",
    "shutdown_warm_pools",
    "split_chunks",
    "warm_pool_count",
    "warm_pool_lease_count",
]

#: Scalar model -> vectorized counterpart used for whole-chunk evaluation.
ARRAY_MODELS: dict[Callable[[HardwareParams], float], Callable[..., np.ndarray]] = {
    hw_small: hw_small_array,
    hw_medium: hw_medium_array,
    hw_large: hw_large_array,
}

#: Samples per chunk.  Part of the deterministic derivation scheme: results
#: depend on ``(seed, chunk_size)`` but never on the worker count.
DEFAULT_CHUNK_SIZE = 1024


def chunk_bounds(samples: int, chunk_size: int) -> list[tuple[int, int, int]]:
    """``(chunk index, start, stop)`` triples covering ``range(samples)``."""
    if samples < 1:
        raise ParameterError(f"samples must be >= 1, got {samples}")
    if chunk_size < 1:
        raise ParameterError(f"chunk_size must be >= 1, got {chunk_size}")
    return [
        (c, start, min(start + chunk_size, samples))
        for c, start in enumerate(range(0, samples, chunk_size))
    ]


def _scale_array(availability: float, orders: np.ndarray) -> np.ndarray:
    """Vectorized ``uncertainty._scale``: downtime scaled by ``10**orders``."""
    scaled_downtime = (1.0 - availability) * 10.0**orders
    return np.maximum(0.0, 1.0 - scaled_downtime)


def _mc_chunk(
    model: Callable[[HardwareParams], float],
    array_model: Callable[..., np.ndarray] | None,
    base: HardwareParams,
    spread_orders: float,
    seed: int,
    chunk_index: int,
    count: int,
) -> np.ndarray:
    """Evaluate one chunk of samples (runs in a worker process).

    Module-level so it pickles under :class:`ProcessPoolExecutor`.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(chunk_index,))
    )
    draws = rng.uniform(
        -spread_orders, spread_orders, size=(count, len(HARDWARE_FIELDS))
    )
    columns = {
        field: _scale_array(getattr(base, field), draws[:, j])
        for j, field in enumerate(HARDWARE_FIELDS)
    }
    if array_model is not None:
        out = array_model(
            columns["a_role"],
            columns["a_vm"],
            columns["a_host"],
            columns["a_rack"],
        )
        return np.asarray(out, dtype=float)
    values = np.empty(count, dtype=float)
    for i in range(count):
        params = replace(
            base, **{f: float(columns[f][i]) for f in HARDWARE_FIELDS}
        )
        values[i] = model(params)
    return values


def monte_carlo_parallel(
    model: Callable[[HardwareParams], float],
    base: HardwareParams,
    spread_orders: float = 0.5,
    samples: int = 500,
    seed: int = 0,
    workers: int = 1,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    vectorize: bool = True,
    array_model: Callable[..., np.ndarray] | None = None,
    executor: Executor | None = None,
) -> UncertaintyResult:
    """Parallel/vectorized distribution of ``model`` under input uncertainty.

    Args:
        model: scalar availability model of :class:`HardwareParams`.  Must
            be picklable (a module-level function) when ``workers > 1``.
        base: nominal hardware parameters.
        spread_orders: ±orders of magnitude of downtime uncertainty.
        samples: number of Monte-Carlo samples.
        seed: root seed of the ``SeedSequence`` derivation tree.
        workers: process count; ``<= 1`` evaluates inline (no pool).
        chunk_size: samples per chunk.  Changing it changes the draws;
            changing ``workers`` never does.
        vectorize: evaluate chunks through the model's registered array
            counterpart (:data:`ARRAY_MODELS`) when available.
        array_model: explicit vectorized counterpart overriding the
            registry; called as ``array_model(a_role, a_vm, a_host,
            a_rack)`` on equal-length arrays.
        executor: reuse an existing executor (e.g. a warm process pool)
            instead of creating one per call; ``workers`` is then only the
            chunk-dispatch width.

    Returns:
        The same :class:`UncertaintyResult` as the sequential path, with
        samples ordered by sample index.
    """
    check_positive(spread_orders, "spread_orders")
    if workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers}")
    chunks = chunk_bounds(samples, chunk_size)
    resolved = array_model
    if resolved is None and vectorize:
        resolved = ARRAY_MODELS.get(model)
    jobs = [
        (model, resolved, base, spread_orders, seed, c, stop - start)
        for c, start, stop in chunks
    ]
    obs.note_solver("monte-carlo")
    if resolved is not None:
        obs.note_solver("vectorized")
    obs.annotate("seed.mc_root", seed)
    obs.annotate("seed.mc_chunk_size", chunk_size)
    with obs.span(
        "perf.monte_carlo",
        samples=samples,
        chunks=len(jobs),
        workers=workers,
        vectorized=resolved is not None,
    ):
        wall_start = time.perf_counter()
        inline = executor is None and (workers == 1 or len(jobs) == 1)
        if executor is not None:
            timed = list(executor.map(_mc_chunk_star, jobs))
        elif inline:
            timed = [_mc_chunk_star(job) for job in jobs]
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                timed = list(pool.map(_mc_chunk_star, jobs))
        parts = [values for values, _ in timed]
        wall = time.perf_counter() - wall_start
    if obs.enabled():
        _record_mc_metrics(
            samples,
            [seconds for _, seconds in timed],
            wall,
            1 if inline else min(workers, len(jobs)),
        )
    values = np.concatenate(parts)
    return UncertaintyResult(tuple(float(v) for v in values))


def _record_mc_metrics(
    samples: int,
    chunk_seconds: list[float],
    wall: float,
    effective_workers: int,
) -> None:
    """Publish the throughput metrics of one Monte-Carlo dispatch."""
    for seconds in chunk_seconds:
        obs.observe("perf.mc.chunk_seconds", seconds)
    obs.count("perf.mc.samples", samples)
    obs.count("perf.mc.chunks", len(chunk_seconds))
    if wall > 0.0:
        obs.gauge("perf.mc.samples_per_second", samples / wall)
        busy = sum(chunk_seconds)
        obs.gauge(
            "perf.mc.worker_utilization",
            min(1.0, busy / (wall * effective_workers)),
        )


def _mc_chunk_star(job: tuple) -> tuple[np.ndarray, float]:
    """Evaluate one chunk, timed.

    The per-chunk wall time rides back with the values (an observation
    only — the sample values are untouched), so the parent process can
    report chunk-time histograms and worker utilization even for chunks
    evaluated in pool workers, where the parent's runtime state is
    invisible.
    """
    start = time.perf_counter()
    values = _mc_chunk(*job)
    return values, time.perf_counter() - start


# -- warm process pools -------------------------------------------------------
#
# ``ProcessPoolExecutor`` start-up (fork/spawn + interpreter import) costs a
# large fraction of a short dispatch — replication batches measured in
# hundreds of milliseconds pay it on every call when pools are created cold.
# The registry below keeps pools alive across calls, keyed by their full
# construction recipe ``(workers, initializer, initargs)``, so a repeated
# dispatch (benchmark repeats, campaign sweeps at one spec) reuses warm
# worker processes.  Worker processes are fresh interpreters: they start
# with observability *disabled*, which keeps pool-dispatched replications
# trace-free exactly like the cold-pool path before them.
#
# Two lifecycles share the registry:
#
# * **Anonymous reuse** (:func:`get_warm_pool`) — the CLI path.  Each call
#   refreshes the pool's LRU position; pools beyond :data:`MAX_WARM_POOLS`
#   are evicted oldest-first.  Nothing pins a pool, so a sweep over many
#   distinct broadcast specs churns through the cap as before.
# * **Explicit leases** (:func:`acquire_warm_pool`) — the long-running
#   server path.  A :class:`PoolHandle` pins its pool against LRU eviction
#   until released, so a service's job pool cannot be shut down underneath
#   it by unrelated dispatches.  Leases never change which pool a recipe
#   maps to, so CLI callers and lease holders with equal recipes share one
#   pool — the "one pool lifecycle for both" contract.

#: Live warm pools are capped; the least-recently-used *unleased* pool
#: beyond the cap is shut down (each pool owns OS processes — an unbounded
#: registry would leak them under e.g. a sweep over many distinct broadcast
#: specs).  Leased pools are never evicted, so the live count can exceed
#: the cap while more than ``MAX_WARM_POOLS`` leases are outstanding.
MAX_WARM_POOLS = 4

_WARM_POOLS: OrderedDict[tuple, ProcessPoolExecutor] = OrderedDict()

#: Outstanding lease counts by pool key (absent key == no leases).
_POOL_LEASES: dict[tuple, int] = {}


def _pool_unusable(pool: ProcessPoolExecutor) -> bool:
    """True when the pool can no longer accept work (broken or shut down)."""
    return bool(
        getattr(pool, "_broken", False)
        or getattr(pool, "_shutdown_thread", False)
    )


def _obtain_pool(key: tuple) -> ProcessPoolExecutor:
    """The live pool for ``key``, creating/replacing and trimming the LRU."""
    workers, initializer, initargs = key
    pool = _WARM_POOLS.get(key)
    if pool is not None:
        if not _pool_unusable(pool):
            _WARM_POOLS.move_to_end(key)
            return pool
        del _WARM_POOLS[key]
        pool.shutdown(wait=False, cancel_futures=True)
    pool = ProcessPoolExecutor(
        max_workers=workers, initializer=initializer, initargs=initargs
    )
    _WARM_POOLS[key] = pool
    _trim_pools()
    if obs.enabled():
        obs.gauge("perf.warm_pools.live", len(_WARM_POOLS))
    return pool


def _trim_pools() -> None:
    """Evict least-recently-used unleased pools beyond the cap."""
    if len(_WARM_POOLS) <= MAX_WARM_POOLS:
        return
    for key in list(_WARM_POOLS):
        if len(_WARM_POOLS) <= MAX_WARM_POOLS:
            return
        if _POOL_LEASES.get(key, 0) > 0:
            continue
        evicted = _WARM_POOLS.pop(key)
        evicted.shutdown(wait=False, cancel_futures=True)


def get_warm_pool(
    workers: int,
    initializer: Callable[..., None] | None = None,
    initargs: tuple = (),
) -> ProcessPoolExecutor:
    """A reusable process pool for ``workers`` with the given initializer.

    Pools are cached by ``(workers, initializer, initargs)`` — ``initargs``
    must therefore be hashable (pass pickled ``bytes`` for rich objects).
    The initializer runs once per worker *process*, which makes it the
    cheap broadcast channel for per-dispatch-constant state (e.g. a frozen
    campaign spec): send it once per worker instead of once per job.
    Broken or shut-down pools are replaced transparently; all pools are
    shut down at interpreter exit (or explicitly via
    :func:`shutdown_warm_pools`).  For a pool that must survive unrelated
    dispatch churn (a long-running server), hold a lease via
    :func:`acquire_warm_pool` instead.
    """
    if workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers}")
    return _obtain_pool((workers, initializer, initargs))


class PoolHandle:
    """An explicit lease on one warm pool's lifecycle.

    While any handle on a recipe is unreleased, the registry never
    LRU-evicts that recipe's pool; :func:`shutdown_warm_pools` (and the
    interpreter-exit hook) still closes it, and :attr:`executor`
    transparently re-creates a pool that was shut down or broke while
    leased.  Handles are context managers::

        with acquire_warm_pool(workers=4) as handle:
            handle.executor.map(...)

    Releasing is idempotent; using :attr:`executor` after release raises
    :class:`~repro.errors.ParameterError`.
    """

    __slots__ = ("_key", "_released")

    def __init__(self, key: tuple):
        self._key = key
        self._released = False

    @property
    def workers(self) -> int:
        return self._key[0]

    @property
    def released(self) -> bool:
        return self._released

    @property
    def executor(self) -> ProcessPoolExecutor:
        """The leased pool (replaced transparently if broken/shut down)."""
        if self._released:
            raise ParameterError("pool handle has been released")
        return _obtain_pool(self._key)

    def release(self) -> None:
        """Drop this lease; the pool becomes LRU-evictable again."""
        if self._released:
            return
        self._released = True
        remaining = _POOL_LEASES.get(self._key, 0) - 1
        if remaining > 0:
            _POOL_LEASES[self._key] = remaining
        else:
            _POOL_LEASES.pop(self._key, None)
            _trim_pools()

    def __enter__(self) -> "PoolHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


def acquire_warm_pool(
    workers: int,
    initializer: Callable[..., None] | None = None,
    initargs: tuple = (),
) -> PoolHandle:
    """Lease the warm pool for this recipe (see :class:`PoolHandle`).

    The same registry backs :func:`get_warm_pool`, so a lease shares its
    pool with anonymous callers of the same recipe — acquiring never forks
    a second pool, it only pins the shared one.
    """
    if workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers}")
    key = (workers, initializer, initargs)
    _obtain_pool(key)
    _POOL_LEASES[key] = _POOL_LEASES.get(key, 0) + 1
    return PoolHandle(key)


def shutdown_warm_pools(wait: bool = True) -> int:
    """Shut down every cached pool; returns how many were live.

    Outstanding leases survive a shutdown: their next ``executor`` access
    re-creates the pool (a lease pins a *recipe*, not one executor object).
    """
    count = len(_WARM_POOLS)
    while _WARM_POOLS:
        _, pool = _WARM_POOLS.popitem(last=False)
        pool.shutdown(wait=wait, cancel_futures=True)
    return count


def warm_pool_count() -> int:
    """How many warm pools are currently cached (for tests/diagnostics)."""
    return len(_WARM_POOLS)


def warm_pool_lease_count() -> int:
    """How many pool recipes currently hold at least one lease."""
    return len(_POOL_LEASES)


atexit.register(shutdown_warm_pools)


def split_chunks(items: Sequence, parts: int) -> list[list]:
    """Split ``items`` into at most ``parts`` contiguous, balanced chunks.

    Contiguity is what preserves determinism downstream: flattening the
    per-chunk results in chunk order reproduces the original item order
    regardless of which worker ran which chunk.
    """
    if parts < 1:
        raise ParameterError(f"parts must be >= 1, got {parts}")
    items = list(items)
    parts = min(parts, len(items)) or 1
    base, extra = divmod(len(items), parts)
    chunks: list[list] = []
    start = 0
    for index in range(parts):
        size = base + (1 if index < extra else 0)
        chunks.append(items[start : start + size])
        start += size
    return chunks


# -- broadcast dispatch -------------------------------------------------------
#
# Per-worker-process slot for dispatch-constant state.  Replication jobs
# used to carry the full (spec, topology, params, ...) tuple per job; with
# the broadcast channel the constant part pickles once per worker process
# (via the pool initializer) and each job shrinks to its seed.

_BROADCAST = None


def _install_broadcast(blob: bytes) -> None:
    """Pool initializer: unpickle the broadcast context (runs per worker)."""
    global _BROADCAST
    _BROADCAST = pickle.loads(blob)


def broadcast_value():
    """The context broadcast to this process by :func:`map_chunked`."""
    return _BROADCAST


def evaluate_chunk(payload: tuple) -> list:
    """Run ``worker`` over one contiguous chunk (inside a pool worker)."""
    worker, items = payload
    return [worker(item) for item in items]


#: Most worker-side spans shipped back per chunk — a cap, not a promise:
#: span ride-back is an observation channel, and an instrumentation-happy
#: worker must not bloat the result pickle.
MAX_RIDEBACK_SPANS = 64


def evaluate_chunk_captured(payload: tuple) -> tuple:
    """Run one chunk under a worker-side metrics session, timed.

    Pool workers carry a disabled obs runtime, so counters recorded inside
    a chunk (simulator events, outage episodes) would silently vanish.
    This wrapper brackets the chunk in its own session and ships the
    registry snapshot — plus the chunk wall time and the chunk's completed
    spans (capped at :data:`MAX_RIDEBACK_SPANS`) — back through the result
    channel, for the parent to merge in chunk-index order.  Warm pools
    reuse worker processes, so the session is always closed (try/finally)
    before the next chunk arrives.
    """
    worker, items, chunk_index = payload
    # Fork-started workers inherit a *copy* of the parent's active session
    # (its recordings are invisible to the parent); drop it so the chunk's
    # metrics land in a registry of their own.
    obs.stop()
    session = obs.start(f"chunk:{chunk_index}")
    try:
        start = time.perf_counter()
        results = [worker(item) for item in items]
        seconds = time.perf_counter() - start
        snapshot = session.metrics.snapshot()
        spans = [
            span.to_dict()
            for span in session.tracer.spans[:MAX_RIDEBACK_SPANS]
        ]
    finally:
        obs.stop()
    return chunk_index, results, snapshot, seconds, spans


def _merge_worker_spans(
    session, chunk_index: int, spans: list[dict]
) -> None:
    """Fold one chunk's ride-back spans into the parent session's tracer.

    Merged spans keep their worker-side nesting but sit one depth level
    down (never at depth 0, so :meth:`~repro.obs.trace.Tracer.roots` —
    the manifest's phase list — stays a parent-only view), carry a
    ``chunk`` attribute, and fall back to a synthetic ``chunk:<i>`` parent
    at what was the worker's top level.  ``pool.map`` yields chunks in
    submission order, so the merge order is chunk-index order regardless
    of which worker finished first — the same determinism contract as the
    metric-snapshot merge.
    """
    for record in spans:
        attrs = dict(record.get("attrs", {}))
        attrs["chunk"] = chunk_index
        session.tracer.spans.append(
            Span(
                name=record["name"],
                start=record["start"],
                duration=record["duration"],
                depth=record["depth"] + 1,
                parent=record["parent"] or f"chunk:{chunk_index}",
                attrs=attrs,
            )
        )


def dispatch_chunks(pool, worker, items: Sequence, workers: int) -> tuple:
    """Chunk ``items`` per worker, dispatch on ``pool``, flatten in order.

    While the parent holds an obs session or a telemetry bus, chunks run
    through :func:`evaluate_chunk_captured`: worker-side metric registries
    merge into the parent session (counters add; gauges last-writer-wins
    in chunk-index order; histogram bins element-wise; worker spans fold
    in one depth level down) and a ``progress`` heartbeat plus a
    ``metrics`` snapshot event are emitted per completed chunk, in the
    parent, so they carry the stamp of the caller's trace context.  With
    session and bus both disabled the plain payload shape runs — the
    instrumentation costs nothing.
    """
    items = list(items)
    chunks = split_chunks(items, workers)
    session = obs.active()
    if session is None and not telemetry.enabled():
        collected: list = []
        for part in pool.map(
            evaluate_chunk, [(worker, chunk) for chunk in chunks]
        ):
            collected.extend(part)
        return tuple(collected)
    tracker = (
        telemetry.ProgressTracker(len(items))
        if telemetry.enabled()
        else None
    )
    payloads = [(worker, chunk, index) for index, chunk in enumerate(chunks)]
    collected = []
    for chunk_index, part, snapshot, seconds, spans in pool.map(
        evaluate_chunk_captured, payloads
    ):
        collected.extend(part)
        if session is not None:
            session.metrics.merge_snapshot(snapshot)
            session.metrics.histogram("perf.chunk_seconds").observe(seconds)
            _merge_worker_spans(session, chunk_index, spans)
        if tracker is not None:
            events = snapshot.get("counters", {}).get("sim.events", 0)
            telemetry.emit(
                "progress",
                chunk=chunk_index,
                **tracker.update(completed=len(part), events=int(events)),
            )
            # Merged parent-side view when a session exists, otherwise
            # the worker chunk's own registry snapshot.
            telemetry.emit(
                "metrics",
                snapshot=(
                    session.metrics.snapshot()
                    if session is not None
                    else snapshot
                ),
            )
    return tuple(collected)


def map_chunked(worker, items: Sequence, workers: int, context) -> tuple:
    """Run ``worker`` over ``items`` on a warm pool with ``context`` broadcast.

    ``context`` (any picklable object) is shipped once per worker process
    through the pool initializer; ``worker`` — a module-level function of a
    single item — reads it back with :func:`broadcast_value`.  Items are
    dispatched as contiguous chunks (one per worker) and results flattened
    in chunk order, so the output order equals the input order for any
    worker count — the property seeded replications rely on for
    bit-identical results.  See :func:`dispatch_chunks` for the worker-
    metrics/telemetry behavior under an active session or bus.
    """
    pool = get_warm_pool(
        workers,
        initializer=_install_broadcast,
        initargs=(pickle.dumps(context),),
    )
    return dispatch_chunks(pool, worker, items, workers)
