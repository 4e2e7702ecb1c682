"""Parallel and vectorized evaluation engine.

Three throughput layers over the analytic and simulation stacks, built for
the 10^4-10^6 model evaluations that availability confidence studies need:

* :mod:`repro.perf.vectorized` — whole-grid closed-form evaluation through
  the numpy k-of-n kernels (``fig*_series_vectorized``, ``hw_*_array``,
  ``plane_availability_array``);
* :mod:`repro.perf.parallel` — the chunked, ``SeedSequence.spawn``-seeded
  Monte-Carlo runner (:func:`monte_carlo_parallel`), bit-identical across
  worker counts, plus the warm process-pool registry
  (:func:`get_warm_pool`) that replication dispatch reuses across calls;
  the matching replication runner lives in :mod:`repro.sim.replicate`;
* :mod:`repro.perf.cache` — transparent memoization of model evaluations
  keyed on the frozen parameter dataclasses;
* :mod:`repro.perf.batching` — chunk sizing (progress pacing) for the
  batched replication kernel (:mod:`repro.sim.batched`).
"""

from repro.perf.batching import (
    BYTES_PER_ROW_COMPONENT,
    DEFAULT_BUDGET_BYTES,
    replication_batch_size,
)
from repro.perf.cache import (
    clear_engine_cache,
    engine_cache_info,
    evaluate_topology_cached,
    memoize_model,
)
from repro.perf.parallel import (
    ARRAY_MODELS,
    DEFAULT_CHUNK_SIZE,
    MAX_WARM_POOLS,
    PoolHandle,
    acquire_warm_pool,
    chunk_bounds,
    get_warm_pool,
    monte_carlo_parallel,
    shutdown_warm_pools,
    split_chunks,
    warm_pool_count,
    warm_pool_lease_count,
)
from repro.perf.vectorized import (
    dp_availability_array,
    fig3_series_vectorized,
    fig4_series_vectorized,
    fig5_series_vectorized,
    hw_availability_array,
    hw_large_array,
    hw_medium_array,
    hw_small_array,
    local_dp_availability_array,
    plane_availability_array,
    sweep_vectorized,
)

__all__ = [
    "BYTES_PER_ROW_COMPONENT",
    "DEFAULT_BUDGET_BYTES",
    "replication_batch_size",
    "ARRAY_MODELS",
    "DEFAULT_CHUNK_SIZE",
    "MAX_WARM_POOLS",
    "PoolHandle",
    "acquire_warm_pool",
    "chunk_bounds",
    "get_warm_pool",
    "monte_carlo_parallel",
    "shutdown_warm_pools",
    "split_chunks",
    "warm_pool_count",
    "warm_pool_lease_count",
    "memoize_model",
    "evaluate_topology_cached",
    "engine_cache_info",
    "clear_engine_cache",
    "dp_availability_array",
    "fig3_series_vectorized",
    "fig4_series_vectorized",
    "fig5_series_vectorized",
    "hw_availability_array",
    "hw_small_array",
    "hw_medium_array",
    "hw_large_array",
    "local_dp_availability_array",
    "plane_availability_array",
    "sweep_vectorized",
]
