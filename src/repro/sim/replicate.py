"""Independent-replication runs of the controller simulation.

One long simulation run gives one batch-means confidence interval; the
standard alternative for tighter, cleaner intervals is **independent
replications**: ``R`` runs of :func:`repro.sim.controller_sim.
simulate_controller` that differ only in their RNG seed, merged into one
estimate per signal.  Replication seeds are spawned from the root seed with
:func:`repro.sim.rng.derive_seeds` (``SeedSequence.spawn``), so replication
``i`` is a pure function of ``(root seed, i)`` and the merged results are
**bit-identical for any worker count** — replications are merely dispatched
to a :class:`concurrent.futures.ProcessPoolExecutor` and re-assembled in
index order.
"""

from __future__ import annotations

from concurrent.futures import Executor
from dataclasses import dataclass, replace
from typing import Sequence

from repro.controller.spec import ControllerSpec
from repro.errors import SimulationError
from repro.obs import runtime as obs
from repro.obs import telemetry
from repro.params.hardware import HardwareParams
from repro.perf.parallel import (
    broadcast_value,
    dispatch_chunks,
    get_warm_pool,
    map_chunked,
)
from repro.params.software import RestartScenario, SoftwareParams
from repro.sim.batched import plan_batched, run_batched, validate_batched_mode
from repro.sim.controller_sim import (
    OutageStatistics,
    SimulationConfig,
    SimulationResult,
    simulate_controller,
)
from repro.sim.measures import ConfidenceInterval, batch_means_interval
from repro.sim.rng import derive_seeds
from repro.topology.deployment import DeploymentTopology

__all__ = ["ReplicationSet", "map_jobs", "run_replications"]

_SIGNAL_ATTRS = {
    "cp": "cp",
    "sdp": "shared_dp",
    "ldp": "local_dp",
    "dp": "dp",
}


@dataclass(frozen=True)
class ReplicationSet:
    """Merged view over independent replications of one configuration."""

    results: tuple[SimulationResult, ...]
    seeds: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.results:
            raise SimulationError("a ReplicationSet needs >= 1 replication")
        if len(self.results) != len(self.seeds):
            raise SimulationError("one seed per replication required")

    @property
    def replications(self) -> int:
        return len(self.results)

    def _values(self, name: str) -> list[float]:
        try:
            attribute = _SIGNAL_ATTRS[name]
        except KeyError:
            raise SimulationError(f"unknown signal {name!r}") from None
        return [getattr(result, attribute) for result in self.results]

    def availability(self, name: str) -> float:
        """Merged availability — the mean over equal-horizon replications."""
        values = self._values(name)
        return sum(values) / len(values)

    def interval(self, name: str) -> ConfidenceInterval:
        """Across-replication confidence interval.

        Each replication's time-weighted availability is one i.i.d.
        observation — the batch-means formula applies with replications as
        the batches.  Needs >= 2 replications.
        """
        return batch_means_interval(self._values(name))

    def outage_statistics(self, name: str) -> OutageStatistics:
        """Pooled outage episodes across replications."""
        stats = [result.outage_statistics(name) for result in self.results]
        count = sum(s.count for s in stats)
        hours = sum(result.horizon_hours for result in self.results)
        weighted_duration = sum(s.mean_duration_hours * s.count for s in stats)
        return OutageStatistics(
            count=count,
            frequency_per_hour=count / hours if hours > 0 else 0.0,
            mean_duration_hours=weighted_duration / count if count else 0.0,
        )


def map_jobs(
    worker,
    jobs: Sequence,
    workers: int = 1,
    executor: Executor | None = None,
    span_name: str = "sim.replication",
) -> tuple:
    """Run ``worker`` over ``jobs`` and return results in index order.

    The shared dispatch core of :func:`run_replications` and the fault
    campaign runner (:mod:`repro.faults.campaign`): a supplied ``executor``
    wins, ``workers <= 1`` (or a single job) runs inline with a per-job
    ``obs`` span, anything else fans out to a **warm** process pool
    (:func:`repro.perf.parallel.get_warm_pool`) as contiguous per-worker
    chunks — repeated dispatches reuse live worker processes instead of
    paying pool start-up per call.  Results are always re-assembled in job
    order, so the output is independent of scheduling — what keeps seeded
    runs bit-identical across worker counts.  ``worker`` must be
    module-level (picklable) for the pool path.
    """
    if workers < 1:
        raise SimulationError(f"workers must be >= 1, got {workers}")
    jobs = list(jobs)
    if executor is not None:
        return tuple(executor.map(worker, jobs))
    if workers == 1 or len(jobs) <= 1:
        tracker = (
            telemetry.ProgressTracker(len(jobs))
            if telemetry.enabled()
            else None
        )
        collected = []
        for index, job in enumerate(jobs):
            with obs.span(span_name, index=index):
                collected.append(worker(job))
            if tracker is not None:
                telemetry.emit("progress", job=index, **tracker.update())
        return tuple(collected)
    pool = get_warm_pool(workers)
    return dispatch_chunks(pool, worker, jobs, workers)


def _run_replication(job: tuple) -> SimulationResult:
    """One replication (module-level so it pickles into worker processes)."""
    spec, topology, hardware, software, scenario, config, seed = job
    return simulate_controller(
        spec, topology, hardware, software, scenario,
        replace(config, seed=seed),
    )


def _replication_from_broadcast(seed: int) -> SimulationResult:
    """One replication whose constant inputs arrive via the pool broadcast.

    The warm-pool path ships ``(spec, topology, hardware, software,
    scenario, config)`` once per worker process (pool initializer) instead
    of once per replication; only the seed travels with the job.
    """
    spec, topology, hardware, software, scenario, config = broadcast_value()
    return simulate_controller(
        spec, topology, hardware, software, scenario,
        replace(config, seed=seed),
    )


def run_replications(
    spec: ControllerSpec,
    topology: DeploymentTopology,
    hardware: HardwareParams,
    software: SoftwareParams,
    scenario: RestartScenario,
    config: SimulationConfig | None = None,
    replications: int = 4,
    workers: int = 1,
    executor: Executor | None = None,
    batched: str = "auto",
) -> ReplicationSet:
    """Run ``replications`` seeded copies of the controller simulation.

    ``config.horizon_hours`` applies to *each* replication; the merged
    estimate therefore observes ``replications * horizon_hours`` of
    simulated time.  ``workers <= 1`` runs inline; otherwise replications
    are dispatched to a process pool (or the supplied ``executor``) and
    merged in index order, so the result is independent of scheduling.

    ``batched`` selects the engine: ``"auto"`` (default) routes through the
    lean counter-based kernel (:mod:`repro.sim.batched`) — every option,
    either restart scenario — unless an explicit ``executor`` was
    supplied; results are bit-identical to the scalar engine, so the knob
    never changes numbers, only speed.  ``"on"`` requires the kernel
    (raises :class:`~repro.errors.SimulationError` alongside an explicit
    ``executor``), ``"off"`` forces the scalar per-replication engine.
    The kernel runs every replication in one process, so ``workers`` is
    ignored while it is engaged.
    """
    validate_batched_mode(batched)
    if replications < 1:
        raise SimulationError(
            f"replications must be >= 1, got {replications}"
        )
    config = config or SimulationConfig()
    model = None
    if batched != "off":
        if executor is None:
            model = plan_batched(
                spec, topology, hardware, software, scenario, config
            )
        elif batched == "on":
            raise SimulationError(
                "batched='on' but the workload cannot run on the batched "
                "kernel: an explicit executor was supplied"
            )
    seeds = derive_seeds(config.seed, replications)
    obs.note_solver("simulation")
    obs.annotate("topology", topology.name)
    obs.annotate("seed.sim_root", config.seed)
    obs.annotate("seed.sim_replications", replications)
    telemetry.emit(
        "replications.start",
        topology=topology.name,
        replications=replications,
        workers=workers,
        horizon_hours=config.horizon_hours,
        seed=config.seed,
    )
    with obs.span(
        "sim.replicate",
        replications=replications,
        workers=workers,
        horizon_hours=config.horizon_hours,
    ):
        if model is not None:
            # Counter-based kernel: every replication runs in this
            # process; per-replication results are bit-identical to the
            # scalar engine with the same derived seeds.
            results = tuple(
                result
                for result, _ in run_batched(
                    model, list(seeds), config.horizon_hours, config.batches
                )
            )
        elif executor is None and workers > 1 and replications > 1:
            # Warm-pool path: broadcast the constant inputs once per
            # worker, send one seed per job, chunk jobs per worker.
            results = map_chunked(
                _replication_from_broadcast,
                list(seeds),
                workers,
                (spec, topology, hardware, software, scenario, config),
            )
        else:
            jobs = [
                (spec, topology, hardware, software, scenario, config, seed)
                for seed in seeds
            ]
            results = map_jobs(
                _run_replication, jobs, workers=workers, executor=executor
            )
    obs.count("sim.replications", replications)
    merged = ReplicationSet(results=results, seeds=seeds)
    telemetry.emit(
        "replications.end",
        replications=replications,
        availability={
            name: merged.availability(name) for name in _SIGNAL_ATTRS
        },
    )
    return merged
