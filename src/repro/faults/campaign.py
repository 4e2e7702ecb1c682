"""Declarative fault-injection campaigns over the controller simulator.

A :class:`CampaignSpec` is a frozen, JSON-serializable description of one
stochastic experiment: which reference option to simulate (topology +
restart scenario), at which stressed parameters, under which hazards
(:mod:`repro.faults.hazards`), for how long, and with how many independent
replications.  :func:`run_campaign` executes it with the same determinism
discipline as :func:`repro.sim.replicate.run_replications`: replication
seeds come from :func:`~repro.sim.rng.derive_seeds`, results are merged in
index order, and the outcome is bit-identical for any worker count (and
with tracing on or off).

Default parameters are the repo's *stressed* validation set (see
``repro-avail simulate``): availabilities low enough that failures actually
occur within a tractable horizon.  Both the simulation and the analytic
cross-validation (:mod:`repro.faults.crossval`) see the same parameters,
so agreement still validates model structure.
"""

from __future__ import annotations

import json
from concurrent.futures import Executor
from dataclasses import dataclass, field, fields, replace
from typing import Any, Mapping

from repro.controller.opencontrail import opencontrail_3x
from repro.errors import CampaignError, SimulationError
from repro.models.sw_options import parse_option
from repro.obs import runtime as obs
from repro.obs import telemetry
from repro.obs.manifest import params_hash
from repro.params.hardware import HardwareParams
from repro.params.software import SoftwareParams
from repro.sim.controller_sim import (
    SimulationConfig,
    SimulationResult,
    build_simulator,
    collect_result,
)
from repro.perf.parallel import broadcast_value, map_chunked
from repro.sim.batched import (
    inexpressible_reason,
    plan_batched,
    run_batched,
    validate_batched_mode,
)
from repro.sim.measures import SignalAttribution
from repro.sim.replicate import ReplicationSet, map_jobs
from repro.sim.rng import derive_seeds
from repro.topology.reference import reference_topology
from repro.faults.hazards import (
    CommonCauseSpec,
    HazardSpec,
    attach_hazards,
    hazard_from_dict,
    hazard_to_dict,
)

__all__ = ["CampaignSpec", "CampaignResult", "run_campaign"]


@dataclass(frozen=True)
class CampaignSpec:
    """One fault-injection experiment, fully determined by its fields.

    Attributes:
        option: paper option — scenario + topology (``"1S"``, ``"2L"``, ...).
        horizon_hours: simulated time per replication.
        replications: independent replications (seeds derived from ``seed``).
        seed: campaign root seed.
        batches: batch count per replication (within-run CIs).
        hazards: hazard models to attach (see :mod:`repro.faults.hazards`).
        repair_crews: concurrent-repair limit; ``None`` means unlimited.
        a_process..vm_mtbf_hours: the stressed software/hardware parameter
            set (identical to the ``repro-avail simulate`` defaults) shared
            by the simulation and the analytic cross-validation.
    """

    option: str = "1S"
    horizon_hours: float = 20_000.0
    replications: int = 4
    seed: int = 1
    batches: int = 4
    hazards: tuple[HazardSpec, ...] = ()
    repair_crews: int | None = None
    a_process: float = 0.995
    a_unsupervised: float = 0.95
    process_mtbf_hours: float = 100.0
    a_vm: float = 0.998
    a_host: float = 0.998
    a_rack: float = 0.999
    rack_mtbf_hours: float = 2_000.0
    host_mtbf_hours: float = 1_000.0
    vm_mtbf_hours: float = 500.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "hazards", tuple(self.hazards))
        parse_option(self.option)  # raises ModelError on bad options
        if self.horizon_hours <= 0:
            raise CampaignError(
                f"horizon_hours must be > 0, got {self.horizon_hours}"
            )
        if self.replications < 1:
            raise CampaignError(
                f"replications must be >= 1, got {self.replications}"
            )
        if self.batches < 1:
            raise CampaignError(f"batches must be >= 1, got {self.batches}")
        if self.repair_crews is not None and self.repair_crews < 1:
            raise CampaignError(
                f"repair_crews must be >= 1 or None, got {self.repair_crews}"
            )

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        record: dict[str, Any] = {}
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            if spec_field.name == "hazards":
                value = [hazard_to_dict(hazard) for hazard in value]
            record[spec_field.name] = value
        return record

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "CampaignSpec":
        data = dict(record)
        names = {spec_field.name for spec_field in fields(cls)}
        unknown = set(data) - names
        if unknown:
            raise CampaignError(
                f"unknown campaign field(s): {sorted(unknown)}"
            )
        hazards = tuple(
            hazard_from_dict(hazard) for hazard in data.pop("hazards", ())
        )
        return cls(hazards=hazards, **data)

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        try:
            record = json.loads(text)
        except json.JSONDecodeError as error:
            raise CampaignError(
                f"campaign spec is not valid JSON: {error}"
            ) from None
        if not isinstance(record, dict):
            raise CampaignError("campaign spec JSON must be an object")
        return cls.from_dict(record)

    def params_hash(self) -> str:
        """Canonical SHA-256 of the spec (identical specs hash equal)."""
        return params_hash(self.to_dict())

    # -- derivation ------------------------------------------------------------

    def with_beta(
        self, beta: float, group: str | None = None
    ) -> "CampaignSpec":
        """This campaign with its common-cause beta replaced (for sweeps).

        Existing common-cause hazards get the new ``beta`` (and ``group``
        when given); a campaign without one gains a single hazard over
        ``group`` (default ``"kind:vm"``).
        """
        others = tuple(
            hazard
            for hazard in self.hazards
            if not isinstance(hazard, CommonCauseSpec)
        )
        existing = [
            hazard
            for hazard in self.hazards
            if isinstance(hazard, CommonCauseSpec)
        ]
        if not existing:
            common = (CommonCauseSpec(group=group or "kind:vm", beta=beta),)
        else:
            common = tuple(
                replace(hazard, beta=beta, group=group or hazard.group)
                for hazard in existing
            )
        return replace(self, hazards=others + common)


def materialize(spec: CampaignSpec):
    """Resolve a spec to concrete model inputs.

    Returns ``(controller, topology, hardware, software, scenario)`` — the
    exact objects both the simulation and the analytic side evaluate.
    """
    controller = opencontrail_3x()
    scenario, topology_name = parse_option(spec.option)
    topology = reference_topology(topology_name, controller)
    hardware = HardwareParams(
        a_role=1.0,
        a_vm=spec.a_vm,
        a_host=spec.a_host,
        a_rack=spec.a_rack,
    )
    software = SoftwareParams.from_availabilities(
        spec.a_process,
        spec.a_unsupervised,
        mtbf_hours=spec.process_mtbf_hours,
    )
    return controller, topology, hardware, software, scenario


def _run_campaign_replication(job: tuple) -> tuple[SimulationResult, dict]:
    """One campaign replication (module-level so it pickles into workers)."""
    spec, seed = job
    return _run_one_replication(spec, seed)


def _campaign_replication_from_broadcast(
    seed: int,
) -> tuple[SimulationResult, dict]:
    """One replication reading the spec from the warm pool's broadcast.

    On the warm-pool path the frozen :class:`CampaignSpec` is shipped once
    per worker process (pool initializer) and each job carries its seed
    only.
    """
    return _run_one_replication(broadcast_value(), seed)


def _run_one_replication(
    spec: CampaignSpec, seed: int
) -> tuple[SimulationResult, dict]:
    controller, topology, hardware, software, scenario = materialize(spec)
    config = SimulationConfig(
        seed=seed,
        horizon_hours=spec.horizon_hours,
        batches=spec.batches,
        rack_mtbf_hours=spec.rack_mtbf_hours,
        host_mtbf_hours=spec.host_mtbf_hours,
        vm_mtbf_hours=spec.vm_mtbf_hours,
    )
    simulator = build_simulator(
        controller, topology, hardware, software, scenario, config
    )
    hazard_set = attach_hazards(
        simulator, spec.hazards, crews=spec.repair_crews
    )
    simulator.run(spec.horizon_hours, batches=spec.batches)
    result = collect_result(simulator, spec.horizon_hours)
    stats = hazard_set.stats()
    stats["events"] = simulator.events_processed
    stats["events_purged"] = simulator.events_purged
    stats["queue_compactions"] = simulator.queue_compactions
    return result, stats


@dataclass(frozen=True)
class CampaignResult:
    """A finished campaign: merged replications plus injection statistics."""

    spec: CampaignSpec
    replications: ReplicationSet
    stats: tuple[dict, ...] = field(default_factory=tuple)

    def availability(self, name: str) -> float:
        return self.replications.availability(name)

    def interval(self, name: str):
        return self.replications.interval(name)

    def total_injections(self, kind: str | None = None) -> int:
        """Hazard injections across all replications (optionally one kind)."""
        total = 0
        for stat in self.stats:
            injections = stat.get("injections", {})
            if kind is None:
                total += sum(injections.values())
            else:
                total += injections.get(kind, 0)
        return total

    @property
    def max_queue_depth(self) -> int:
        """Peak repair-queue depth over all replications."""
        return max(
            (stat.get("repair_max_queue_depth", 0) for stat in self.stats),
            default=0,
        )

    @property
    def total_queued(self) -> int:
        """Repair requests that waited for a crew, across replications."""
        return sum(stat.get("repair_total_queued", 0) for stat in self.stats)

    def attribution(self, name: str) -> SignalAttribution:
        """The signal's downtime attribution ledger, merged (concatenated)
        across every replication — exactness of the per-cause sums is
        preserved because merging never pre-sums episode durations.
        """
        return SignalAttribution.merge(
            (
                result.signal_attribution(name)
                for result in self.replications.results
            ),
            name=name,
        )


def run_campaign(
    spec: CampaignSpec,
    workers: int = 1,
    executor: Executor | None = None,
    batched: str = "auto",
) -> CampaignResult:
    """Execute a campaign; bit-identical for any ``workers`` count.

    Each replication builds the option's simulator at the spec's stressed
    parameters, attaches the hazards, runs to the horizon, and returns its
    measured availabilities plus hazard statistics; results merge in index
    order.  Under an observability session the campaign annotates its seed
    material and spec hash (they land in the run manifest) and aggregates
    per-hazard injection counters and the peak repair-queue depth.

    ``batched="auto"`` (default) routes hazard-free, crew-unlimited
    campaigns of either restart scenario through the lean counter-based
    kernel (:mod:`repro.sim.batched`) when no explicit ``executor`` is
    given — same numbers, a cheaper event loop per replication.  ``"on"``
    requires the kernel and raises
    :class:`~repro.errors.SimulationError` when the campaign needs scalar
    features; ``"off"`` always uses the scalar engine.  On the kernel the
    ``events`` stat (and the ``campaign.end`` telemetry total) counts live
    transitions only; the scalar engine also counts the stale clocks it
    pops.
    """
    validate_batched_mode(batched)
    controller, topology, hardware, software, scenario = materialize(spec)
    model = None
    if batched != "off":
        reason = inexpressible_reason(spec.hazards, spec.repair_crews)
        if reason is None and executor is not None:
            reason = "an explicit executor was supplied"
        if reason is None:
            model = plan_batched(
                controller, topology, hardware, software, scenario,
                SimulationConfig(
                    seed=spec.seed,
                    horizon_hours=spec.horizon_hours,
                    batches=spec.batches,
                    rack_mtbf_hours=spec.rack_mtbf_hours,
                    host_mtbf_hours=spec.host_mtbf_hours,
                    vm_mtbf_hours=spec.vm_mtbf_hours,
                ),
            )
        elif batched == "on":
            raise SimulationError(
                f"batched='on' but the campaign cannot run on the "
                f"batched kernel: {reason}"
            )
    seeds = derive_seeds(spec.seed, spec.replications)
    obs.note_solver("fault-campaign")
    obs.annotate("topology", topology.name)
    obs.annotate("seed.campaign_root", spec.seed)
    obs.annotate("seed.campaign_replications", spec.replications)
    obs.annotate("seed.campaign_hash", spec.params_hash())
    telemetry.emit(
        "campaign.start",
        option=spec.option,
        topology=topology.name,
        replications=spec.replications,
        hazards=len(spec.hazards),
        workers=workers,
        horizon_hours=spec.horizon_hours,
        spec_hash=spec.params_hash(),
    )
    with obs.span(
        "faults.campaign",
        option=spec.option,
        replications=spec.replications,
        hazards=len(spec.hazards),
        workers=workers,
    ):
        if model is not None:
            # Counter-kernel path: no hazards run, so per-replication
            # stats reduce to the live event count (the other counters
            # are structurally zero without hazards or crew limits).
            outcomes = [
                (
                    result,
                    {
                        "injections": {},
                        "repair_max_queue_depth": 0,
                        "repair_total_queued": 0,
                        "events": count,
                        "events_purged": 0,
                        "queue_compactions": 0,
                    },
                )
                for result, count in run_batched(
                    model, list(seeds), spec.horizon_hours, spec.batches
                )
            ]
        elif executor is None and workers > 1 and spec.replications > 1:
            # Warm-pool path: the frozen spec broadcasts once per worker
            # via the pool initializer; jobs carry only their seed and are
            # chunked per worker.
            outcomes = map_chunked(
                _campaign_replication_from_broadcast,
                list(seeds),
                workers,
                spec,
            )
        else:
            outcomes = map_jobs(
                _run_campaign_replication,
                [(spec, seed) for seed in seeds],
                workers=workers,
                executor=executor,
                span_name="faults.replication",
            )
    results = tuple(result for result, _ in outcomes)
    stats = tuple(stat for _, stat in outcomes)
    if obs.enabled():
        kinds: dict[str, int] = {}
        for stat in stats:
            for kind, count in stat.get("injections", {}).items():
                kinds[kind] = kinds.get(kind, 0) + count
        for kind, count in sorted(kinds.items()):
            obs.count(f"faults.injections.{kind}", count)
        obs.gauge(
            "faults.repair_queue.max_depth",
            max(
                (stat.get("repair_max_queue_depth", 0) for stat in stats),
                default=0,
            ),
        )
    campaign = CampaignResult(
        spec=spec,
        replications=ReplicationSet(results=results, seeds=seeds),
        stats=stats,
    )
    if telemetry.enabled():
        telemetry.emit(
            "campaign.end",
            option=spec.option,
            replications=spec.replications,
            availability={
                name: campaign.availability(name)
                for name in ("cp", "sdp", "ldp", "dp")
            },
            injections=campaign.total_injections(),
            events=sum(stat.get("events", 0) for stat in stats),
        )
    return campaign
