"""Lean replication kernel over incremental k-of-n quorum counters.

Runs each replication of an expressible campaign through a tight
pure-Python event loop instead of the general scalar engine: flat
per-component lists built once by :func:`plan_batched`, one heap of live
clocks, and plane signals kept as incremental counters (Eq. 1 / Table III
are hierarchical k-of-n counts over role instances).  A transition touches
only the counters of the components whose effective state flipped:

    down members per instance -> satisfied instances per unit
    -> unsatisfied units per plane (cp / sdp / ldp; dp = sdp AND ldp)

so a refresh costs O(flipped components), never a re-walk of every
quorum unit.

**Exact-equivalence contract.**  For every spec the kernel accepts
(:func:`plan_batched` returns a model), the per-replication results are
*bit-identical* to the scalar engine run with the same seeds:

* Each replication owns ``SeedSequence(seed)``; failure generators are
  spawned up front for every positive-rate component in registration
  order — exactly the spawn order the scalar engine's first-use stream
  creation produces during initial clock scheduling — and repair
  generators are spawned lazily at each component's first repair draw, in
  chronological order.
* Standard-exponential variates are buffered in fixed blocks and scaled by
  the mean at consumption time; numpy block draws consume the bit stream
  exactly like repeated scalar draws (see :mod:`repro.sim.rng`), so the
  per-stream variate sequences match the scalar engine element for element.
* Event times, signal integrals, batch values, outage durations, and
  attribution ledgers are computed with the same IEEE-754 operations in the
  same order as the scalar engine, so availabilities, episode counts, and
  attribution totals match with ``==``, not ``approx``.
* Clocks are heap entries ``(time, slot, version)`` — slot ``c`` is
  component ``c``'s failure clock, slot ``n + c`` its repair clock — with
  lazy deletion by per-slot version, so simultaneous clocks fire lowest
  slot first.

The scalar engine additionally pops *stale* events (cancelled clocks whose
epoch moved on); those pops never change state, draw randomness, or alter
recorded values, so the kernel simply never materializes them.  Event
*counts* therefore differ between the engines (the kernel counts live
transitions only) — every measured quantity is unaffected.

**Expressibility.**  The kernel handles the pure exponential fail/repair
dynamics of :func:`repro.sim.controller_sim.build_simulator` under both
restart scenarios: k-of-n quorum signals, dependency-closure masking over
dependency DAGs (in scenario 2 a process depends on its VM *and* its
supervisor), and the scenario-2 supervisor restore hook.  Anything richer
— hazard processes (maintenance windows, correlated bursts) or limited
repair crews — falls back to the scalar engine (see
:func:`inexpressible_reason`).
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.controller.spec import ControllerSpec
from repro.errors import SimulationError
from repro.obs import runtime as obs
from repro.obs import telemetry
from repro.params.hardware import HardwareParams
from repro.params.software import RestartScenario, SoftwareParams
from repro.perf.batching import replication_batch_size
from repro.sim.controller_sim import (
    OutageStatistics,
    SimulationConfig,
    SimulationResult,
    build_simulator,
    plane_signal_keys,
    signal_plan,
)
from repro.sim.entities import ComponentKind
from repro.sim.measures import batch_means_interval, build_attribution
from repro.topology.deployment import DeploymentTopology

__all__ = [
    "BLOCK",
    "SIGNALS",
    "BatchedModel",
    "QuorumCounters",
    "inexpressible_reason",
    "plan_batched",
    "run_batched",
    "validate_batched_mode",
]

#: Buffered standard-exponential block per (replication, component) stream.
#: Block size never changes variate values (numpy block draws consume the
#: bit stream like repeated scalar draws), so a fixed size is safe even
#: though the scalar engine's buffers grow geometrically.
BLOCK = 64

#: Signal evaluation order — matches the scalar engine's registration order.
SIGNALS = ("cp", "sdp", "ldp", "dp")

_BATCHED_MODES = ("auto", "on", "off")


def validate_batched_mode(batched: str) -> str:
    """Check a ``batched=`` knob value, returning it for chaining."""
    if batched not in _BATCHED_MODES:
        raise SimulationError(
            f"batched must be one of {_BATCHED_MODES}, got {batched!r}"
        )
    return batched


def inexpressible_reason(hazards: tuple = (), repair_crews=None) -> str | None:
    """Why a workload cannot run on the batched kernel (``None`` if it can).

    Both restart scenarios and any dependency DAG are expressible; only
    scheduled hazard actions and limited repair crews are not.
    """
    if hazards:
        return f"{len(hazards)} hazard spec(s) attached (scheduled actions)"
    if repair_crews is not None:
        return "limited repair crews (FIFO capacity queueing)"
    return None


class BatchedModel:
    """Frozen flat-list description of one expressible workload.

    Built once per campaign from the same :func:`build_simulator` output the
    scalar engine runs, then shared by every replication.  Per-component
    lists are indexed by the scalar engine's component *registration
    order*, which is what fixes the RNG spawn order.
    """

    __slots__ = (
        "keys",
        "n_components",
        # Clock dynamics.
        "fail_idx",
        "fail_scale",
        "repair_mean",
        "auto_restart",
        "sup",
        "auto_mean",
        # Masking: every component's parents and [self] + dependents
        # closure in topological (parents-before-children) order.
        "parents",
        "cand",
        # Scenario 2: the processes each supervisor's restart restores, in
        # registration order (empty lists in scenario 1).
        "supervised",
        # Counter layout: the quorum instances each component is a member
        # of, each instance's unit, and each unit's quorum / plane (0 cp,
        # 1 sdp, 2 ldp) / instance count.
        "member_of",
        "inst_unit",
        "unit_quorum",
        "unit_plane",
        "unit_size",
        # depth[s][c]: attribution depth of component c for signal s.
        "depth",
    )


def plan_batched(
    spec: ControllerSpec,
    topology: DeploymentTopology,
    hardware: HardwareParams,
    software: SoftwareParams,
    scenario: RestartScenario,
    config: SimulationConfig,
) -> BatchedModel:
    """The kernel's flat-list model of one controller workload.

    Every :func:`build_simulator` workload is expressible; hazards and
    repair crews, which are attached after construction, are screened by
    :func:`inexpressible_reason`.  Builds a probe simulator through the same constructor the scalar path
    uses (cheap — no events run), so component registration order, rates,
    repair means, and dependency closures are definitionally identical
    between the two engines.
    """
    probe = build_simulator(
        spec, topology, hardware, software, scenario, config
    )
    components = list(probe.components.values())
    model = BatchedModel()
    keys = [component.key for component in components]
    index = {key: i for i, key in enumerate(keys)}
    n = len(keys)
    model.keys = tuple(keys)
    model.n_components = n
    model.fail_idx = [
        i for i, component in enumerate(components)
        if component.failure_rate > 0.0
    ]
    # Scaled exactly as the scalar engine's 1.0 / failure_rate mean.
    model.fail_scale = [
        1.0 / component.failure_rate if component.failure_rate > 0.0 else 0.0
        for component in components
    ]
    model.repair_mean = [component.repair_mean for component in components]
    model.auto_restart = [
        component.kind is ComponentKind.PROCESS and component.auto_restart
        for component in components
    ]
    model.sup = [
        index[component.supervisor_key]
        if component.supervisor_key is not None
        else -1
        for component in components
    ]
    model.auto_mean = software.auto_restart_hours
    model.parents = [
        tuple(index[key] for key in component.dependencies)
        for component in components
    ]
    # build_simulator registers every dependency before its dependents, so
    # registration order is topological: sorting a closure by index puts
    # all of a component's parents ahead of it (the engine's DFS closure
    # does not — it lists a VM's processes before their supervisor).
    model.cand = [
        [i] + sorted(index[key] for key in probe._closure[component.key])
        for i, component in enumerate(components)
    ]
    model.supervised = [[] for _ in range(n)]
    if scenario is RestartScenario.REQUIRED:
        for i, component in enumerate(components):
            if component.supervisor_key is not None:
                model.supervised[index[component.supervisor_key]].append(i)

    # Counter layout from the shared declarative plan.  The LDP AND-chain
    # rides along as one 1-instance unit with quorum 1.
    plan = signal_plan(spec, topology)
    units = [
        (plane, quorum, per_instance)
        for plane, plane_name in ((0, "cp"), (1, "dp"))
        for quorum, per_instance in plan["plane_units"][plane_name]
    ]
    units.append((2, 1, [plan["local_keys"]]))
    member_of: list[list[int]] = [[] for _ in range(n)]
    model.inst_unit = []
    model.unit_quorum = []
    model.unit_plane = []
    model.unit_size = []
    for unit, (plane, quorum, per_instance) in enumerate(units):
        model.unit_quorum.append(quorum)
        model.unit_plane.append(plane)
        model.unit_size.append(len(per_instance))
        for member_keys in per_instance:
            for key in member_keys:
                member_of[index[key]].append(len(model.inst_unit))
            model.inst_unit.append(unit)
    model.member_of = [tuple(instances) for instances in member_of]

    # Attribution depths: depth[s][c] is the shortest dependents-closure
    # distance from component c to signal s's declared dependency set (the
    # scalar engine's `_depth_map` + `_stamp_outage_cause` rule), or -1
    # when unreachable (the scalar fallback stamps the edge with depth -1).
    dependents = [
        [index[key] for key in component.dependents]
        for component in components
    ]
    sdp_keys = [index[key] for key in plane_signal_keys(plan, "dp")]
    local = [index[key] for key in plan["local_keys"]]
    declared = (
        [index[key] for key in plane_signal_keys(plan, "cp")],
        sdp_keys,
        local,
        sdp_keys + local,
    )
    model.depth = [[-1] * n for _ in SIGNALS]
    for origin in range(n):
        depths = {origin: 0}
        frontier = [origin]
        depth = 0
        while frontier:
            depth += 1
            next_frontier = []
            for node in frontier:
                for dependent in dependents[node]:
                    if dependent not in depths:
                        depths[dependent] = depth
                        next_frontier.append(dependent)
            frontier = next_frontier
        for s, decl in enumerate(declared):
            best = -1
            for key_idx in decl:
                d = depths.get(key_idx)
                if d is not None and (best < 0 or d < best):
                    best = d
            model.depth[s][origin] = best

    return model


class QuorumCounters:
    """The plane signals of one replication as incremental k-of-n counters.

    Starts with every component effectively up; :meth:`down` / :meth:`up`
    report one component's effective-state flip and return whether any
    plane's unsatisfied-unit count moved, so callers re-read
    :meth:`states` only when a signal can have changed.
    """

    __slots__ = ("_model", "inst_down", "unit_sat", "plane_bad")

    def __init__(self, model: BatchedModel):
        self._model = model
        self.inst_down = [0] * len(model.inst_unit)
        self.unit_sat = list(model.unit_size)
        self.plane_bad = [0, 0, 0]
        for plane, quorum, size in zip(
            model.unit_plane, model.unit_quorum, model.unit_size
        ):
            if size < quorum:
                self.plane_bad[plane] += 1

    def down(self, c: int) -> bool:
        """Component ``c`` went effectively down."""
        model = self._model
        inst_down = self.inst_down
        moved = False
        for i in model.member_of[c]:
            inst_down[i] += 1
            if inst_down[i] == 1:
                u = model.inst_unit[i]
                self.unit_sat[u] -= 1
                if self.unit_sat[u] == model.unit_quorum[u] - 1:
                    self.plane_bad[model.unit_plane[u]] += 1
                    moved = True
        return moved

    def up(self, c: int) -> bool:
        """Component ``c`` came back effectively up."""
        model = self._model
        inst_down = self.inst_down
        moved = False
        for i in model.member_of[c]:
            inst_down[i] -= 1
            if not inst_down[i]:
                u = model.inst_unit[i]
                self.unit_sat[u] += 1
                if self.unit_sat[u] == model.unit_quorum[u]:
                    self.plane_bad[model.unit_plane[u]] -= 1
                    moved = True
        return moved

    def states(self) -> list[bool]:
        """``[cp, sdp, ldp, dp]`` — the :data:`SIGNALS` order."""
        bad = self.plane_bad
        sdp = not bad[1]
        ldp = not bad[2]
        return [not bad[0], sdp, ldp, sdp and ldp]


def _run_replication(
    model: BatchedModel,
    seed: int,
    horizon: float,
    boundaries: list[float],
) -> tuple[SimulationResult, int]:
    """One replication through the event loop (the scalar ``run``)."""
    n = model.n_components
    batches = len(boundaries)
    fail_scale = model.fail_scale
    repair_mean = model.repair_mean
    auto_restart = model.auto_restart
    sup = model.sup
    auto_mean = model.auto_mean
    parents = model.parents
    supervised = model.supervised
    cand = model.cand
    member_of = model.member_of
    heappush = heapq.heappush
    heappop = heapq.heappop

    # Failure generators spawn up front in registration order — the scalar
    # engine's initial-scheduling stream-creation order.
    root = np.random.SeedSequence(int(seed))
    fail_gens: list = [None] * n
    fail_bufs: list = [None] * n
    fail_at = [BLOCK] * n
    repair_gens: list = [None] * n
    repair_bufs: list = [None] * n
    repair_at = [BLOCK] * n
    version = [0] * (2 * n)
    heap = []
    for c, child in zip(model.fail_idx, root.spawn(len(model.fail_idx))):
        generator = np.random.default_rng(child)
        fail_gens[c] = generator
        fail_bufs[c] = block = generator.standard_exponential(BLOCK).tolist()
        fail_at[c] = 1
        heap.append((block[0] * fail_scale[c], c, 0))
    heapq.heapify(heap)

    intr = [True] * n
    eff = [True] * n
    eff_at = eff.__getitem__
    counters = QuorumCounters(model)
    down = counters.down
    up_flip = counters.up
    state = counters.states()
    n_sig = len(SIGNALS)
    outage_start: list = [None if s else 0.0 for s in state]
    open_cause: list = [None] * n_sig
    durations: list[list[float]] = [[] for _ in range(n_sig)]
    causes: list[list] = [[] for _ in range(n_sig)]
    batch_vals: list[list[float]] = [[] for _ in range(n_sig)]

    # Signal states and up-time integrals as plain locals (the hot path
    # touches each once per event), in the SIGNALS order.
    cp, sdp, ldp, dp = state
    up_cp = up_sdp = up_ldp = up_dp = 0.0
    prev_cp = prev_sdp = prev_ldp = prev_dp = 0.0
    last = 0.0
    total = 0.0
    prev_total = 0.0

    b = 0
    gate = min(boundaries[0], horizon)
    events = 0
    while True:
        while heap:
            t, slot, ver = heappop(heap)
            if version[slot] == ver:
                break
        else:
            t = float("inf")
        if t >= gate:
            # Record crossed boundaries (the scalar `_record_batch`); stop
            # before an event at or after the horizon, recording every
            # remaining boundary.
            stop = t >= horizon
            while b < batches and (stop or t >= boundaries[b]):
                boundary = boundaries[b]
                elapsed = boundary - last
                total += elapsed
                if cp:
                    up_cp += elapsed
                if sdp:
                    up_sdp += elapsed
                if ldp:
                    up_ldp += elapsed
                if dp:
                    up_dp += elapsed
                last = boundary
                batch_total = total - prev_total
                if batch_total > 0:
                    batch_vals[0].append((up_cp - prev_cp) / batch_total)
                    batch_vals[1].append((up_sdp - prev_sdp) / batch_total)
                    batch_vals[2].append((up_ldp - prev_ldp) / batch_total)
                    batch_vals[3].append((up_dp - prev_dp) / batch_total)
                prev_cp, prev_sdp = up_cp, up_sdp
                prev_ldp, prev_dp = up_ldp, up_dp
                prev_total = total
                b += 1
            if stop:
                break
            gate = min(boundaries[b], horizon) if b < batches else horizon

        moved = False
        if slot < n:
            # Failure: the component and every effectively-up member of
            # its dependents closure go down; their failure clocks cancel.
            c = slot
            intr[c] = False
            for d in cand[c]:
                if eff[d]:
                    eff[d] = False
                    version[d] += 1
                    if member_of[d] and down(d):
                        moved = True
            # AUTO processes restart in R while their supervisor is
            # effectively up, R_S otherwise; everything else uses its
            # stored repair mean.
            supervisor = sup[c]
            if auto_restart[c] and (supervisor < 0 or eff[supervisor]):
                mean = auto_mean
            else:
                mean = repair_mean[c]
            k = repair_at[c]
            if k == BLOCK:
                generator = repair_gens[c]
                if generator is None:
                    generator = np.random.default_rng(root.spawn(1)[0])
                    repair_gens[c] = generator
                repair_bufs[c] = generator.standard_exponential(BLOCK).tolist()
                k = 0
            repair_at[c] = k + 1
            heappush(
                heap, (t + repair_bufs[c][k] * mean, n + c, version[n + c])
            )
        else:
            # Repair: when the component comes back effectively up, it and
            # every now-unmasked dependent (parents first) redraw a
            # failure clock — memorylessness makes the resample exact.
            c = slot - n
            intr[c] = True
            up_now = all(map(eff_at, parents[c]))
            for p in supervised[c]:
                if not intr[p]:
                    # Scenario-2 restore: the restarted supervisor brings
                    # its repairing process up and cancels the process's
                    # repair.  The scalar engine draws the process a
                    # failure clock here when it is effectively up, which
                    # the subtree pass below cancels and redraws — so
                    # the first variate is consumed and discarded.
                    intr[p] = True
                    version[n + p] += 1
                    if up_now and all(eff[q] or q == c for q in parents[p]):
                        fail_at[p] += 1
            if up_now:
                for d in cand[c]:
                    if d != c and not (
                        intr[d] and all(map(eff_at, parents[d]))
                    ):
                        continue
                    eff[d] = True
                    if member_of[d] and up_flip(d):
                        moved = True
                    scale = fail_scale[d]
                    if scale:
                        # A restore's discard may have stepped one past
                        # the end of the block.
                        k = fail_at[d]
                        if k >= BLOCK:
                            fail_bufs[d] = (
                                fail_gens[d]
                                .standard_exponential(BLOCK)
                                .tolist()
                            )
                            k -= BLOCK
                        fail_at[d] = k + 1
                        heappush(
                            heap,
                            (t + fail_bufs[d][k] * scale, d, version[d]),
                        )

        # Signal integration (the scalar `_refresh_signals`) over the
        # pre-event states, then episode bookkeeping for any flip.
        elapsed = t - last
        total += elapsed
        if cp:
            up_cp += elapsed
        if sdp:
            up_sdp += elapsed
        if ldp:
            up_ldp += elapsed
        if dp:
            up_dp += elapsed
        last = t
        if moved:
            state = (cp, sdp, ldp, dp)
            new_state = counters.states()
            for s in range(n_sig):
                if new_state[s] == state[s]:
                    continue
                if state[s]:
                    # Up -> down: open an episode, charged to the failing
                    # component at its closure depth.
                    outage_start[s] = t
                    if slot < n:
                        open_cause[s] = (
                            model.keys[c], "stochastic", model.depth[s][c]
                        )
                    else:  # pragma: no cover - repairs cannot mask
                        open_cause[s] = None
                else:
                    # Down -> up: close the episode.
                    if outage_start[s] is not None:
                        durations[s].append(t - outage_start[s])
                        causes[s].append(open_cause[s])
                    outage_start[s] = None
                    open_cause[s] = None
            cp, sdp, ldp, dp = new_state
        events += 1
        # The event that crosses the final boundary is the last executed.
        if b >= batches:
            break

    # -- result assembly (the scalar `collect_result`) ------------------------
    up = (up_cp, up_sdp, up_ldp, up_dp)
    intervals = {}
    outages = {}
    attribution = {}
    availability = {}
    for s, name in enumerate(SIGNALS):
        if len(batch_vals[s]) >= 2:
            intervals[name] = batch_means_interval(batch_vals[s])
        episode_durations = durations[s]
        count = len(episode_durations)
        outages[name] = OutageStatistics(
            count=count,
            frequency_per_hour=count / total,
            mean_duration_hours=(
                sum(episode_durations) / count if count else 0.0
            ),
        )
        open_duration = None
        if outage_start[s] is not None:
            open_duration = last - outage_start[s]
        attribution[name] = build_attribution(
            name,
            episode_durations,
            causes[s],
            open_cause=open_cause[s],
            open_duration=open_duration,
        )
        availability[name] = up[s] / total
    result = SimulationResult(
        cp=availability["cp"],
        shared_dp=availability["sdp"],
        local_dp=availability["ldp"],
        dp=availability["dp"],
        intervals=intervals,
        outages=outages,
        horizon_hours=horizon,
        attribution=attribution,
    )
    return result, events


def _run_chunk(
    model: BatchedModel,
    seeds: list[int],
    horizon: float,
    batches: int,
) -> list[tuple[SimulationResult, int]]:
    """Run one chunk of replications, one event loop per seed."""
    boundaries = [horizon * (i + 1) / batches for i in range(batches)]
    return [
        _run_replication(model, seed, horizon, boundaries) for seed in seeds
    ]


def run_batched(
    model: BatchedModel,
    seeds: list[int],
    horizon: float,
    batches: int,
) -> list[tuple[SimulationResult, int]]:
    """Run one replication per seed on the batched kernel.

    Returns ``(result, live_event_count)`` pairs in seed order.  Seeds are
    dispatched in chunks (:func:`repro.perf.batching.replication_batch_size`)
    that pace progress reporting: one ``progress`` telemetry event is
    emitted per chunk, mirroring the scalar dispatcher.
    """
    if horizon <= 0:
        raise SimulationError(f"horizon must be > 0, got {horizon}")
    if batches < 1:
        raise SimulationError(f"batches must be >= 1, got {batches}")
    if not seeds:
        return []
    chunk_rows = replication_batch_size(len(seeds), model.n_components)
    tracker = (
        telemetry.ProgressTracker(len(seeds))
        if telemetry.enabled()
        else None
    )
    results: list[tuple[SimulationResult, int]] = []
    for chunk_no, start in enumerate(range(0, len(seeds), chunk_rows)):
        block = list(seeds[start : start + chunk_rows])
        with obs.span(
            "sim.batched.chunk",
            replications=len(block),
            components=model.n_components,
            horizon=horizon,
        ):
            part = _run_chunk(model, block, horizon, batches)
        results.extend(part)
        if tracker is not None:
            chunk_events = sum(count for _, count in part)
            telemetry.emit(
                "progress",
                chunk=chunk_no,
                **tracker.update(
                    completed=len(block), events=int(chunk_events)
                ),
            )
    if obs.enabled():
        obs.count(
            "sim.events", int(sum(count for _, count in results))
        )
    return results
