"""The serve_mix request plan and its keep-alive HTTP load generator.

The plan is a pure function of the seed (:func:`build_plan`): a 3-tenant
mix of ~70% ``hw`` queries drawn Zipf-like from a vocabulary about 4x the
server's 256-entry LRU, ~15% ``option`` queries with ``a_rack``
overrides, ~10% ``network`` queries (some naming a reference graph, most posting
a perturbed copy inline, some inline ones asked twice in a row) and ~5% tiny campaign jobs.

:func:`open_loop` sends request *i* when it is due (``i / rate`` seconds
after the start) over at most ``connections`` keep-alive connections and
times it from its *due* time, so a stall that holds up later requests is
charged to them.  :func:`closed_loop` sends back to back on the same
number of connections and measures capacity.
"""

from __future__ import annotations

import asyncio
import json
import math
import random
import time
from dataclasses import dataclass, field
from typing import Any

from inputs import perturbed_graph

#: Distinct hw parameter tuples: about 4x the server's 256-entry LRU.
HW_VOCABULARY = 1024
#: Zipf exponent of the hw key popularity.
HW_ZIPF = 1.2
HW_MODELS = ("small", "medium", "large")
OPTIONS = ("1S", "2S", "1L", "2L")
#: Distinct ``a_rack`` overrides of option queries.
OPTION_RACKS = 8
#: Network query targets: (reference graph, posted inline?).  Inline
#: queries post a perturbed copy, so each one misses the cache; named ones
#: mostly hit.  ``ring`` is only posted inline: a named ring miss costs
#: ~100 ms, and how often the LRU evicts one would make the served tail a
#: property of the eviction order rather than of the serving layers.
#: ``backbone`` and ``two_tier`` are left out: one cold query on them costs
#: 0.5 s to minutes.
NETWORK_TARGETS = (
    ("line", False),
    ("fat_tree", False),
    ("line", True),
    ("fat_tree", True),
    ("ring", True),
)
#: Every this-many-th inline ``ring`` what-if is asked again at once by
#: another tenant (two dashboards on one what-if): the twin arrives while
#: the first computes, so the single-flight cache coalesces it.
TWIN_EVERY = 2
TENANTS = 3
MIX = (("hw", 0.70), ("option", 0.15), ("network", 0.10), ("job", 0.05))
JOB_REPLICATIONS = 2
JOB_HORIZON_HOURS = 20.0
JOB_POLL_SECONDS = 0.01


def _availability(rng: random.Random) -> float:
    return round(1.0 - 10 ** rng.uniform(-5.0, -2.0), 9)


def build_vocabulary(seed: int) -> dict[str, Any]:
    """The seed's hw keys (rank order = popularity), racks and graphs."""
    rng = random.Random(f"vocabulary-{seed}")
    hw = []
    for _ in range(HW_VOCABULARY):
        hw.append(
            {
                "kind": "hw",
                "model": rng.choice(HW_MODELS),
                "a_role": _availability(rng),
                "a_vm": _availability(rng),
                "a_host": _availability(rng),
                "a_rack": _availability(rng),
            }
        )
    racks = [_availability(rng) for _ in range(OPTION_RACKS)]
    return {"hw": hw, "racks": racks}


def _balanced(rng: random.Random, values: list, count: int) -> list:
    """``count`` items cycling through ``values`` equally, then shuffled.

    Exact shares (not independent draws) keep the work in a plan nearly
    the same from seed to seed, so run-to-run spread measures the program,
    not the luck of the mix.
    """
    items = [values[i % len(values)] for i in range(count)]
    rng.shuffle(items)
    return items


def build_plan(seed: int, count: int, phase: str) -> list[dict[str, Any]]:
    """``count`` requests of the mix; identical for identical arguments."""
    from repro.topology.network_reference import reference_network

    vocabulary = build_vocabulary(seed)
    rng = random.Random(f"plan-{seed}-{phase}")
    weights = [1.0 / (rank + 1) ** HW_ZIPF for rank in range(HW_VOCABULARY)]
    shares = {kind: round(count * weight) for kind, weight in MIX}
    shares["hw"] += count - sum(shares.values())
    kinds = _balanced(
        rng, [kind for kind, share in shares.items() for _ in range(share)], count
    )
    graphs = {name: reference_network(name) for name, _ in NETWORK_TARGETS}
    network_targets = iter(
        _balanced(rng, list(NETWORK_TARGETS), shares["network"])
    )
    job_options = iter(_balanced(rng, list(OPTIONS), shares["job"]))
    plan: list[dict[str, Any]] = []
    for index, kind in enumerate(kinds):
        tenant = f"tenant-{rng.randrange(TENANTS)}"
        if kind == "hw":
            payload = dict(rng.choices(vocabulary["hw"], weights=weights)[0])
            path = "/v1/query"
        elif kind == "option":
            payload = {
                "kind": "option",
                "option": rng.choice(OPTIONS),
                "a_rack": rng.choice(vocabulary["racks"]),
            }
            path = "/v1/query"
        elif kind == "network":
            name, inline = next(network_targets)
            graph = graphs[name]
            switch = rng.choice(graph.switches)
            target: Any = (
                perturbed_graph(graph, rng).to_dict() if inline else name
            )
            payload = {"kind": "network", "graph": target, "switch": switch}
            path = "/v1/query"
        else:
            payload = {
                "kind": "campaign",
                "spec": {
                    "option": next(job_options),
                    "horizon_hours": JOB_HORIZON_HOURS,
                    "replications": JOB_REPLICATIONS,
                    "seed": rng.randrange(1 << 16),
                },
            }
            path = "/v1/jobs"
        plan.append(
            {
                "index": index,
                "kind": kind,
                "tenant": tenant,
                "path": path,
                "body": json.dumps(payload).encode("utf-8"),
                "payload": payload,
            }
        )
    rings = 0
    for index, item in enumerate(plan[:-1]):
        graph = item["payload"].get("graph")
        if isinstance(graph, dict) and graph["name"].startswith("ring"):
            rings += 1
            if rings % TWIN_EVERY == 0 and plan[index + 1]["kind"] == "hw":
                tenant = f"tenant-{(int(item['tenant'][-1]) + 1) % TENANTS}"
                plan[index + 1] = dict(item, index=index + 1, tenant=tenant)
    return plan


# -- HTTP/1.1 keep-alive client ------------------------------------------------


class Connection:
    """One keep-alive HTTP/1.1 connection to the server."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def request(
        self,
        method: str,
        path: str,
        body: bytes = b"",
        tenant: str | None = None,
    ) -> tuple[int, bytes]:
        if self.writer is None:
            await self.open()
        assert self.reader is not None and self.writer is not None
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}\r\n"
            f"Content-Length: {len(body)}\r\n"
            + (f"X-Tenant: {tenant}\r\n" if tenant else "")
            + "Connection: keep-alive\r\n\r\n"
        )
        self.writer.write(head.encode("latin-1") + body)
        await self.writer.drain()
        status_line = await self.reader.readline()
        parts = status_line.split()
        if len(parts) < 2 or not parts[1].isdigit():
            raise ConnectionError(f"bad status line {status_line!r}")
        length = 0
        keep_alive = True
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value.strip())
            elif name == "connection" and value.strip().lower() == "close":
                keep_alive = False
        payload = await self.reader.readexactly(length) if length else b""
        if not keep_alive:
            await self.close()
        return int(parts[1]), payload

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self.reader = self.writer = None


@dataclass
class Outcome:
    """One plan item as the client saw it (times from ``time.perf_counter``)."""

    index: int
    due: float
    sent: float = math.nan
    done: float = math.nan
    status: int = 0
    body: bytes = b""
    error: str | None = None

    @property
    def latency(self) -> float:
        """Seconds from due to response; ``inf`` when it never answered."""
        if self.error is not None or math.isnan(self.done):
            return math.inf
        return self.done - self.due


@dataclass
class PhaseResult:
    outcomes: list[Outcome] = field(default_factory=list)
    wall_seconds: float = 0.0


async def _drive(
    connections: list[Connection],
    plan: list[dict[str, Any]],
    rate: float | None,
    timeout: float,
) -> PhaseResult:
    outcomes = [Outcome(index=item["index"], due=math.nan) for item in plan]
    cursor = iter(range(len(plan)))
    started = time.perf_counter()

    async def worker(connection: Connection) -> None:
        for position in cursor:
            item = plan[position]
            outcome = outcomes[position]
            if rate is None:
                outcome.due = time.perf_counter()
            else:
                outcome.due = started + position / rate
                delay = outcome.due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
            outcome.sent = time.perf_counter()
            try:
                outcome.status, outcome.body = await asyncio.wait_for(
                    connection.request(
                        "POST", item["path"], item["body"], item["tenant"]
                    ),
                    timeout,
                )
            except (OSError, ConnectionError, asyncio.TimeoutError,
                    asyncio.IncompleteReadError, ValueError) as error:
                outcome.error = f"{type(error).__name__}: {error}"
                await connection.close()
                continue
            if rate is None and outcome.status == 202:
                # A closed-loop caller waits for its job's result, so the
                # phase never holds more than one job per connection.
                try:
                    await asyncio.wait_for(
                        _await_job(connection, outcome.body), timeout
                    )
                except (OSError, ConnectionError, asyncio.TimeoutError,
                        asyncio.IncompleteReadError, ValueError) as error:
                    outcome.error = f"{type(error).__name__}: {error}"
                    await connection.close()
                    continue
            outcome.done = time.perf_counter()

    await asyncio.gather(*(worker(connection) for connection in connections))
    return PhaseResult(outcomes, time.perf_counter() - started)


async def _await_job(connection: Connection, accepted: bytes) -> None:
    job_id = json.loads(accepted)["id"]
    while True:
        status, body = await connection.request("GET", f"/v1/jobs/{job_id}")
        if status != 200 or json.loads(body).get("state") in ("done", "failed"):
            return
        await asyncio.sleep(JOB_POLL_SECONDS)


async def open_loop(
    connections: list[Connection],
    plan: list[dict[str, Any]],
    rate: float,
    timeout: float = 30.0,
) -> PhaseResult:
    """Send each item at its due time; time it from that due time."""
    return await _drive(connections, plan, rate, timeout)


async def closed_loop(
    connections: list[Connection],
    plan: list[dict[str, Any]],
    timeout: float = 30.0,
) -> PhaseResult:
    """Send back to back: each connection's next request after its reply.

    A job's reply is its finished status, polled on the same connection.
    """
    return await _drive(connections, plan, None, timeout)
