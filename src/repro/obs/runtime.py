"""The global observability runtime — zero-cost when disabled.

Instrumented code never holds a tracer or registry directly; it calls the
module-level helpers here (:func:`span`, :func:`count`, :func:`gauge`,
:func:`observe`, :func:`note_solver`, :func:`annotate`).  When no
:class:`ObsSession` is active — the default — every helper is a single
``None`` check returning a shared no-op object, so the hot paths (exact
engine evaluations, Monte-Carlo chunks, simulator event loops) pay
effectively nothing; the acceptance bench bounds the disabled-mode overhead
of the 10k-sample Monte-Carlo run below 5%.

Instrumentation is *observational only*: no helper touches random state or
feeds back into model code, so an instrumented run is bit-identical to an
uninstrumented one (enforced by ``tests/test_obs_determinism.py``).

Typical session::

    from repro.obs import runtime as obs

    session = obs.start("sweep-study")
    with obs.span("sweep", points=2001):
        result = fig3_series_vectorized(hardware, points=2001)
    manifest = session.build_manifest(arguments={"points": 2001})
    obs.stop()
    manifest.write("trace.json")

Worker processes spawned by the parallel runners inherit nothing: a child
process starts with the runtime disabled, which keeps chunk evaluation
identical no matter where it runs.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, Mapping

from repro.errors import ObservabilityError
from repro.obs.manifest import PhaseTiming, RunManifest
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

__all__ = [
    "ObsSession",
    "start",
    "stop",
    "active",
    "enabled",
    "session",
    "span",
    "count",
    "gauge",
    "observe",
    "note_solver",
    "annotate",
]


class ObsSession:
    """One instrumented run: a tracer, a metrics registry, and provenance."""

    def __init__(self, command: str = ""):
        self.command = command
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()
        self.solver_path: list[str] = []
        self.annotations: dict[str, Any] = {}

    def note_solver(self, label: str) -> None:
        """Record that an evaluation route was exercised (order-preserving)."""
        if label not in self.solver_path:
            self.solver_path.append(label)

    def annotate(self, key: str, value: Any) -> None:
        """Attach provenance (topology name, seed material) to the session."""
        self.annotations[key] = value

    def build_manifest(
        self,
        arguments: Mapping[str, Any] | None = None,
        topology: str | None = None,
        seed: Mapping[str, Any] | None = None,
    ) -> RunManifest:
        """Assemble the :class:`RunManifest` for everything recorded so far.

        ``topology``/``seed`` fall back to the session annotations
        (``"topology"`` and any ``"seed.*"`` keys) that instrumented layers
        recorded during the run.
        """
        if topology is None:
            annotated = self.annotations.get("topology")
            topology = annotated if isinstance(annotated, str) else None
        seed_material = {
            key.split(".", 1)[1]: value
            for key, value in self.annotations.items()
            if key.startswith("seed.")
        }
        seed_material.update(dict(seed or {}))
        phases = tuple(
            PhaseTiming(name=root.name, seconds=root.duration)
            for root in self.tracer.roots()
        )
        return RunManifest.build(
            command=self.command,
            arguments=arguments,
            topology=topology,
            seed=seed_material,
            solver_path=tuple(self.solver_path),
            phases=phases,
            metrics=self.metrics.snapshot(),
            spans=tuple(span.to_dict() for span in self.tracer.spans),
        )


class _NullSpan:
    """Shared no-op context manager returned while the runtime is disabled."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN = _NullSpan()
_session: ObsSession | None = None


def start(command: str = "") -> ObsSession:
    """Activate a fresh session; raises if one is already active."""
    global _session
    if _session is not None:
        raise ObservabilityError(
            "an observability session is already active; stop() it first"
        )
    _session = ObsSession(command)
    return _session


def stop() -> ObsSession | None:
    """Deactivate and return the current session (``None`` if inactive)."""
    global _session
    finished, _session = _session, None
    return finished


def active() -> ObsSession | None:
    """The current session, or ``None``."""
    return _session


def enabled() -> bool:
    """True while a session is active (instrumentation is recording)."""
    return _session is not None


@contextmanager
def session(command: str = "") -> Iterator[ObsSession]:
    """``with session("study") as s: ...`` — start/stop bracketed."""
    current = start(command)
    try:
        yield current
    finally:
        stop()


# -- hot-path helpers (no-ops while disabled) ----------------------------------


def span(name: str, **attrs: Any):
    """A timed span under the active tracer, or a shared no-op."""
    current = _session
    if current is None:
        return _NULL_SPAN
    return current.tracer.span(name, **attrs)


def count(name: str, amount: float = 1.0) -> None:
    """Increment a counter (no-op while disabled)."""
    current = _session
    if current is not None:
        current.metrics.counter(name).increment(amount)


def gauge(name: str, value: float) -> None:
    """Set a gauge (no-op while disabled)."""
    current = _session
    if current is not None:
        current.metrics.gauge(name).set(value)


def observe(name: str, value: float) -> None:
    """Record a duration in a timing histogram (no-op while disabled)."""
    current = _session
    if current is not None:
        current.metrics.histogram(name).observe(value)


def note_solver(label: str) -> None:
    """Record the evaluation route on the active session's solver path."""
    current = _session
    if current is not None:
        current.note_solver(label)


def annotate(key: str, value: Any) -> None:
    """Attach provenance to the active session (no-op while disabled)."""
    current = _session
    if current is not None:
        current.annotate(key, value)
