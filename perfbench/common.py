"""Shared pieces of the benchmark: metric names, statistics, provenance.

Everything here is stdlib-only so it imports before the program does; a
workload module imports ``repro`` itself, from the checkout's ``src``.
"""

from __future__ import annotations

import json
import math
import os
import platform
import re
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Iterable, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Span dumps and server logs of a run (ignored by git).
OUT = ROOT / ".perfbench_out"

NPROC = os.cpu_count() or 1
#: Connections (serve_mix) or workers (campaigns) a workload may use.
CONCURRENCY = min(NPROC, 2)

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: End-to-end metrics, reported by every untraced run: (name, unit).  The
#: times are CPU time of the program's processes (:func:`process_cpu_seconds`),
#: not wall time: on a shared host the wall time of the same work swings by
#: 2x with the CPU the host steals, and the CPU time does not.
END_TO_END: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("cpu_ms_per_op", "ms"),
)

#: Per-layer metrics, reported by every traced run: (name, unit).  A layer
#: a workload never calls reads 0.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("trace.overhead_ratio", "ratio"),
    ("loadgen.late_p99_ms", "ms"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.evictions", "count"),
    ("serve.cache.coalesced", "count"),
    ("serve.batch.mean_size", "count"),
    ("serve.segment.queue_wait_ms", "ms"),
    ("serve.segment.cache_ms", "ms"),
    ("serve.segment.batch_assembly_ms", "ms"),
    ("serve.segment.kernel_compute_ms", "ms"),
    ("serve.segment.other_ms", "ms"),
    ("serve.jobs.queue_wait_ms", "ms"),
    ("serve.jobs.run_ms", "ms"),
    ("serve.admission.shed", "count"),
    ("serve.protocol.read_request_ms", "ms"),
    ("perf.vectorized.hw_kernel_ms", "ms"),
    ("perf.vectorized.hw_rows", "count"),
    ("models.sw_options.evaluate_option_ms", "ms"),
    ("models.sw_options.evaluate_option.calls", "count"),
    ("network.paths.analyze_switch_ms", "ms"),
    ("network.paths.analyze_switch.calls", "count"),
    ("sim.engine.events", "count"),
    ("sim.engine.self_ms", "ms"),
    ("sim.rng.draws", "count"),
    ("sim.rng.ms", "ms"),
    ("sim.events.ops", "count"),
    ("sim.events.ms", "ms"),
    ("sim.events.stale_ratio", "ratio"),
    ("sim.measures.updates", "count"),
    ("sim.measures.update_ms", "ms"),
    ("sim.measures.attribution_ms", "ms"),
    ("sim.batched.plan_ms", "ms"),
    ("sim.batched.run_ms", "ms"),
    ("sim.batched.events_per_s", "1/s"),
    ("faults.hazards.injections", "count"),
    ("faults.crossval.analytic_ms", "ms"),
    ("perf.parallel.speedup", "ratio"),
    ("core.cutsets.ms", "ms"),
    ("core.cutsets.cut_sets", "count"),
    ("core.sdp.compile_ms", "ms"),
    ("core.sdp.terms", "count"),
    ("core.sdp.compiles_per_analysis", "ratio"),
    ("network.batch.compile_ms", "ms"),
    ("network.batch.eval_ms", "ms"),
    ("network.batch.pairs", "count"),
    ("network.placement.ms", "ms"),
    ("network.placement.evaluations", "count"),
    ("network.study.seen_topology_ratio", "ratio"),
)


def measure_setup(workload: str, probes: int) -> dict[str, list[float]]:
    """CPU seconds and wall seconds from launch to ``ready`` of each probe."""
    cpu = []
    wall = []
    for _ in range(probes):
        started = time.perf_counter()
        completed = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            capture_output=True,
            text=True,
            env=subprocess_env(),
            cwd=ROOT,
            timeout=120,
        )
        elapsed = time.perf_counter() - started
        words = completed.stdout.split()
        if completed.returncode != 0 or words[:1] != ["ready"]:
            raise RuntimeError(f"set-up probe failed: {completed.stderr[-2000:]}")
        cpu.append(float(words[1]))
        wall.append(elapsed)
    return {"cpu_s": cpu, "wall_s": wall}


# -- CPU time -----------------------------------------------------------------

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def _children_by_parent() -> dict[int, list[int]]:
    children: dict[int, list[int]] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue  # ended meanwhile
        parent = int(stat[stat.rindex(")") + 2 :].split()[1])
        children.setdefault(parent, []).append(int(entry.name))
    return children


def process_cpu_seconds(pid: int) -> float:
    """CPU seconds process ``pid`` and its descendants have run so far.

    Each thread's time on a CPU (``/proc/<pid>/task/*/schedstat``, ns),
    plus the reaped children's ``cutime + cstime``, plus the same for each
    live child.  The kernel charges a thread only while it runs and, with
    paravirtual steal accounting, not for time the host steals from the
    VM, so a busy host does not read as a slower program.
    """
    return _tree_cpu(pid, _children_by_parent())


def _tree_cpu(pid: int, children: dict[int, list[int]]) -> float:
    proc = Path("/proc") / str(pid)
    total = 0.0
    for task in (proc / "task").iterdir():
        try:
            total += int((task / "schedstat").read_text().split()[0]) / 1e9
        except (OSError, ValueError, IndexError):
            continue  # the thread ended meanwhile
    stat = (proc / "stat").read_text()
    fields = stat[stat.rindex(")") + 2 :].split()
    total += (int(fields[13]) + int(fields[14])) / CLOCK_TICKS
    for child in children.get(pid, ()):
        try:
            total += _tree_cpu(child, children)
        except OSError:
            continue  # reaped meanwhile
    return total


def zero_layers() -> dict[str, float]:
    """Every per-layer metric at 0, for the layers a workload never calls."""
    return {name: 0.0 for name, _ in PER_LAYER}


#: One BLAS thread per program process.  OpenBLAS otherwise starts a
#: thread per CPU that spin-waits after each call, and that spinning burns
#: CPU time that depends on what else the host runs, not on the program.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def subprocess_env() -> dict[str, str]:
    """Environment for program subprocesses: the checkout's ``src`` first."""
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])]
    )
    env["PYTHONUNBUFFERED"] = "1"
    # String hashing orders the program's frozensets, and with them some
    # float sums: a fixed hash seed makes two processes comparable bit for
    # bit.
    env["PYTHONHASHSEED"] = "0"
    return env


def use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src`` in this process.

    Call it before anything imports numpy, so :data:`BLAS_ENV` applies.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"no program source at {SRC}; nothing to measure")
    os.environ.update(BLAS_ENV)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# -- statistics ---------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def tail_quantile(count: int, cap: float = 0.99, beyond: int = 10) -> float:
    """The highest quantile, at most ``cap``, with ``beyond`` samples above it.

    Nearest-rank: of ``count`` sorted samples the quantile ``q`` reads
    sample ``ceil(q * count)``, leaving ``count - ceil(q * count)`` beyond.
    """
    if count <= beyond:
        raise ValueError(
            f"{count} samples leave no percentile with {beyond} beyond it"
        )
    return min(cap, (count - beyond) / count)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1]); ``inf`` samples allowed."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(values: Sequence[float], q: float) -> int:
    """How many samples lie strictly after the nearest-rank ``q`` sample."""
    return len(values) - max(1, math.ceil(q * len(values)))


# -- memory -------------------------------------------------------------------


def maxrss_mib(usage: resource.struct_rusage) -> float:
    """``ru_maxrss`` (KiB on Linux) in MiB."""
    return usage.ru_maxrss / 1024.0


def self_and_children_peak_mib() -> float:
    """Largest peak RSS of this process and of its reaped children."""
    return max(
        maxrss_mib(resource.getrusage(resource.RUSAGE_SELF)),
        maxrss_mib(resource.getrusage(resource.RUSAGE_CHILDREN)),
    )


# -- provenance ---------------------------------------------------------------


def _git_sha() -> str:
    head = ROOT / ".git"
    if not head.exists():
        return "unknown (not a git checkout)"
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return completed.stdout.strip() or "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def cpu_times() -> tuple[int, int] | None:
    """(steal, total) CPU jiffies of the host, or ``None`` off Linux.

    The share of steal over a run tells a slow run on a busy host from a
    slow program.
    """
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()[1:]
    except (OSError, IndexError):
        return None
    values = [int(field) for field in fields]
    return (values[7] if len(values) > 7 else 0), sum(values)


def steal_share(before: tuple[int, int] | None) -> float | None:
    after = cpu_times()
    if before is None or after is None or after[1] == before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def provenance() -> dict[str, Any]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "git_sha": _git_sha(),
        "cpu_model": _cpu_model(),
        "cpu_count": NPROC,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


# -- result assembly ----------------------------------------------------------


def check_names(names: Iterable[str]) -> None:
    for name in names:
        if not METRIC_NAME.fullmatch(name):
            raise ValueError(f"metric name {name!r} is not [A-Za-z0-9_.-]+")


def metrics_block(
    values: dict[str, float], spec: Sequence[tuple[str, str]]
) -> dict[str, dict[str, Any]]:
    """``{name: {value, unit}}`` for exactly the names in ``spec``."""
    missing = [name for name, _ in spec if name not in values]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    block = {}
    for name, unit in spec:
        value = float(values[name])
        if math.isnan(value):
            raise ValueError(f"metric {name} is not a number")
        # A failed query is an infinite latency; JSON has no infinity, so
        # a percentile that lands on one reads as the largest float.
        block[name] = {"value": min(value, sys.float_info.max), "unit": unit}
    return block


def emit_result(
    workload: str,
    trace: bool,
    attempted: int,
    failed: int,
    correct: bool,
    values: dict[str, float],
    details: dict[str, Any],
) -> None:
    """Print the human-readable report, then the JSON result line last."""
    spec = PER_LAYER if trace else END_TO_END
    check_names(name for name, _ in spec)
    block = metrics_block(values, spec)
    record = {
        "workload": workload,
        "trace": trace,
        "provenance": provenance(),
        "failed_ratio": failed / attempted if attempted else 1.0,
        "details": details,
    }
    print(json.dumps(record, indent=2, sort_keys=True, default=str))
    for name, entry in block.items():
        print(f"{name:42s} {entry['value']:.6g} {entry['unit']}")
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": block,
            }
        ),
        flush=True,
    )
