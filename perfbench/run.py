"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_mix --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics with tracing off; ``--trace
1`` reports the per-layer metrics from a traced run (plus the tracing
overhead).  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

WORKLOADS = ("serve_mix", "campaigns", "network_study")


def parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv: list[str]) -> int:
    args = parse(argv)
    common.use_checkout_source()
    common.OUT.mkdir(exist_ok=True)
    trace = bool(args.trace)
    cpu_before = common.cpu_times()
    if args.workload == "serve_mix":
        import serve_mix as workload
    elif args.workload == "campaigns":
        import campaigns as workload
    else:
        import network_study as workload
    outcome = workload.run(args.seed, args.seconds, trace)
    checked = outcome["checked"]
    failed = sum(checked["failures"].values())
    common.emit_result(
        workload=args.workload,
        trace=trace,
        attempted=checked["attempted"],
        failed=failed,
        correct=failed == 0,
        values=outcome["values"],
        details={
            **outcome["details"],
            "host_cpu_steal_share": common.steal_share(cpu_before),
        },
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
