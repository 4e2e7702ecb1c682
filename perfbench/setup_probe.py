"""Set-up probe: import, warm up and print ``ready <cpu seconds>``, then exit.

Usage: ``python3 perfbench/setup_probe.py campaigns|network_study``.  The
CPU seconds are this process's and its workers' from launch to ``ready``,
so set-up covers interpreter start, imports and the workload's warm-up:
the worker pool and a first compile for ``campaigns``, the reference
graphs and a first path compile for ``network_study``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402


def main(workload: str) -> int:
    common.use_checkout_source()
    if workload == "campaigns":
        import campaigns

        campaigns.warm_up(common.CONCURRENCY)
    elif workload == "network_study":
        import network_study

        network_study.warm_up()
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    print("ready", common.process_cpu_seconds(os.getpid()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
