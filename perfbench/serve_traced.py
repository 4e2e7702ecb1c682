"""Start ``repro-avail serve`` with the layer functions wrapped in spans.

Usage::

    PYTHONPATH=src python3 perfbench/serve_traced.py --spans FILE.json -- \\
        serve --port 0

Everything after ``--`` is passed to ``repro.cli.main``.  The spans stay
in memory while the server runs and are written to ``FILE.json`` once it
has shut down (after SIGINT), together with the server's exit status.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import use_checkout_source  # noqa: E402
from tracer import Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    if "--" not in argv:
        raise SystemExit("usage: serve_traced.py --spans FILE -- serve ...")
    split = argv.index("--")
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args(argv[:split])
    use_checkout_source()

    import layers
    from repro.cli import main as cli_main

    tracer = Tracer()
    layers.install(tracer)
    status = 1
    try:
        status = cli_main(argv[split + 1 :])
    finally:
        tracer.dump(args.spans, {"exit_status": status})
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
