"""Run ``repro serve`` with the benchmark's span wrappers installed.

Usage: ``python3 perfbench/traced_serve.py <trace_dir> serve [args...]``.
The wrappers go in before the CLI builds the daemon, and the daemon's
spans are written to ``<trace_dir>`` when it shuts down.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer, install_counting, install_spans  # noqa: E402


def main(argv: list[str]) -> int:
    from repro.cli import main as repro_main

    tracer = Tracer(argv[1])
    install_counting(tracer)
    install_spans(tracer, service=True)
    try:
        return repro_main(argv[2:])
    finally:
        tracer.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv))
