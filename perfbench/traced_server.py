"""``python -m repro.service`` with the benchmark's layer wrappers installed.

Usage: ``traced_server.py TRACE_OUT serve ...``.  The spans and counters the
server collected are written to ``TRACE_OUT`` as JSON when it exits (the
benchmark stops it with SIGINT).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

harness.require_program()

from tracing import Tracer, install  # noqa: E402


def main() -> int:
    tracer = Tracer()
    install(tracer, service=True)
    from repro.service.__main__ import main as service_main
    try:
        return service_main(sys.argv[2:])
    finally:
        Path(sys.argv[1]).write_text(json.dumps(tracer.export()))


if __name__ == "__main__":
    sys.exit(main())
