"""One fresh-process set-up, for ``setup_s``.

``probe.py WORKLOAD SEED SECONDS LIMIT`` imports the program, loads the
registry and generates the inputs exactly as the measured run of an
in-process workload does.  ``probe.py serve ARGS...`` runs
``python -m repro.service serve ARGS...`` and is ready at its first request.
Either way speed samples are taken around and inside the set-up, and the
probe prints ``ready``, its sampling time and the mid-mean of its speed
samples when the set-up is done; the parent times spawn to ready.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

harness.require_program()


def _ready(measurement: harness.Measurement) -> None:
    print("ready", measurement.sampling_s, harness.midmean(measurement.speed),
          flush=True)


def serve(argv) -> int:
    """The service CLI, sampling speed until its first request arrives."""
    from repro.service.__main__ import main
    from repro.service.http import ServiceRequestHandler

    measurement = harness.Measurement()
    measurement.between_ops()
    measurement.start_sampling()
    do_get = ServiceRequestHandler.do_GET

    def first_get(handler):
        if measurement.sampling:
            measurement.stop_sampling()
            _ready(measurement)
        do_get(handler)

    ServiceRequestHandler.do_GET = first_get
    return main(argv)


def prepare(workload: str, seed: str, seconds: str, limit: str) -> None:
    measurement = harness.Measurement()
    measurement.between_ops()
    with measurement.timed():
        module = importlib.import_module(harness.WORKLOADS[workload])
        module.prepare(int(seed), float(seconds), int(limit))
    measurement.between_ops()
    _ready(measurement)


if __name__ == "__main__":
    if sys.argv[1] == "serve":
        sys.exit(serve(sys.argv[1:]))
    prepare(*sys.argv[1:5])
