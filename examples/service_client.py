#!/usr/bin/env python3
"""Quickstart: the evaluation service's HTTP/JSON API.

Boots the evaluation service with its stdlib HTTP server on a free local
port, then talks to it the way any remote client would — pure
:mod:`http.client`, no library imports from the reproduction on the client
side of the wire:

1. ``GET /scenarios`` — discover what the registry can evaluate,
2. ``POST /jobs`` — submit a scenario evaluation (twice, to show identical
   submissions coalescing onto one computation),
3. ``GET /jobs/<id>?wait=`` — long-poll until the shared job succeeds (the
   server holds the reply instead of the client busy-polling),
4. ``POST /jobs`` with a JSON *list* — a whole batch as one job,
5. ``GET /stats`` — queue/store/worker/journal/analysis-cache counters.

Against a long-running server (``python -m repro.service serve``), skip the
in-process boot and point ``HOST``/``PORT`` at it; the client half of this
file is unchanged.

Run with:  python examples/service_client.py
"""

import http.client
import json
import threading

from repro.service import EvaluationService
from repro.service.http import create_server

SCENARIO = "ecg-wearable"


def request(address, method, path, payload=None):
    """One JSON round-trip against the service."""
    connection = http.client.HTTPConnection(*address, timeout=120)
    try:
        body = None if payload is None else json.dumps(payload)
        headers = {"Content-Type": "application/json"} if body else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        connection.close()


def main():
    # -- boot: service + HTTP API on a free port (port 0) -------------------
    service = EvaluationService(workers=2)
    server = create_server(service, port=0)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    address = server.server_address[:2]
    print(f"service on http://{address[0]}:{address[1]}\n")

    try:
        # -- 1. discover scenarios ------------------------------------------
        _, listing = request(address, "GET", "/scenarios")
        print(f"{len(listing['scenarios'])} registered scenarios:")
        for row in listing["scenarios"]:
            print(f"  {row['name']:16s} [{row['kind']}] {row['title']}")

        # -- 2. submit the same evaluation twice ----------------------------
        _, first = request(address, "POST", "/jobs",
                           {"scenario": SCENARIO, "priority": 1})
        _, second = request(address, "POST", "/jobs", {"scenario": SCENARIO})
        print(f"\nsubmitted {SCENARIO!r} twice: job ids "
              f"{first['id']} and {second['id']} "
              f"({'shared' if first['id'] == second['id'] else 'distinct'}, "
              f"{second['submissions']} submissions)")

        # -- 3. long-poll the shared job ------------------------------------
        document = first
        while document["state"] in ("pending", "running"):
            # The server holds the reply until the job is terminal (or its
            # per-request cap elapses), so no sleep/poll loop is needed.
            _, document = request(address, "GET",
                                  f"/jobs/{first['id']}?wait=30")
        print(f"job {document['id']}: {document['state']}")
        summary = document["result"]
        print(f"  {summary['title']}: energy "
              f"{summary['baseline_energy_j']:.6g} J -> "
              f"{summary['teamplay_energy_j']:.6g} J "
              f"({summary['energy_improvement_pct']:+.1f}%), deadline "
              f"{'met' if summary['deadlines_met'] else 'MISSED'}")

        # -- 4. a batch: several requests as one job ------------------------
        _, batch = request(address, "POST", "/jobs",
                           [{"scenario": SCENARIO},
                            {"scenario": "smart-meter"}])
        while batch["state"] in ("pending", "running"):
            _, batch = request(address, "GET",
                               f"/jobs/{batch['id']}?wait=30")
        names = [row["name"] for row in batch["result"]["batch"]]
        print(f"batch job {batch['id']}: {batch['state']} "
              f"({batch['result']['count']} results: {', '.join(names)})")

        # -- 5. service counters --------------------------------------------
        _, stats = request(address, "GET", "/stats")
        queue = stats["queue"]
        print(f"\nqueue: {queue['submitted']} submitted, "
              f"{queue['deduplicated']} deduplicated, "
              f"{queue['succeeded']} computed")
        print(f"store: {stats['store']['entries']} reusable jobs, "
              f"{stats['store']['hits']} hits")
        print(f"analysis cache: {stats['analysis_cache']['platforms']}")
    finally:
        server.shutdown()
        server.server_close()
        service.close()


if __name__ == "__main__":
    main()
