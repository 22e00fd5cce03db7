"""``svc-keepalive``: the evaluation service under one keep-alive client.

Server: ``python -m repro.service serve --workers 1`` in a subprocess, with a
fresh ``--journal`` and ``--cache-dir`` for every run.  Client: this process,
on one HTTP/1.1 connection, closed loop.  It POSTs a burst of up to 4
requests, then long-polls each job with ``GET /jobs/<id>?wait=``.  A job's
latency runs from its POST to the first response that shows it finished.

Mix: every run submits the same fresh work: each of 12 light requests
(ecg-wearable, smart-meter, space-spacewire, uav-sar and uav-pa with small
budget overrides) once alone and once inside one of 4 batch jobs, plus the
5 golden scenarios at their default budgets.  All other ops repeat an
earlier request, which the store serves or which joins the identical job
still running.  The seed draws the order, the batches, the burst sizes and
which request each repeat re-sends.  Few ops compute, so the HTTP, queue,
store, journal and persistent-cache layers carry most of the op count.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from harness import (REFERENCE_SPEED_S, ROOT, WORK, Measurement, child_env,
                     peak_rss_mb)
from scenario_sweep import GOLDENS, check_summary, load_goldens

NAME = "svc-keepalive"
UNIT = "finished jobs"
#: Whether the ops run in the benchmark process (timed with speed samples).
IN_PROCESS = False
#: Ops per second of ``--seconds``.
OPS_RATE = 15
BATCH_SIZE = 3
MAX_BURST = 4
WAIT_S = 30
_BANNER = re.compile(r"evaluation service on http://([\d.]+):(\d+)")


def light_requests() -> List[dict]:
    """The 12 distinct light requests with small budget overrides."""
    requests = [{"scenario": name, "generations": 1,
                 "population_size": population}
                for name in ("ecg-wearable", "smart-meter", "space-spacewire")
                for population in (2, 3)]
    requests += [{"scenario": "uav-sar", "profiling_runs": runs}
                 for runs in range(1, 5)]
    requests += [{"scenario": "uav-pa", "profiling_runs": runs}
                 for runs in range(1, 3)]
    return requests


@dataclass
class State:
    #: Bursts of request payloads (a dict, or a list for a batch job).
    bursts: List[List[object]]
    goldens: Dict[str, dict]


def prepare(seed: int, seconds: float, limit: int = 0) -> State:
    rng = random.Random(seed)
    light = light_requests()
    rng.shuffle(light)
    batched = light_requests()
    rng.shuffle(batched)
    fresh: List[object] = list(light)
    fresh += [batched[start:start + BATCH_SIZE]
              for start in range(0, len(batched), BATCH_SIZE)]
    fresh += [{"scenario": name} for name in GOLDENS]
    rng.shuffle(fresh)
    total = limit or max(len(fresh), round(seconds * OPS_RATE))
    sequence: List[object] = []
    sent: List[object] = []
    while len(sequence) < total:
        remaining = total - len(sequence)
        if fresh and (not sent or rng.random() < len(fresh) / remaining):
            payload = fresh.pop()
            sent.append(payload)
        else:
            payload = rng.choice(sent)
        sequence.append(payload)
    bursts = []
    while sequence:
        size = rng.randint(1, MAX_BURST)
        bursts.append(sequence[:size])
        sequence = sequence[size:]
    return State(bursts=bursts, goldens=load_goldens())


# ---------------------------------------------------------------------------
# Server process
# ---------------------------------------------------------------------------
class Server:
    """One ``serve --workers 1`` subprocess with its own journal/cache dir.

    ``traced`` runs it under ``traced_server.py``; ``probe`` under
    ``probe.py serve``, which reports speed samples of its start-up.
    """

    def __init__(self, traced: bool = False, probe: bool = False):
        self.directory = WORK / f"svc-{os.getpid()}-{time.monotonic_ns()}"
        self.directory.mkdir(parents=True)
        self.journal = self.directory / "journal.jsonl"
        self.trace_path = self.directory / "server-trace.json"
        serve = ["serve", "--workers", "1", "--port", "0",
                 "--journal", str(self.journal),
                 "--cache-dir", str(self.directory / "cache")]
        scripts = ROOT / "perfbench"
        if traced:
            argv = [sys.executable, str(scripts / "traced_server.py"),
                    str(self.trace_path)] + serve
        elif probe:
            argv = [sys.executable, str(scripts / "probe.py")] + serve
        else:
            argv = [sys.executable, "-m", "repro.service"] + serve
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE if probe else subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True)
        self.port = self._read_port()

    def _read_port(self) -> int:
        for line in self.process.stderr:
            match = _BANNER.search(line)
            if match:
                return int(match.group(2))
        self.stop()
        raise RuntimeError("server exited before announcing its port")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)

    def wait_ready(self) -> float:
        """Seconds from spawn until the first ``GET /stats`` answered."""
        connection = self.connect()
        try:
            connection.request("GET", "/stats")
            response = connection.getresponse()
            response.read()
            if response.status != 200:
                raise RuntimeError(f"GET /stats answered {response.status}")
        finally:
            connection.close()
        return time.perf_counter() - self.started

    def stop(self) -> Optional[dict]:
        """Interrupt the server, wait for it, and clean its directory.

        Returns the traced server's span export, if it wrote one.
        """
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stderr.close()
        if self.process.stdout is not None:
            self.process.stdout.close()
        trace = None
        if self.trace_path.exists():
            trace = json.loads(self.trace_path.read_text())
        shutil.rmtree(self.directory, ignore_errors=True)
        return trace


def probe_setup_s(seed: int, seconds: float, limit: int = 0) -> float:
    """One set-up: fresh server until ready, plus the client's inputs.

    The server runs under ``probe.py serve``, which samples the speed while
    it starts; its start is normalised like an in-process op.
    """
    started = time.perf_counter()
    prepare(seed, seconds, limit)
    inputs_s = time.perf_counter() - started
    server = Server(probe=True)
    try:
        elapsed = server.wait_ready()
        token, sampling_s, speed = server.process.stdout.readline().split()
    finally:
        server.stop()
    if token != "ready":
        raise RuntimeError(f"server probe printed {token!r}")
    return ((elapsed - float(sampling_s)) * REFERENCE_SPEED_S / float(speed)
            + inputs_s)


# ---------------------------------------------------------------------------
# Client
# ---------------------------------------------------------------------------
class Client:
    """One keep-alive connection; records request spans when traced."""

    def __init__(self, server: Server, tracer=None):
        self.connection = server.connect()
        self.tracer = tracer
        self.requests = 0

    def call(self, method: str, path: str, op: int, payload=None):
        body = None if payload is None else json.dumps(payload)
        headers = {"X-Bench-Op": str(op)}
        if body is not None:
            headers["Content-Type"] = "application/json"
        self.requests += 1
        if self.tracer is None:
            return self._exchange(method, path, body, headers)
        self.tracer.op = op
        with self.tracer.span("client.request"):
            return self._exchange(method, path, body, headers)

    def _exchange(self, method, path, body, headers):
        self.connection.request(method, path, body=body, headers=headers)
        response = self.connection.getresponse()
        return response.status, json.loads(response.read())

    def close(self) -> None:
        self.connection.close()


def _terminal(document: dict) -> bool:
    return document.get("state") in ("succeeded", "failed", "cancelled")


def _stream(state: State, client: Client,
            result: Measurement) -> Dict[str, dict]:
    """Run every burst; returns the final document of each job id."""
    jobs: Dict[str, dict] = {}
    op = 0
    for burst in state.bursts:
        pending = []
        for payload in burst:
            sent = time.perf_counter()
            status, document = client.call("POST", "/jobs", op, payload)
            if status not in (200, 202):
                result.latencies.append(time.perf_counter() - sent)
                result.errors[op] = f"POST answered {status}: {document}"
                result.outputs.append(None)
            elif _terminal(document):
                result.latencies.append(time.perf_counter() - sent)
                result.outputs.append((payload, document))
            else:
                result.latencies.append(0.0)
                result.outputs.append(None)
                pending.append((op, sent, payload, document["id"]))
            op += 1
        for index, sent, payload, job_id in pending:
            while True:
                status, document = client.call(
                    "GET", f"/jobs/{job_id}?wait={WAIT_S}", index)
                if status != 200:
                    result.errors[index] = f"GET answered {status}"
                    break
                if _terminal(document):
                    break
            result.latencies[index] = time.perf_counter() - sent
            result.outputs[index] = (payload, document)
    for output in result.outputs:
        if output is not None:
            jobs[output[1]["id"]] = output[1]
    return jobs


def measure(state: State, tracer=None) -> Measurement:
    result = Measurement()
    server = Server(traced=tracer is not None)
    try:
        server.wait_ready()
        client = Client(server, tracer)
        try:
            started = time.perf_counter()
            jobs = _stream(state, client, result)
            result.wall_s = time.perf_counter() - started
            _, stats = client.call("GET", "/stats", -1)
        finally:
            client.close()
        result.extra["requests"] = client.requests
        result.extra["peak_rss_mb"] = peak_rss_mb(server.process.pid)
        journal_bytes = server.journal.stat().st_size
    finally:
        trace = server.stop()
    result.units = sum(
        1 for output in result.outputs
        if output is not None and output[1].get("state") == "succeeded")
    if tracer is not None:
        _fold_service_counters(tracer, jobs, stats, journal_bytes, trace)
    return result


def _fold_service_counters(tracer, jobs: Dict[str, dict], stats: dict,
                           journal_bytes: int, trace: Optional[dict]) -> None:
    """Queue/worker times from job documents, ratios from ``GET /stats``,
    and the traced server's spans and counters."""
    for document in jobs.values():
        if document.get("started_at") is None:
            continue
        tracer.count("jobs.computed")
        tracer.count("queue.wait_total_s",
                     document["started_at"] - document["submitted_at"])
        tracer.count("worker.run_total_s",
                     document["finished_at"] - document["started_at"])
    store, queue = stats["store"], stats["queue"]
    tracer.count("store.hits", store["hits"])
    tracer.count("store.misses", store["misses"])
    tracer.count("queue.submitted", queue["submitted"])
    tracer.count("queue.deduplicated", queue["deduplicated"])
    tracer.count("journal.bytes", journal_bytes)
    tracer.count("journal.jobs", queue["submitted"] - queue["deduplicated"])
    if trace is not None:
        tracer.absorb(trace)


def check(state: State, measurement: Measurement) -> Dict[int, str]:
    """Job states, and each summary against the goldens or deadlines."""
    failed: Dict[int, str] = {}
    for index, output in enumerate(measurement.outputs):
        if output is None:
            continue
        payload, document = output
        if document.get("state") != "succeeded":
            failed[index] = f"job {document.get('id')} {document.get('state')}"
            continue
        summary = document.get("result") or {}
        if isinstance(payload, list):
            rows = summary.get("batch", [])
            if len(rows) != len(payload):
                failed[index] = "batch result has the wrong length"
                continue
            pairs = list(zip(payload, rows))
        else:
            pairs = [(payload, summary)]
        for request, row in pairs:
            # Goldens pin default budgets only.
            goldens = state.goldens if len(request) == 1 else {}
            reason = check_summary(request["scenario"], row, goldens)
            if reason:
                failed[index] = f"{request}: {reason}"
                break
    return failed
