"""Service limits: bounded pending queue (429 back-pressure) and store TTL.

The queue bound and the result-store TTL are operational guards for a
long-lived deployment: the first keeps the backlog from growing without
bound (fresh submissions beyond ``max_pending`` fail fast with
:class:`QueueFull`, HTTP 429 + ``Retry-After``), the second stops a
long-lived service from serving stale sweeps forever (entries expire
lazily, counted in ``stats()``).  Also covers HTTP input hardening (bool
``priority`` rejection, the request-body size cap, non-UTF-8 bodies, a
refused body closing its connection), HTTP framing (one socket write per
reply, keep-alive latency free of delayed-ACK waits), the monotonic
succeeded/failed lifetime counters across record pruning, and the
service's cross-job pipeline-stats rollup under ``GET /stats``.
"""

import http.client
import io
import json
import socket
import statistics
import threading
import time

import pytest

from repro.service import (
    EvaluationService,
    JobError,
    JobQueue,
    JobRequest,
    QueueFull,
)
from repro.service.http import (
    MAX_BODY_BYTES,
    RETRY_AFTER_S,
    ServiceRequestHandler,
    create_server,
)
from test_service import _finished_job, request, tiny_scenario, tiny_spec  # noqa: F401

from repro.scenarios import register_scenario, unregister_scenario


# ---------------------------------------------------------------------------
# Queue back-pressure
# ---------------------------------------------------------------------------
class TestBoundedPendingQueue:
    def test_fresh_submissions_beyond_bound_are_rejected(self):
        queue = JobQueue(max_pending=2)
        queue.submit(request(generations=1))
        queue.submit(request(generations=2))
        with pytest.raises(QueueFull):
            queue.submit(request(generations=3))
        stats = queue.stats()
        assert stats["max_pending"] == 2
        assert stats["rejected"] == 1
        assert stats["pending"] == 2
        assert stats["submitted"] == 3  # rejections still count submissions

    def test_duplicates_coalesce_instead_of_rejecting(self):
        queue = JobQueue(max_pending=1)
        job, _ = queue.submit(request(generations=1))
        duplicate, deduplicated = queue.submit(request(generations=1))
        assert deduplicated and duplicate is job
        assert queue.stats()["rejected"] == 0

    def test_claim_and_cancel_free_slots(self):
        queue = JobQueue(max_pending=1)
        first, _ = queue.submit(request(generations=1))
        claimed = queue.claim(timeout=0.1)
        assert claimed is first
        second, _ = queue.submit(request(generations=2))  # slot freed
        assert queue.cancel(second.id)
        queue.submit(request(generations=3))  # cancel freed the slot too
        stats = queue.stats()
        assert stats["pending"] == 1
        # The O(1) gauge backing the 429 check must agree with the ground
        # truth of the record states after a submit/claim/cancel workout.
        from repro.service.jobs import JobState
        assert stats["pending"] == sum(job.state is JobState.PENDING
                                       for job in queue.jobs())

    def test_validation(self):
        with pytest.raises(ValueError):
            JobQueue(max_pending=0)

    def test_service_propagates_queue_full(self, tiny_scenario):  # noqa: F811
        other = register_scenario(tiny_spec("svc-tiny-2"))
        try:
            with EvaluationService(workers=1, max_pending=1,
                                   autostart=False) as service:
                service.submit(tiny_scenario.name)
                with pytest.raises(QueueFull):
                    service.submit(other.name)
        finally:
            unregister_scenario(other.name)


class TestHttp429:
    def test_full_queue_maps_to_429_with_retry_after(self, tiny_scenario):  # noqa: F811
        other = register_scenario(tiny_spec("svc-tiny-http2"))
        service = EvaluationService(workers=1, max_pending=1,
                                    autostart=False)  # nothing drains
        server = create_server(service)
        import threading
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            def post(name):
                connection = http.client.HTTPConnection(host, port, timeout=30)
                try:
                    connection.request(
                        "POST", "/jobs", body=json.dumps({"scenario": name}),
                        headers={"Content-Type": "application/json"})
                    response = connection.getresponse()
                    return (response.status, dict(response.getheaders()),
                            json.loads(response.read().decode("utf-8")))
                finally:
                    connection.close()

            status, _, document = post(tiny_scenario.name)
            assert status == 202 and document["state"] == "pending"
            status, headers, document = post(other.name)
            assert status == 429
            assert headers.get("Retry-After") == str(RETRY_AFTER_S)
            assert "queue is full" in document["error"]
            # A duplicate of the live job still coalesces fine.
            status, _, document = post(tiny_scenario.name)
            assert status == 202 and document["submissions"] == 2
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
            service.close()
            unregister_scenario(other.name)


# ---------------------------------------------------------------------------
# HTTP input hardening
# ---------------------------------------------------------------------------
@pytest.fixture
def idle_http_service():
    """A served-but-not-draining service for pure input-validation tests."""
    service = EvaluationService(workers=1, autostart=False)
    server = create_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield service, server.server_address[:2]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        service.close()


def _raw_post(address, body: bytes, content_length=None, path="/jobs"):
    connection = http.client.HTTPConnection(*address, timeout=30)
    try:
        connection.putrequest("POST", path)
        connection.putheader("Content-Type", "application/json")
        connection.putheader("Content-Length",
                             str(len(body) if content_length is None
                                 else content_length))
        connection.endheaders()
        connection.send(body)
        response = connection.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        connection.close()


class TestHttpInputHardening:
    def test_bool_priority_is_rejected(self, idle_http_service,
                                       tiny_scenario):  # noqa: F811
        # bool subclasses int: pre-fix, {"priority": true} passed an
        # isinstance(int) check and silently ran at priority 1.
        _, address = idle_http_service
        status, document = _raw_post(
            address, json.dumps({"scenario": tiny_scenario.name,
                                 "priority": True}).encode())
        assert status == 400
        assert "priority must be an integer" in document["error"]
        status, document = _raw_post(
            address, json.dumps({"scenario": tiny_scenario.name,
                                 "priority": "high"}).encode())
        assert status == 400

    def test_bool_budget_fields_are_rejected(self):
        # Same pitfall at the request level: generations=True is not "1".
        with pytest.raises(JobError, match="generations"):
            JobRequest(scenario="x", generations=True)
        with pytest.raises(JobError, match="population_size"):
            JobRequest.from_dict({"scenario": "x", "population_size": False})

    def test_oversized_body_gets_413_without_reading(self, idle_http_service):
        _, address = idle_http_service
        # Declare an absurd Content-Length but send almost nothing: the
        # server must refuse from the header alone instead of buffering.
        status, document = _raw_post(address, b"{}",
                                     content_length=MAX_BODY_BYTES + 1)
        assert status == 413
        assert "exceeds" in document["error"]

    def test_bad_content_length_gets_400(self, idle_http_service):
        _, address = idle_http_service
        connection = http.client.HTTPConnection(*address, timeout=30)
        try:
            connection.putrequest("POST", "/jobs")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Content-Length", "banana")
            connection.endheaders()
            response = connection.getresponse()
            document = json.loads(response.read().decode("utf-8"))
            assert response.status == 400
            assert "Content-Length" in document["error"]
        finally:
            connection.close()

    def test_body_at_the_limit_is_still_parsed(self, idle_http_service):
        _, address = idle_http_service
        # A large-but-legal body flows through to JSON validation (400 for
        # the unknown field — not 413).
        padding = "x" * (1 << 12)
        status, document = _raw_post(
            address, json.dumps({"scenario": "nope",
                                 "unknown_field": padding}).encode())
        assert status == 400
        assert "unknown job request fields" in document["error"]


    def test_non_utf8_body_gets_400(self, idle_http_service):
        # Pre-fix, the UnicodeDecodeError killed the handler thread and the
        # client saw the connection drop with no reply.
        _, address = idle_http_service
        for path in ("/jobs", "/campaigns"):
            status, document = _raw_post(address, b"\xff\xfe{", path=path)
            assert status == 400
            assert "UTF-8" in document["error"]

    @pytest.mark.parametrize("content_length, status", [
        (str(MAX_BODY_BYTES + 1), "413"), ("banana", "400"), ("-1", "400")])
    def test_refused_body_closes_the_connection(self, idle_http_service,
                                                content_length, status):
        # A body the server does not read would be parsed as the next
        # request on a kept-alive connection; the refusal must say
        # "Connection: close" and close.  No body bytes are sent, so the
        # close is a clean FIN rather than a reset over unread data.
        _, address = idle_http_service
        with socket.create_connection(address, timeout=10) as sock:
            sock.sendall(f"POST /jobs HTTP/1.1\r\nHost: x\r\n"
                         f"Content-Length: {content_length}\r\n\r\n"
                         .encode())
            received = b""
            while True:  # until the server closes (a timeout fails the test)
                chunk = sock.recv(65536)
                if not chunk:
                    break
                received += chunk
        head, _, body = received.partition(b"\r\n\r\n")
        lines = head.decode().split("\r\n")
        assert lines[0].split()[1] == status
        assert "Connection: close" in lines[1:]
        assert "error" in json.loads(body)


# ---------------------------------------------------------------------------
# HTTP framing
# ---------------------------------------------------------------------------
class _RecordingWriter:
    """The handler's socket writer, with each ``write`` call recorded."""

    def __init__(self, inner, writes):
        self._inner = inner
        self._writes = writes

    def write(self, data):
        self._writes.append(bytes(data))
        return self._inner.write(data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestHttpFraming:
    def test_each_reply_is_one_write(self, idle_http_service):
        service, _ = idle_http_service
        writes = []

        class CountingHandler(ServiceRequestHandler):
            def setup(self):
                super().setup()
                self.wfile = _RecordingWriter(self.wfile, writes)

        server = create_server(service)
        server.RequestHandlerClass = CountingHandler
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        connection = http.client.HTTPConnection(*server.server_address[:2],
                                                timeout=30)
        try:
            for method, path, body, status in [
                    ("GET", "/scenarios", None, 200),
                    ("GET", "/stats", None, 200),
                    ("GET", "/jobs?limit=5", None, 200),
                    ("GET", "/nowhere", None, 404),
                    ("POST", "/jobs", b"{", 400),
                    ("DELETE", "/jobs/missing", None, 404)]:
                before = len(writes)
                connection.request(method, path, body=body)
                response = connection.getresponse()
                payload = response.read()
                assert response.status == status
                assert len(writes) == before + 1
                assert writes[-1].startswith(f"HTTP/1.1 {status} ".encode())
                assert writes[-1].endswith(b"\r\n\r\n" + payload)
        finally:
            connection.close()
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        assert not thread.is_alive()

    def test_connection_close_header_still_closes(self):
        # Headers pass through send_header, which keeps its side effects.
        handler = ServiceRequestHandler.__new__(ServiceRequestHandler)
        handler.request_version = "HTTP/1.1"
        handler.requestline = "GET / HTTP/1.1"
        handler.client_address = ("127.0.0.1", 0)
        handler.close_connection = False
        writes = []
        handler.wfile = _RecordingWriter(io.BytesIO(), writes)
        handler._reply(200, {"ok": True}, headers={"Connection": "close"})
        assert handler.close_connection
        assert len(writes) == 1
        assert writes[0].count(b"\r\nConnection: close\r\n") == 1

    def test_keep_alive_requests_do_not_wait_for_delayed_acks(
            self, idle_http_service):
        # With headers and body in two writes, each reply's body waited
        # for the client's delayed ACK: a ~40 ms median on loopback.
        _, address = idle_http_service
        connection = http.client.HTTPConnection(*address, timeout=30)
        try:
            latencies = []
            for _ in range(20):
                started = time.perf_counter()
                connection.request("GET", "/scenarios")
                response = connection.getresponse()
                response.read()
                latencies.append(time.perf_counter() - started)
                assert response.status == 200
        finally:
            connection.close()
        assert statistics.median(latencies) < 0.010


# ---------------------------------------------------------------------------
# Monotonic lifetime counters vs record pruning
# ---------------------------------------------------------------------------
class TestMonotonicOutcomeCounters:
    def test_succeeded_failed_survive_record_eviction(self):
        # Pre-fix, succeeded/failed were derived by scanning live records,
        # so pruning the terminal records silently shrank the totals.
        queue = JobQueue(max_records=1)
        for generation in (1, 2, 3):
            queue.submit(request(generations=generation))
            claimed = queue.claim(timeout=0.1)
            if generation == 2:
                queue.finish(claimed, error="boom")
            else:
                queue.finish(claimed, result=generation)
        stats = queue.stats()
        assert stats["records"] == 1  # pruned down to the cap
        assert stats["evicted_records"] == 2
        assert stats["succeeded"] == 2
        assert stats["failed"] == 1
        # Consistency: lifetime totals account for every submission.
        assert (stats["succeeded"] + stats["failed"] + stats["cancelled"]
                + stats["pending"] + stats["running"]
                == stats["submitted"] - stats["deduplicated"]
                - stats["rejected"])

    def test_counters_never_decrease_across_a_workout(self):
        queue = JobQueue(max_records=2)
        seen = {"succeeded": 0, "failed": 0}
        for round_number in range(6):
            queue.submit(request(generations=round_number + 1))
            claimed = queue.claim(timeout=0.1)
            if round_number % 2:
                queue.finish(claimed, error="boom")
            else:
                queue.finish(claimed, result=round_number)
            stats = queue.stats()
            assert stats["succeeded"] >= seen["succeeded"]
            assert stats["failed"] >= seen["failed"]
            seen = {"succeeded": stats["succeeded"],
                    "failed": stats["failed"]}
        assert seen == {"succeeded": 3, "failed": 3}


# ---------------------------------------------------------------------------
# Reuse TTL
# ---------------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestReuseTtl:
    def test_entries_expire_lazily_on_submit(self):
        clock = FakeClock()
        queue = JobQueue(ttl_s=10.0, clock=clock)
        job = _finished_job(queue, request(generations=1))
        clock.advance(9.9)
        assert queue.submit(request(generations=1))[0] is job
        clock.advance(0.2)  # past the TTL
        fresh, deduplicated = queue.submit(request(generations=1))
        assert not deduplicated and fresh is not job
        stats = queue.reuse_stats()
        assert stats["expiries"] == 1
        assert stats["entries"] == 0  # the fresh job is still live
        assert stats["ttl_s"] == 10.0

    def test_reuse_does_not_renew_age(self):
        clock = FakeClock()
        queue = JobQueue(ttl_s=10.0, clock=clock)
        job = _finished_job(queue, request(generations=1))
        clock.advance(6)
        assert queue.submit(request(generations=1))[0] is job  # age 6
        clock.advance(6)  # age 12 > ttl, despite the recent reuse
        assert queue.submit(request(generations=1))[0] is not job

    def test_forced_rerun_renews_age(self):
        clock = FakeClock()
        queue = JobQueue(ttl_s=10.0, clock=clock)
        _finished_job(queue, request(generations=1))
        clock.advance(8)
        rerun, _ = queue.submit(request(generations=1), use_cache=False)
        queue.finish(queue.claim(timeout=0.1), result="again")
        clock.advance(8)  # 16s after the first run, 8s after the rerun
        assert queue.submit(request(generations=1))[0] is rerun

    def test_stats_sweep_expired(self):
        clock = FakeClock()
        queue = JobQueue(ttl_s=5.0, clock=clock)
        _finished_job(queue, request(generations=1))
        clock.advance(4)
        fresh = _finished_job(queue, request(generations=2))
        clock.advance(2)  # first is 6s old, second 2s
        stats = queue.reuse_stats()
        assert stats["entries"] == 1
        assert stats["expiries"] == 1
        assert queue.submit(request(generations=2))[0] is fresh

    def test_no_ttl_never_expires(self):
        clock = FakeClock()
        queue = JobQueue(clock=clock)
        job = _finished_job(queue, request(generations=1))
        clock.advance(10**9)
        assert queue.submit(request(generations=1))[0] is job
        assert queue.reuse_stats()["expiries"] == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            JobQueue(ttl_s=0)

    def test_service_wires_ttl_through(self):
        with EvaluationService(workers=1, store_ttl_s=123.0,
                               autostart=False) as service:
            assert service.queue.ttl_s == 123.0
            assert service.stats()["store"]["ttl_s"] == 123.0


# ---------------------------------------------------------------------------
# Cross-job pipeline-stats rollup
# ---------------------------------------------------------------------------
class TestServicePipelineStats:
    def test_stats_aggregate_across_jobs(self, tiny_scenario):  # noqa: F811
        with EvaluationService(workers=1) as service:
            job = service.submit(tiny_scenario.name)
            service.result(job, timeout=120)
            # A store-served repeat computes nothing, so it must not
            # inflate the rollup.
            repeat = service.submit(tiny_scenario.name)
            service.result(repeat, timeout=120)
            pipeline = service.stats()["pipeline"]
        assert pipeline["jobs_reported"] == 1
        passes = pipeline["passes"]
        assert passes["parse"]["invocations"] >= 1
        assert passes["analysis"]["invocations"] >= 1
        assert all(row["wall_s"] >= 0.0 for row in passes.values())
