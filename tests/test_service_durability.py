"""Durable multi-process service: journal, process workers, batches, waits.

Covers the persistence and parallelism layer added on top of the evaluation
service:

* :class:`JobJournal` — append-only JSONL event log, torn-line tolerance,
  results journaled as their JSON summary only (a legacy pickled copy in an
  older journal is never decoded), batches replaying as batches,
* restart survival — a service reopened on the same journal serves completed
  results without recomputation (dedup extends across restarts, custom
  scenarios built around closures and batches included), resolves every
  previously issued job id, and resumes still-pending jobs,
* ``worker_mode="process"`` — jobs computed on a process pool produce
  bit-identical results (pinned against the E1/E2/E3/E6 goldens),
* batch jobs — one queue entry, one fingerprint, per-request results in
  request order, over the facade and the HTTP API,
* ``GET /jobs/<id>?wait=`` long-polling,
* the store-backed id fallback that keeps pruned job ids resolvable.
"""

import base64
import json
import os
import pathlib
import pickle
import socket
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro.compiler.engine import (
    PersistError,
    process_analysis_cache,
    process_cache_store,
)
from repro.hw.presets import nucleo_stm32f091rc
from repro.scenarios import (
    ScenarioSpec,
    register_scenario,
    unregister_scenario,
)
from repro.service import (
    BatchRequest,
    BatchResult,
    EvaluationService,
    JobJournal,
    JobQueue,
    JobRequest,
    JobState,
    SummaryOnlyResult,
    WorkerPool,
    request_from_dict,
)
from test_service import (  # noqa: F401 - fixtures
    _http,
    assert_report_matches,
    golden,
    http_service,
    request,
    tiny_scenario,
    tiny_spec,
)


# ---------------------------------------------------------------------------
# Journal unit behaviour
# ---------------------------------------------------------------------------
class Unpicklable:
    """A result whose pickle fails but whose summary works (the journal
    never pickles, so it journals like any other result)."""

    def summary(self):
        return {"name": "unpicklable", "note": "summary survives"}

    def __reduce__(self):
        raise TypeError("deliberately unpicklable")


class TestJobJournal:
    def test_submit_finish_cancel_round_trip(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        queue = JobQueue()
        with JobJournal(path) as journal:
            done, _ = queue.submit(request(generations=1))
            journal.record_submit(done)
            pending, _ = queue.submit(request(generations=2))
            journal.record_submit(pending)
            gone, _ = queue.submit(request(generations=3))
            journal.record_submit(gone)
            queue.finish(queue.claim(timeout=0.1), result=Unpicklable())
            journal.record_finish(done)
            queue.cancel(gone.id)
            journal.record_cancel(gone)
            assert journal.stats()["events_written"] == 5

        replayed = {job.id: job for job in JobJournal(path).replay()}
        assert len(replayed) == 3
        assert replayed[pending.id].state is JobState.PENDING
        assert not replayed[pending.id].done.is_set()
        assert replayed[gone.id].state is JobState.CANCELLED
        assert replayed[gone.id].done.is_set()
        restored = replayed[done.id]
        assert restored.state is JobState.SUCCEEDED
        assert restored.done.is_set()
        # Replay restores the journaled summary document.
        assert isinstance(restored.result, SummaryOnlyResult)
        assert restored.result.summary()["note"] == "summary survives"
        # Requests replay through the canonical dict form: same fingerprint.
        assert restored.fingerprint == done.fingerprint

    def test_torn_final_line_is_skipped(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        queue = JobQueue()
        with JobJournal(path) as journal:
            job, _ = queue.submit(request(generations=1))
            journal.record_submit(job)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "finish", "id": "job-0')  # crash mid-write
        reopened = JobJournal(path)
        replayed = reopened.replay()
        assert [j.id for j in replayed] == [job.id]
        assert replayed[0].state is JobState.PENDING
        assert reopened.stats()["skipped_lines"] == 1

    def test_append_after_torn_line_starts_a_fresh_line(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        queue = JobQueue()
        first, _ = queue.submit(request(generations=1))
        with JobJournal(path) as journal:
            journal.record_submit(first)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "finish", "id": "job-0')  # crash mid-write
        # The restarted process journals a new job: it must not merge into
        # the torn line and vanish with it on the next replay.
        second, _ = queue.submit(request(generations=2))
        with JobJournal(path) as journal:
            journal.record_submit(second)
        reopened = JobJournal(path)
        assert [j.id for j in reopened.replay()] == [first.id, second.id]
        assert reopened.stats()["skipped_lines"] == 1

    def test_finish_for_unknown_submit_is_skipped(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"event": "finish", "id": "job-000009",
                                     "state": "succeeded"}) + "\n")
        journal = JobJournal(path)
        assert journal.replay() == []
        assert journal.stats()["skipped_lines"] == 1

    def test_batch_requests_replay_as_batches(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        queue = JobQueue()
        batch = BatchRequest((request(generations=1),
                              request(generations=2)))
        with JobJournal(path) as journal:
            job, _ = queue.submit(batch)
            journal.record_submit(job)
        replayed = JobJournal(path).replay()
        assert isinstance(replayed[0].request, BatchRequest)
        assert replayed[0].fingerprint == batch.fingerprint()

    def test_finish_events_carry_the_summary_only(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        queue = JobQueue()
        with JobJournal(path) as journal:
            job, _ = queue.submit(request(generations=1))
            journal.record_submit(job)
            queue.finish(queue.claim(timeout=0.1), result=Unpicklable())
            journal.record_finish(job)
            assert "pickle_failures" not in journal.stats()
        events = [json.loads(line) for line in open(path, encoding="utf-8")]
        assert set(events[1]) == {"event", "id", "state", "started_at",
                                  "finished_at", "summary"}

    def test_legacy_result_pickle_is_never_decoded(self, tmp_path):
        # A journal written by an older version carries a base64 pickle next
        # to each summary.  Replay must not decode it: a crafted pickle
        # would otherwise run code in the server.
        marker = tmp_path / "pickle-ran"

        class Exploit:
            def __reduce__(self):
                return (pathlib.Path.touch, (marker,))

        path = tmp_path / "journal.jsonl"
        summary = {"name": "svc-tiny", "note": "summary survives"}
        events = [
            {"event": "submit", "id": "job-000001",
             "request": request(generations=1).as_dict(), "priority": 0,
             "submitted_at": 1.0},
            {"event": "finish", "id": "job-000001", "state": "succeeded",
             "started_at": 1.0, "finished_at": 2.0, "summary": summary,
             "result_pickle": base64.b64encode(
                 pickle.dumps(Exploit())).decode("ascii")},
        ]
        with open(path, "w", encoding="utf-8") as handle:
            for event in events:
                handle.write(json.dumps(event) + "\n")

        journal = JobJournal(path)
        (job,) = journal.replay()
        assert not marker.exists()
        assert job.state is JobState.SUCCEEDED
        assert isinstance(job.result, SummaryOnlyResult)
        assert job.result.summary() == summary
        assert journal.stats()["skipped_lines"] == 0

    def test_succeeded_batch_replays_as_batch_of_summaries(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        queue = JobQueue()
        batch = BatchRequest((request(generations=1),
                              request(generations=2)))
        with JobJournal(path) as journal:
            job, _ = queue.submit(batch)
            journal.record_submit(job)
            queue.finish(queue.claim(timeout=0.1), result=BatchResult(
                [Unpicklable(), Unpicklable()]))
            journal.record_finish(job)
        (replayed,) = JobJournal(path).replay()
        assert isinstance(replayed.result, BatchResult)
        assert all(isinstance(row, SummaryOnlyResult)
                   for row in replayed.result.results)
        assert replayed.result.summary() == job.result.summary()


# ---------------------------------------------------------------------------
# A failed finish append
# ---------------------------------------------------------------------------
class FinishAppendFailsOnce(JobJournal):
    """A journal whose first ``finish`` append raises, as a full disk would."""

    def __init__(self, path):
        super().__init__(path)
        self.failures_left = 1

    def record_finish(self, *args, **kwargs):
        if self.failures_left:
            self.failures_left -= 1
            raise OSError("no space left on device")
        return super().record_finish(*args, **kwargs)


class TestFinishAppendFailure:
    def test_failed_job_is_not_reused(self, tmp_path, tiny_scenario):  # noqa: F811
        journal = FinishAppendFailsOnce(tmp_path / "journal.jsonl")
        with EvaluationService(workers=1, journal=journal) as service:
            first = service.submit(tiny_scenario.name)
            assert first.wait(120)
            assert first.state is JobState.FAILED
            assert "OSError" in first.error
            # The failed job released its fingerprint: an identical
            # submission runs as a new job instead of getting it back.
            again = service.submit(tiny_scenario.name)
            assert again is not first
            service.result(again, timeout=120)
            assert again.state is JobState.SUCCEEDED
            assert service.stats()["store"]["hits"] == 0


# ---------------------------------------------------------------------------
# Restart survival (the tentpole's hard constraint)
# ---------------------------------------------------------------------------
class TestServiceRestart:
    def test_completed_results_and_backlog_survive_restart(
            self, tmp_path, tiny_scenario):  # noqa: F811
        other = register_scenario(tiny_spec("svc-tiny-restart"))
        path = tmp_path / "journal.jsonl"
        try:
            # First life: complete one job, leave one pending, then "crash"
            # (close without draining).
            service = EvaluationService(workers=1, journal=path,
                                        autostart=False)
            done = service.submit(tiny_scenario.name)
            pending = service.submit(other.name)
            service._execute(service.queue.claim(timeout=1))
            reference = service.result(done, timeout=5).summary()
            service.close()

            # Second life: replay the same journal.
            service = EvaluationService(workers=1, journal=path,
                                        autostart=False)
            try:
                restored = service.job(done.id)
                assert restored.state is JobState.SUCCEEDED
                assert restored.result.summary() == reference
                backlog = service.job(pending.id)
                assert backlog.state is JobState.PENDING
                assert service.queue.stats()["pending"] == 1
                assert service.queue.stats()["succeeded"] == 1

                # Dedup extends across the restart: an identical submission
                # reuses the replayed job without recomputation, and a
                # reuse writes nothing to the journal.
                events = service.journal.stats()["events_written"]
                repeat = service.submit(tiny_scenario.name)
                assert repeat is restored
                assert service.stats()["store"]["hits"] == 1
                assert service.journal.stats()["events_written"] == events

                # The replayed backlog resumes once the pool starts.
                service.start()
                resumed = service.result(backlog, timeout=120)
                assert resumed.summary()["name"] == other.name
            finally:
                service.close()
        finally:
            unregister_scenario(other.name)

    def test_closure_built_custom_result_is_a_store_hit_after_restart(
            self, tmp_path):
        # A custom scenario around a lambda: its result object cannot be
        # pickled, but its summary journals like any other, so dedup
        # survives the restart.
        spec = register_scenario(ScenarioSpec(
            name="svc-closure", title="Closure-built custom scenario",
            kind="custom", platform="nucleo-stm32f091rc",
            custom_run=lambda ctx: {"answer": 42},
            summarize=lambda detail: dict(detail)))
        path = tmp_path / "journal.jsonl"
        try:
            service = EvaluationService(workers=1, journal=path,
                                        autostart=False)
            done = service.submit(spec.name)
            service._execute(service.queue.claim(timeout=1))
            reference = service.result(done, timeout=5).summary()
            assert reference["detail"] == {"answer": 42}
            service.close()

            service = EvaluationService(workers=1, journal=path,
                                        autostart=False)
            try:
                repeat = service.submit(spec.name)
                assert service.stats()["store"]["hits"] == 1
                assert repeat.id == done.id
                assert service.result(repeat, timeout=5).summary() == reference
            finally:
                service.close()
        finally:
            unregister_scenario(spec.name)

    def test_batch_result_is_a_store_hit_after_restart(
            self, tmp_path, tiny_scenario):  # noqa: F811
        other = register_scenario(tiny_spec("svc-tiny-batch-restart"))
        batch = [{"scenario": other.name}, {"scenario": tiny_scenario.name}]
        path = tmp_path / "journal.jsonl"
        try:
            service = EvaluationService(workers=1, journal=path,
                                        autostart=False)
            done = service.submit_batch(batch)
            service._execute(service.queue.claim(timeout=1))
            reference = service.result(done, timeout=5).summary()
            service.close()

            service = EvaluationService(workers=1, journal=path,
                                        autostart=False)
            try:
                restored = service.job(done.id)
                assert isinstance(restored.result, BatchResult)
                assert restored.result.summary() == reference
                repeat = service.submit_batch(batch)
                assert repeat is restored
                assert service.stats()["store"]["hits"] == 1
            finally:
                service.close()
        finally:
            unregister_scenario(other.name)

    def test_restart_ids_never_collide_and_cancel_survives(
            self, tmp_path, tiny_scenario):  # noqa: F811
        path = tmp_path / "journal.jsonl"
        service = EvaluationService(workers=1, journal=path,
                                    autostart=False)
        job = service.submit(tiny_scenario.name)
        assert service.cancel(job.id)
        service.close()

        service = EvaluationService(workers=1, journal=path,
                                    autostart=False)
        try:
            assert service.job(job.id).state is JobState.CANCELLED
            assert service.queue.stats()["cancelled"] == 1
            # The id counter advanced past every journaled id.
            fresh = service.submit(tiny_scenario.name)
            assert fresh.id != job.id
        finally:
            service.close()

    def test_duplicate_pending_entries_coalesce_on_replay(
            self, tmp_path, tiny_scenario):  # noqa: F811
        path = tmp_path / "journal.jsonl"
        # Hand-build a journal with two pending submits of one fingerprint
        # (a malformed journal must not trigger the same computation twice).
        req = JobRequest(scenario=tiny_scenario.name)
        with open(path, "w", encoding="utf-8") as handle:
            for job_id in ("job-000001", "job-000002"):
                handle.write(json.dumps({
                    "event": "submit", "id": job_id,
                    "request": req.as_dict(), "priority": 0,
                    "submitted_at": 1.0}) + "\n")
        service = EvaluationService(workers=1, journal=path,
                                    autostart=False)
        try:
            assert service.queue.stats()["pending"] == 1
            assert service.job("job-000001").submissions == 2
            assert service.job("job-000002") is None
        finally:
            service.close()

    def test_stats_surface_journal_counters(self, tmp_path, tiny_scenario):  # noqa: F811
        path = tmp_path / "journal.jsonl"
        with EvaluationService(workers=1, journal=path) as service:
            service.result(service.submit(tiny_scenario.name), timeout=120)
            journal_stats = service.stats()["journal"]
            assert journal_stats["path"] == str(path)
            assert journal_stats["fsync"] is False
        # close() joined the worker, so both events are on disk by now
        # (result() may return a beat before the finish event lands).
        assert JobJournal(path).stats()["events_written"] == 0
        events = [json.loads(line) for line in open(path, encoding="utf-8")]
        assert [event["event"] for event in events] == ["submit", "finish"]


# ---------------------------------------------------------------------------
# Process worker mode
# ---------------------------------------------------------------------------
class TestProcessWorkerMode:
    def test_mode_validation(self):
        queue = JobQueue()
        with pytest.raises(ValueError, match="worker mode"):
            WorkerPool(queue, lambda job: None, mode="coroutine")
        with pytest.raises(ValueError, match="process_task"):
            WorkerPool(queue, lambda job: None, mode="process")

    def test_process_mode_matches_thread_mode(self, tiny_scenario):  # noqa: F811
        with EvaluationService(workers=1) as service:
            reference = service.result(service.submit(tiny_scenario.name),
                                       timeout=120)
        with EvaluationService(workers=2, worker_mode="process") as service:
            assert service.pool.stats()["mode"] == "process"
            result = service.result(service.submit(tiny_scenario.name),
                                    timeout=300)
            assert_report_matches(result.report, {
                "name": reference.report.name,
                "baseline_time_s": reference.report.baseline_time_s,
                "teamplay_time_s": reference.report.teamplay_time_s,
                "baseline_energy_j": reference.report.baseline_energy_j,
                "teamplay_energy_j": reference.report.teamplay_energy_j,
                "deadline_s": reference.report.deadline_s,
                "deadlines_met": reference.report.deadlines_met,
            })

    def test_process_mode_failures_are_recorded(self, tmp_path):
        def explode(ctx):
            raise RuntimeError("process-side failure")

        from repro.scenarios import ScenarioSpec
        spec = register_scenario(ScenarioSpec(
            name="svc-proc-failing", title="Always fails", kind="custom",
            platform="nucleo-stm32f091rc", custom_run=explode))
        path = tmp_path / "journal.jsonl"
        try:
            with EvaluationService(workers=1, worker_mode="process",
                                   journal=path) as service:
                job = service.submit(spec.name)
                assert job.wait(120)
                assert job.state is JobState.FAILED
                assert "process-side failure" in job.error
                assert service.queue.stats()["failed"] == 1
            # The failure was journaled, so it survives a restart.
            replayed = JobJournal(path).replay()
            assert replayed[0].state is JobState.FAILED
        finally:
            unregister_scenario(spec.name)

    def test_sigkilled_service_releases_its_port(self, tmp_path):
        """Orphaned pool workers must exit once the service process dies.

        Regression: pool workers fork lazily on the first job — after the
        HTTP socket is bound — and inherit every parent fd, including the
        executor's call-pipe write end, so they never see EOF on it.  A
        SIGKILLed ``serve`` therefore left them blocked forever holding the
        listening socket, and a journal restart on the same port failed
        with ``EADDRINUSE``.  The pool's orphan watchdog makes them exit.
        """
        script = tmp_path / "orphan_service.py"
        script.write_text(textwrap.dedent("""\
            import json, threading, time

            from repro.scenarios import register_scenario
            from repro.service import EvaluationService
            from repro.service.http import create_server
            from test_service import tiny_spec

            register_scenario(tiny_spec("svc-orphan"))
            service = EvaluationService(workers=1, worker_mode="process")
            server = create_server(service, port=0)
            threading.Thread(target=server.serve_forever,
                             daemon=True).start()
            # Completing one job guarantees the pool forked *after* bind,
            # so the workers inherited the listening socket.
            service.result(service.submit("svc-orphan"), timeout=300)
            print(json.dumps({"port": server.server_address[1]}),
                  flush=True)
            time.sleep(600)   # hold the pool open until the test kills us
        """))
        here = pathlib.Path(__file__).resolve().parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(here.parent / "src"), str(here)]
            + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
        proc = subprocess.Popen([sys.executable, str(script)], env=env,
                                stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            assert line, "service subprocess died before serving"
            port = json.loads(line)["port"]
            proc.kill()   # SIGKILL: no chance to shut the pool down
            proc.wait(timeout=30)
            deadline = time.monotonic() + 20.0
            while True:
                probe = socket.socket()
                probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                try:
                    probe.bind(("127.0.0.1", port))
                    break   # the orphaned workers let go of the socket
                except OSError:
                    assert time.monotonic() < deadline, (
                        "orphaned process workers still hold the listening "
                        "socket 20s after the service was SIGKILLed")
                    time.sleep(0.2)
                finally:
                    probe.close()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            if proc.stdout is not None:
                proc.stdout.close()


class TestServiceGoldenParityProcess:
    """E1/E2/E3/E6 computed on process workers, bit for bit."""

    @pytest.fixture(scope="class")
    def service_results(self):
        with EvaluationService(workers=2,
                               worker_mode="process") as service:
            jobs = {name: service.submit(name)
                    for name in ("camera-pill", "space-spacewire", "uav-sar",
                                 "parking-dl-tk1")}
            yield {name: service.result(job, timeout=600)
                   for name, job in jobs.items()}

    def test_e1_camera_pill(self, service_results):
        assert_report_matches(service_results["camera-pill"].report,
                              golden("camera_pill_e1.json")["report"])

    def test_e2_space(self, service_results):
        assert_report_matches(service_results["space-spacewire"].report,
                              golden("space_e2.json")["report"])

    def test_e3_uav_sar(self, service_results):
        assert_report_matches(service_results["uav-sar"].report,
                              golden("uav_sar_e3.json")["report"])

    def test_e6_parking_tk1(self, service_results):
        assert_report_matches(service_results["parking-dl-tk1"].report,
                              golden("parking_tk1_e6.json")["report"])


# ---------------------------------------------------------------------------
# Batch submissions
# ---------------------------------------------------------------------------
class TestBatchJobs:
    def test_batch_runs_as_one_job_in_request_order(self, tiny_scenario):  # noqa: F811
        other = register_scenario(tiny_spec("svc-tiny-batch"))
        try:
            with EvaluationService(workers=1) as service:
                job = service.submit_batch([
                    {"scenario": other.name},
                    {"scenario": tiny_scenario.name},
                ])
                result = service.result(job, timeout=120)
                summary = result.summary()
                assert summary["count"] == 2
                assert [row["name"] for row in summary["batch"]] == [
                    other.name, tiny_scenario.name]
                # One queue entry, one pipeline-rollup job.
                assert service.queue.stats()["submitted"] == 1
                assert service.stats()["pipeline"]["jobs_reported"] == 1

                # An identical batch dedups on the batch fingerprint.
                repeat = service.submit_batch([
                    {"scenario": other.name},
                    {"scenario": tiny_scenario.name},
                ])
                assert repeat is job
                # A reordered batch is a different computation.
                reordered = service.submit_batch([
                    {"scenario": tiny_scenario.name},
                    {"scenario": other.name},
                ])
                assert reordered is not job
        finally:
            unregister_scenario(other.name)

    def test_batch_payload_forms(self):
        single = request_from_dict({"scenario": "x"})
        assert isinstance(single, JobRequest)
        as_list = request_from_dict([{"scenario": "x"}, {"scenario": "y"}])
        canonical = request_from_dict(
            {"batch": [{"scenario": "x"}, {"scenario": "y"}],
             "priority": 3})
        assert isinstance(as_list, BatchRequest)
        assert as_list.fingerprint() == canonical.fingerprint()

    def test_batch_validation(self):
        from repro.service import JobError
        with pytest.raises(JobError, match="non-empty"):
            request_from_dict([])
        with pytest.raises(JobError, match="unknown batch request fields"):
            request_from_dict({"batch": [{"scenario": "x"}],
                               "generations": 4})

    def test_http_batch_submission(self, http_service, tiny_scenario):  # noqa: F811
        _, address = http_service
        status, document = _http(
            address, "POST", "/jobs",
            [{"scenario": tiny_scenario.name},
             {"scenario": tiny_scenario.name, "generations": 1,
              "population_size": 2}])
        assert status in (200, 202)
        job_id = document["id"]
        deadline = time.monotonic() + 60
        while document["state"] in ("pending", "running"):
            assert time.monotonic() < deadline
            status, document = _http(address, "GET",
                                     f"/jobs/{job_id}?wait=5")
            assert status == 200
        assert document["state"] == "succeeded"
        assert document["result"]["count"] == 2
        names = [row["name"] for row in document["result"]["batch"]]
        assert names == [tiny_scenario.name, tiny_scenario.name]


# ---------------------------------------------------------------------------
# Long-polling GET /jobs/<id>?wait=
# ---------------------------------------------------------------------------
class TestLongPoll:
    def test_wait_blocks_until_completion(self, tiny_scenario):  # noqa: F811
        from repro.service.http import create_server

        service = EvaluationService(workers=1, autostart=False)
        server = create_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        address = server.server_address[:2]
        try:
            job = service.submit(tiny_scenario.name)

            def finish_soon():
                claimed = service.queue.claim(timeout=5)
                service._execute(claimed)

            worker = threading.Thread(target=finish_soon, daemon=True)
            worker.start()
            status, document = _http(address, "GET",
                                     f"/jobs/{job.id}?wait=30")
            worker.join(timeout=10)
            assert status == 200
            assert document["state"] == "succeeded"
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
            service.close()

    def test_wait_times_out_on_still_pending_jobs(self, tiny_scenario):  # noqa: F811
        from repro.service.http import create_server

        # Nothing drains.
        service = EvaluationService(workers=1, autostart=False)
        server = create_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        address = server.server_address[:2]
        try:
            job = service.submit(tiny_scenario.name)
            started = time.monotonic()
            status, document = _http(address, "GET",
                                     f"/jobs/{job.id}?wait=0.2")
            elapsed = time.monotonic() - started
            assert status == 200
            assert document["state"] == "pending"
            assert 0.15 <= elapsed < 10
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
            service.close()

    def test_invalid_wait_is_rejected(self, http_service, tiny_scenario):  # noqa: F811
        _, address = http_service
        status, document = _http(address, "POST", "/jobs",
                                 {"scenario": tiny_scenario.name})
        assert status in (200, 202)
        job_id = document["id"]
        status, document = _http(address, "GET", f"/jobs/{job_id}?wait=soon")
        assert status == 400 and "wait" in document["error"]
        status, document = _http(address, "GET", f"/jobs/{job_id}?wait=-1")
        assert status == 400 and "wait" in document["error"]


# ---------------------------------------------------------------------------
# Job ids resolve while their record is kept
# ---------------------------------------------------------------------------
class TestStoreIdFallback:
    def test_http_404_only_after_store_eviction(self, tiny_scenario):  # noqa: F811
        # The job record is the only copy: once ``max_job_records`` prunes
        # it, its id (and its reuse) is gone.
        other = register_scenario(tiny_spec("svc-tiny-prune2"))
        from repro.service.http import create_server

        service = EvaluationService(workers=1, max_job_records=1)
        server = create_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        address = server.server_address[:2]
        try:
            first = service.submit(tiny_scenario.name)
            service.result(first, timeout=120)
            status, _ = _http(address, "GET", f"/jobs/{first.id}")
            assert status == 200
            second = service.submit(other.name)
            service.result(second, timeout=120)
            # The one-record window pruned the first job: now it is gone.
            status, document = _http(address, "GET", f"/jobs/{first.id}")
            assert status == 404 and document["error"] == "unknown job"
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
            service.close()
            unregister_scenario(other.name)


# ---------------------------------------------------------------------------
# Persistent analysis-cache tier across workers and restarts
# ---------------------------------------------------------------------------
class TestProcessWorkerCacheStats:
    """Satellite: GET /stats cache reporting must see process-mode workers."""

    def test_worker_snapshots_aggregate_into_stats(self, tmp_path,
                                                   tiny_scenario):  # noqa: F811
        cache_dir = str(tmp_path / "analysis-cache")
        with EvaluationService(workers=2, worker_mode="process",
                               cache_dir=cache_dir) as service:
            service.result(service.submit(tiny_scenario.name), timeout=300)
            document = service.stats()["analysis_cache"]

        assert set(document) == {"platforms", "combined", "workers", "store"}
        # At least the worker that computed the job shipped its counters.
        assert document["workers"], "no worker cache snapshot arrived"
        computed = 0
        for snapshot in document["workers"].values():
            assert set(snapshot) >= {"analysis", "parse", "store"}
            assert snapshot["store"]["directory"] == cache_dir
            computed += sum(counters["misses"]
                            for counters in snapshot["analysis"].values())
        assert computed > 0, "workers reported no analysis activity"
        # The combined view folds worker counters in, so the platform the
        # tiny scenario ran on shows the worker's misses even though the
        # parent process never analysed anything.
        combined = document["combined"]["nucleo-stm32f091rc"]
        assert combined["misses"] > 0
        # The parent's own store handle is reported alongside.
        assert document["store"]["directory"] == cache_dir

    def test_unusable_cache_dir_fails_fast(self, tmp_path):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("occupied")
        with pytest.raises(PersistError, match="not a directory"):
            EvaluationService(workers=1, cache_dir=str(blocker))
        # Validation ran before any state was created or enabled.
        assert process_analysis_cache(nucleo_stm32f091rc()) is None
        assert process_cache_store() is None


class TestWarmCacheSurvivesSigkill:
    """SIGKILL a warming run; the directory must stay usable and warm."""

    @staticmethod
    def _env():
        here = pathlib.Path(__file__).resolve().parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(here.parent / "src")]
            + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
        return env

    def test_sigkill_and_restart_warm_start(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        env = self._env()
        warm_cmd = [sys.executable, "-m", "repro.scenarios", "run",
                    "camera-pill", "--cache-dir", cache_dir,
                    "--jobs", "2", "--worker-mode", "process",
                    "--generations", "1", "--population", "2", "--json"]

        # Leg 1: SIGKILL the warming run mid-flight.  Wherever it was —
        # a record half-written, a last line torn — the directory must
        # remain usable (the CRC prefix + append-side tail repair guarantee
        # it).
        victim = subprocess.Popen(warm_cmd, env=env,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL)
        time.sleep(1.5)
        victim.kill()
        victim.wait(timeout=30)

        # Leg 2: the same warm run completes on the survivor directory.
        completed = subprocess.run(warm_cmd, env=env, capture_output=True,
                                   text=True, timeout=300)
        assert completed.returncode == 0, completed.stderr
        document = json.loads(completed.stdout)
        assert [row["name"] for row in document["scenarios"]] \
            == ["camera-pill"]
        assert document["cache_store"]["entries"] > 0

        # Leg 3: a fresh process on the same directory starts warm — every
        # analysis table is served from disk, none recomputed.
        sweep = subprocess.run(
            [sys.executable, "-m", "repro.scenarios", "run", "camera-pill",
             "--cache-dir", cache_dir, "--generations", "1",
             "--population", "2", "--json"],
            env=env, capture_output=True, text=True, timeout=300)
        assert sweep.returncode == 0, sweep.stderr
        summary = json.loads(sweep.stdout)
        counters = summary["analysis_cache"]["combined"]
        disk_hits = sum(c["disk_hits"] for c in counters.values())
        disk_misses = sum(c["disk_misses"] for c in counters.values())
        assert disk_hits > 0
        assert disk_misses == 0
        assert summary["cache_store"]["replayed_records"] > 0
