"""Evaluation service: queue, reuse, workers, facade, HTTP, golden parity.

The parity classes prove the service is a *transport*, not a computation:
results fetched through the job queue — or through the HTTP/JSON API — are
bit-identical to direct :class:`ScenarioRunner` runs pinned by the golden
fixtures, and duplicate submissions coalesce onto a single computation.
"""

import http.client
import json
import pathlib
import re
import sys
import threading
import time

import pytest

from repro.compiler.config import CompilerConfig
from repro.compiler.engine import (
    PersistError,
    process_analysis_cache,
    process_cache_store,
    shared_analysis_caches,
)
from repro.frontend import parse_cache_stats
from repro.hw.presets import nucleo_stm32f091rc
from repro.scenarios import (
    BuildOptions,
    ScenarioSpec,
    UnknownScenarioError,
    register_scenario,
    run_scenario,
    unregister_scenario,
)
from repro.scenarios.__main__ import main as scenarios_cli
from repro.service import (
    EvaluationService,
    JobError,
    JobQueue,
    JobRequest,
    JobState,
    WorkerPool,
)
from repro.service.__main__ import main as service_cli
from repro.service.http import create_server

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"

TINY_SOURCE = """
int samples[16];

#pragma teamplay task(avg) poi(avg)
int moving_average(int gain) {
    int acc = 0;
    for (int i = 0; i < 16; i = i + 1) {
        acc = acc + samples[i] * gain;
    }
    return acc / 16;
}
"""

TINY_CSL = """
system tiny {
    period 10 ms;
    deadline 10 ms;
    task avg { implements moving_average; budget time 5 ms; budget energy 50 uJ; }
    graph { avg; }
}
"""


def tiny_spec(name: str) -> ScenarioSpec:
    return ScenarioSpec(
        name=name,
        title="Tiny service scenario",
        kind="predictable",
        platform="nucleo-stm32f091rc",
        source=TINY_SOURCE,
        csl=TINY_CSL,
        baseline=BuildOptions(config=CompilerConfig.baseline()),
        teamplay=BuildOptions(generations=1, population_size=2),
    )


@pytest.fixture
def tiny_scenario():
    spec = register_scenario(tiny_spec("svc-tiny"))
    try:
        yield spec
    finally:
        unregister_scenario(spec.name)


@pytest.fixture
def failing_scenario():
    def explode(ctx):
        raise RuntimeError("deliberate failure")

    spec = register_scenario(ScenarioSpec(
        name="svc-failing", title="Always fails", kind="custom",
        platform="nucleo-stm32f091rc", custom_run=explode))
    try:
        yield spec
    finally:
        unregister_scenario(spec.name)


def request(name: str = "svc-tiny", **overrides) -> JobRequest:
    return JobRequest(scenario=name, **overrides)


def golden(filename: str) -> dict:
    with open(GOLDEN_DIR / filename, "r", encoding="utf-8") as handle:
        return json.load(handle)


def assert_report_matches(report, expected: dict) -> None:
    assert report.name == expected["name"]
    assert report.baseline_time_s == expected["baseline_time_s"]
    assert report.teamplay_time_s == expected["teamplay_time_s"]
    assert report.baseline_energy_j == expected["baseline_energy_j"]
    assert report.teamplay_energy_j == expected["teamplay_energy_j"]
    assert report.deadline_s == expected["deadline_s"]
    assert report.deadlines_met == expected["deadlines_met"]


# ---------------------------------------------------------------------------
# Job queue semantics
# ---------------------------------------------------------------------------
class TestJobQueue:
    def test_priority_order_then_fifo(self):
        queue = JobQueue()
        low, _ = queue.submit(request(generations=1), priority=0)
        high, _ = queue.submit(request(generations=2), priority=5)
        mid_a, _ = queue.submit(request(generations=3), priority=1)
        mid_b, _ = queue.submit(request(generations=4), priority=1)
        order = [queue.claim(timeout=0.1).id for _ in range(4)]
        assert order == [high.id, mid_a.id, mid_b.id, low.id]

    def test_claim_timeout_returns_none(self):
        assert JobQueue().claim(timeout=0.01) is None

    def test_identical_requests_share_one_job(self):
        queue = JobQueue()
        first, deduplicated = queue.submit(request())
        assert not deduplicated
        second, deduplicated = queue.submit(request())
        assert deduplicated
        assert second is first
        assert first.submissions == 2
        stats = queue.stats()
        assert stats["submitted"] == 2
        assert stats["deduplicated"] == 1
        assert stats["pending"] == 1

    def test_different_requests_do_not_dedup(self):
        queue = JobQueue()
        first, _ = queue.submit(request())
        second, deduplicated = queue.submit(request(generations=9))
        assert not deduplicated
        assert second is not first

    def test_succeeded_job_is_reused_failed_or_forced_is_not(self):
        queue = JobQueue()
        first, _ = queue.submit(request())
        queue.finish(queue.claim(timeout=0.1), result="done")
        assert first.done.is_set()
        again, deduplicated = queue.submit(request())
        assert deduplicated and again is first
        assert first.submissions == 2
        forced, deduplicated = queue.submit(request(), use_cache=False)
        assert not deduplicated and forced is not first
        # The live forced run owns the fingerprint: repeats join it.
        joined, deduplicated = queue.submit(request())
        assert deduplicated and joined is forced
        queue.finish(queue.claim(timeout=0.1), error="boom")
        fresh, deduplicated = queue.submit(request())
        assert not deduplicated and fresh not in (first, forced)
        # The reuse counts as a hit, not as a submission.
        stats = queue.stats()
        assert stats["submitted"] == 4
        assert stats["deduplicated"] == 1
        assert queue.reuse_stats()["hits"] == 1

    def test_duplicate_at_higher_priority_jumps_the_queue(self):
        queue = JobQueue()
        target, _ = queue.submit(request(), priority=0)
        queue.submit(request(generations=7), priority=3)
        shared, deduplicated = queue.submit(request(), priority=9)
        assert deduplicated and shared is target
        assert queue.claim(timeout=0.1) is target

    def test_cancel_pending_only(self):
        queue = JobQueue()
        job, _ = queue.submit(request())
        assert queue.cancel(job.id)
        assert job.state is JobState.CANCELLED
        assert job.done.is_set()
        assert not queue.cancel(job.id)  # already terminal
        assert queue.claim(timeout=0.05) is None  # skipped lazily
        running, _ = queue.submit(request(generations=2))
        queue.claim(timeout=0.1)
        assert not queue.cancel(running.id)

    def test_cancelled_fingerprint_is_released(self):
        queue = JobQueue()
        job, _ = queue.submit(request())
        queue.cancel(job.id)
        fresh, deduplicated = queue.submit(request())
        assert not deduplicated and fresh is not job

    def test_finish_requires_running(self):
        queue = JobQueue()
        job, _ = queue.submit(request())
        with pytest.raises(JobError, match="not running"):
            queue.finish(job, result="nope")

    def test_failed_jobs_record_error(self):
        queue = JobQueue()
        job, _ = queue.submit(request())
        queue.claim(timeout=0.1)
        queue.finish(job, error="boom")
        assert job.state is JobState.FAILED
        assert job.error == "boom"
        assert queue.stats()["failed"] == 1

    def test_record_pruning_keeps_live_jobs(self):
        queue = JobQueue(max_records=2)
        done = []
        for generation in range(3):
            job, _ = queue.submit(request(generations=generation + 1))
            done.append(job)
            queue.finish(queue.claim(timeout=0.1), result=generation)
        live, _ = queue.submit(request(generations=99))
        stats = queue.stats()
        assert stats["records"] == 2
        assert stats["evicted_records"] >= 1
        assert queue.get(live.id) is live  # pending survives pruning
        assert queue.get(done[0].id) is None  # oldest finished evicted


class TestJobRequestValidation:
    def test_rejects_missing_scenario(self):
        with pytest.raises(JobError, match="scenario name"):
            JobRequest(scenario="")

    def test_rejects_non_positive_overrides(self):
        with pytest.raises(JobError, match="generations"):
            JobRequest(scenario="x", generations=0)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(JobError, match="unknown job request"):
            JobRequest.from_dict({"scenario": "x", "flavour": "spicy"})

    def test_rejects_non_bool_postprocess(self):
        # bool("false") is True — a coercion would silently run the job
        # with the opposite setting, so the type must be strict.
        with pytest.raises(JobError, match="postprocess"):
            JobRequest.from_dict({"scenario": "x", "postprocess": "false"})

    def test_fingerprint_is_canonical(self):
        assert request().fingerprint() == request().fingerprint()
        assert request().fingerprint() != request(generations=2).fingerprint()


class TestSubmissionCounting:
    def test_live_and_succeeded_submissions_count_exactly(self):
        # Every submission answered with an existing job — a live join or
        # a reuse of the succeeded job — is counted under the queue lock.
        # Hammer one job from many threads in both states and demand exact
        # totals.
        queue = JobQueue()
        job, _ = queue.submit(request())
        threads_n, per_thread = 8, 250

        def hammer_from_threads():
            barrier = threading.Barrier(threads_n)
            answers = []

            def hammer():
                barrier.wait()
                answers.extend(queue.submit(request())[0]
                               for _ in range(per_thread))

            threads = [threading.Thread(target=hammer)
                       for _ in range(threads_n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert len(answers) == threads_n * per_thread
            assert all(answer is job for answer in answers)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            hammer_from_threads()  # joins of the live job
            queue.finish(queue.claim(timeout=0.1), result="done")
            hammer_from_threads()  # reuses of the succeeded job
        finally:
            sys.setswitchinterval(interval)
        assert job.submissions == 1 + 2 * threads_n * per_thread
        stats = queue.stats()
        assert stats["submitted"] == 1 + threads_n * per_thread
        assert stats["deduplicated"] == threads_n * per_thread
        assert queue.reuse_stats()["hits"] == threads_n * per_thread


# ---------------------------------------------------------------------------
# Reuse of succeeded jobs
# ---------------------------------------------------------------------------
def _finished_job(queue: JobQueue, req: JobRequest):
    job, _ = queue.submit(req)
    queue.finish(queue.claim(timeout=0.1), result=req.generations)
    return job


class TestJobReuse:
    def test_reuse_lasts_until_the_record_is_pruned(self):
        queue = JobQueue(max_records=2)
        first = _finished_job(queue, request(generations=1))
        second = _finished_job(queue, request(generations=2))
        again, deduplicated = queue.submit(request(generations=1))
        assert deduplicated and again is first
        # The reuse did not refresh ``first``: it is still the least
        # recently finished record, so the next fresh job prunes it.
        third = _finished_job(queue, request(generations=3))
        assert queue.get(first.id) is None
        again, deduplicated = queue.submit(request(generations=2))
        assert deduplicated and again is second
        fresh, deduplicated = queue.submit(request(generations=1))
        assert not deduplicated and fresh is not first
        # ``second`` is pruned now too; ``third`` is the one reusable job.
        assert queue.get(second.id) is None
        assert queue.get(third.id) is third
        assert queue.reuse_stats() == {"entries": 1, "ttl_s": None,
                                       "hits": 2, "misses": 4,
                                       "expiries": 0}


# ---------------------------------------------------------------------------
# Worker pool
# ---------------------------------------------------------------------------
class TestWorkerPool:
    def test_drains_queue_and_counts(self):
        queue = JobQueue()

        def execute(job):
            return job.request.generations * 10

        pool = WorkerPool(queue, execute, workers=2)
        jobs = [queue.submit(request(generations=g))[0] for g in (1, 2, 3)]
        pool.start()
        try:
            assert pool.join(timeout=5)
        finally:
            pool.stop()
        assert [job.result for job in jobs] == [10, 20, 30]
        assert pool.stats()["processed"] == 3

    def test_handler_exception_fails_the_job(self):
        queue = JobQueue()

        def execute(job):
            raise ValueError("bad job")

        pool = WorkerPool(queue, execute, workers=1)
        job, _ = queue.submit(request())
        pool.start()
        try:
            assert job.wait(timeout=5)
        finally:
            pool.stop()
        assert job.state is JobState.FAILED
        assert "ValueError: bad job" in job.error
        assert pool.stats()["failed"] == 1

    def test_restart_does_not_resurrect_old_workers(self):
        queue = JobQueue()
        pool = WorkerPool(queue, lambda job: None, workers=2,
                          name="svc-restart")
        pool.start()
        pool.stop(wait=False)  # old generation drains on its own event
        pool.start()
        try:
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                alive = [thread for thread in threading.enumerate()
                         if thread.name.startswith("svc-restart-worker")]
                if len(alive) == 2:
                    break
                time.sleep(0.02)
            assert len(alive) == 2  # only the new generation survives
            job, _ = queue.submit(request())
            assert job.wait(timeout=5)  # ...and it still drains the queue
        finally:
            pool.stop()


# ---------------------------------------------------------------------------
# Service facade
# ---------------------------------------------------------------------------
class TestEvaluationService:
    def test_unknown_scenario_rejected_at_submission(self):
        with EvaluationService(workers=1, autostart=False) as service:
            with pytest.raises(UnknownScenarioError):
                service.submit("no-such-scenario")

    def test_duplicate_submissions_share_one_computation(self, tiny_scenario):
        direct = run_scenario(tiny_scenario.name)
        with EvaluationService(workers=2, autostart=False) as service:
            jobs = [service.submit(tiny_scenario.name) for _ in range(4)]
            assert len({job.id for job in jobs}) == 1
            assert service.queue.stats()["deduplicated"] == 3
            service.start()
            result = service.result(jobs[0], timeout=60)
            # One computation, bit-identical to the direct runner call.
            assert service.queue.stats()["succeeded"] == 1
            assert (result.report.baseline_energy_j
                    == direct.report.baseline_energy_j)
            assert (result.report.teamplay_energy_j
                    == direct.report.teamplay_energy_j)
            assert (result.report.baseline_time_s
                    == direct.report.baseline_time_s)
            assert (result.report.teamplay_time_s
                    == direct.report.teamplay_time_s)

    def test_concurrent_submitters_get_identical_results(self, tiny_scenario):
        direct = run_scenario(tiny_scenario.name)
        outcomes = []
        outcomes_lock = threading.Lock()
        # Submissions race each other while the pool is still stopped, so
        # exactly one job exists when the workers start — the dedup counter
        # is deterministic and all waiters share one computation.
        with EvaluationService(workers=2, autostart=False) as service:
            def submit_and_wait():
                job = service.submit(tiny_scenario.name)
                result = service.result(job, timeout=60)
                with outcomes_lock:
                    outcomes.append(result)

            threads = [threading.Thread(target=submit_and_wait)
                       for _ in range(4)]
            for thread in threads:
                thread.start()
            service.start()
            for thread in threads:
                thread.join()
            stats = service.stats()
        assert len(outcomes) == 4
        for result in outcomes:
            assert (result.report.teamplay_energy_j
                    == direct.report.teamplay_energy_j)
        # All four submissions resolved to one computed result; the shared
        # runs are observable in the queue's dedup counter.
        assert stats["queue"]["succeeded"] == 1
        assert (stats["queue"]["deduplicated"]
                + stats["store"]["hits"]) == 3

    def test_store_serves_repeats_after_completion(self, tiny_scenario):
        with EvaluationService(workers=1) as service:
            first = service.submit(tiny_scenario.name)
            service.result(first, timeout=60)
            again = service.submit(tiny_scenario.name)
            assert again is first
            assert service.stats()["store"]["hits"] == 1
            assert service.queue.stats()["succeeded"] == 1
            # use_cache=False forces a fresh computation.
            fresh = service.submit(tiny_scenario.name, use_cache=False)
            assert fresh is not first
            service.result(fresh, timeout=60)
            assert service.queue.stats()["succeeded"] == 2

    def test_one_store_miss_per_lookup(self, tiny_scenario):
        with EvaluationService(workers=1, autostart=False) as service:
            service.submit(tiny_scenario.name)  # fresh job
            assert service.stats()["store"]["misses"] == 1
            service.submit(tiny_scenario.name)  # joins the live job
            assert service.stats()["store"]["misses"] == 2
            service.submit(tiny_scenario.name, use_cache=False)  # no lookup
            store = service.stats()["store"]
            assert (store["hits"], store["misses"]) == (0, 2)

    def test_failed_job_raises_on_result(self, failing_scenario):
        with EvaluationService(workers=1) as service:
            job = service.submit(failing_scenario.name)
            with pytest.raises(JobError, match="deliberate failure"):
                service.result(job, timeout=60)
            assert job.state is JobState.FAILED

    def test_cancel_before_start(self, tiny_scenario):
        with EvaluationService(workers=1, autostart=False) as service:
            job = service.submit(tiny_scenario.name)
            assert service.cancel(job.id)
            with pytest.raises(JobError, match="cancelled"):
                service.result(job, timeout=1)

    def test_status_document(self, tiny_scenario):
        with EvaluationService(workers=1) as service:
            job = service.submit(tiny_scenario.name)
            service.result(job, timeout=60)
            document = service.status(job.id)
            assert document["state"] == "succeeded"
            assert document["request"]["scenario"] == tiny_scenario.name
            assert document["result"]["name"] == tiny_scenario.name
            assert service.status("job-999999") is None

    def test_sweep_preserves_order(self, tiny_scenario, capsys):
        names = [tiny_scenario.name, "uav-pa", tiny_scenario.name]
        assert scenarios_cli(["run", *names, "--jobs", "2", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)["scenarios"]
        assert [row["name"] for row in rows] == names

    def test_shared_cache_lifecycle_restored(self, tmp_path):
        platform = nucleo_stm32f091rc()
        assert process_analysis_cache(platform) is None
        with EvaluationService(workers=1, autostart=False):
            shared = process_analysis_cache(platform)
            assert shared is not None
            # A service inside another joins its caches and changes
            # nothing when it closes.
            with EvaluationService(workers=1, autostart=False):
                assert process_analysis_cache(platform) is shared
            assert process_analysis_cache(platform) is shared
            # One with its own directory shares fresh caches over that
            # store, and gives the outer caches back when it closes.
            with EvaluationService(workers=1, autostart=False,
                                   cache_dir=tmp_path / "inner") as inner:
                assert process_cache_store().directory == inner.cache_dir
                assert process_analysis_cache(platform) is not shared
            assert process_cache_store() is None
            assert process_analysis_cache(platform) is shared
        assert process_analysis_cache(platform) is None
        # An unusable directory fails before the service changes anything.
        blocker = tmp_path / "file"
        blocker.write_text("")
        with pytest.raises(PersistError):
            EvaluationService(workers=1, autostart=False, cache_dir=blocker)
        assert process_analysis_cache(platform) is None

    def test_scenarios_listing_matches_registry(self):
        with EvaluationService(workers=1, autostart=False) as service:
            names = {row["name"] for row in service.scenarios()}
        assert {"camera-pill", "uav-pa", "parking-dl-m0"} <= names


# ---------------------------------------------------------------------------
# Parallel sweep (the scenarios CLI's --jobs path)
# ---------------------------------------------------------------------------
def _strip_timings(document):
    # Per-pass wall-clock timings are diagnostics, inherently run-dependent;
    # every *result* field must match bit-for-bit.
    for row in document["scenarios"]:
        stats = row.pop("pipeline_stats")
        assert {entry["invocations"] > 0 for entry in stats.values()} == {True}
    return document


class TestParallelSweep:
    def test_sweep_scenarios_matches_serial(self, tiny_scenario, capsys):
        # Every run mode of ``scenarios run`` produces the rows of an
        # in-process run on a fresh shared cache.
        names = [tiny_scenario.name, "uav-pa"]
        with shared_analysis_caches():
            serial = [run_scenario(name) for name in names]
        expected = [row.summary() for row in serial]
        expected[0].pop("pipeline_stats")
        for flags in (["--jobs", "1"], ["--jobs", "2"],
                      ["--worker-mode", "process"]):
            assert scenarios_cli(["run", *names, "--json", *flags]) == 0
            rows = json.loads(capsys.readouterr().out)["scenarios"]
            _strip_timings({"scenarios": rows[:1]})
            assert rows == expected, flags
            assert (rows[0]["teamplay_energy_j"]
                    == serial[0].report.teamplay_energy_j)
            assert (rows[0]["baseline_time_s"]
                    == serial[0].report.baseline_time_s)
            assert (rows[1]["detail"]["adaptive_completed"]
                    == serial[1].detail.outcome.completed)

    def test_cli_jobs_flag_matches_serial_json(self, tiny_scenario, capsys):
        assert scenarios_cli(["run", tiny_scenario.name, "--json"]) == 0
        serial = _strip_timings(json.loads(capsys.readouterr().out))
        assert scenarios_cli(["run", tiny_scenario.name, "--jobs", "2",
                              "--json"]) == 0
        parallel = _strip_timings(json.loads(capsys.readouterr().out))
        assert parallel == serial

    def test_cli_process_workers_match_serial_json(self, tiny_scenario,
                                                   tmp_path, capsys):
        def run(cache_dir, *flags):
            before = parse_cache_stats()
            assert scenarios_cli(["run", tiny_scenario.name, "--json",
                                  "--profile", "--cache-dir", str(cache_dir),
                                  *flags]) == 0
            document = json.loads(capsys.readouterr().out)
            # Every scenario parses its source once, in whichever process
            # ran it: the parse counters cover the workers too.
            after = document["parse_cache"]
            assert (after["hits"] + after["misses"] - before["hits"]
                    - before["misses"]) >= len(document["scenarios"])
            return document

        serial = run(tmp_path / "serial")
        pooled = run(tmp_path / "pooled", "--jobs", "2",
                     "--worker-mode", "process")
        assert (_strip_timings(pooled)["scenarios"]
                == _strip_timings(serial)["scenarios"])
        assert pooled["scenarios"][0]["name"] == tiny_scenario.name
        assert pooled["scenarios"][0]["deadlines_met"] is True
        # Only the workers wrote to the directory; the parent sees their
        # records because the command refreshes its store.  ``cache_store``
        # is the service's ``store`` document, as GET /stats serves it.
        assert pooled["analysis_cache"]["store"] == pooled["cache_store"]
        assert pooled["cache_store"]["entries"] > 0
        # The analysis work ran in the workers: their counters arrive under
        # ``workers`` and sum into ``combined``, as in GET /stats.
        platform = tiny_scenario.platform
        analysis = pooled["analysis_cache"]
        assert analysis["platforms"] == {}
        assert len(analysis["workers"]) == 1
        (worker,) = analysis["workers"].values()
        assert worker["analysis"][platform]["misses"] > 0
        assert analysis["combined"] == worker["analysis"]
        assert worker["store"]["appends"] == pooled["cache_store"]["entries"]
        # ``store`` adds the workers' lookups and appends to the parent's,
        # so the worker that did all of them shows in it.
        for counter in ("hits", "misses", "appends"):
            assert pooled["cache_store"][counter] == worker["store"][counter]
        # Serial runs analyse in the parent.
        assert serial["analysis_cache"]["workers"] == {}
        assert (serial["analysis_cache"]["combined"][platform]["misses"]
                == worker["analysis"][platform]["misses"])

    def test_cli_process_workers_profile_counts_their_disk_hits(
            self, tiny_scenario, tmp_path, capsys):
        # In process mode the workers do every store lookup, so the store
        # counters --profile prints must add theirs to the parent's zeros.
        argv = ["run", tiny_scenario.name, "--cache-dir", str(tmp_path),
                "--jobs", "2", "--worker-mode", "process", "--profile"]
        assert scenarios_cli([*argv, "--json"]) == 0  # warms the directory
        cold = json.loads(capsys.readouterr().out)
        assert cold["cache_store"]["appends"] > 0
        assert scenarios_cli([*argv, "--json"]) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["analysis_cache"]["store"] == warm["cache_store"]
        assert warm["cache_store"]["hits"] >= 1
        assert warm["cache_store"]["appends"] == 0
        assert scenarios_cli(argv) == 0
        line = re.search(r"^analysis store: (\d+) disk hit\(s\), "
                         r"\d+ miss\(es\), 0 append\(s\)",
                         capsys.readouterr().out, re.MULTILINE)
        assert line is not None and int(line.group(1)) >= 1

    def test_process_mode_stats_store_agrees_with_the_cli(
            self, tiny_scenario, tmp_path, capsys):
        # One place sums the workers' store counters: the same cold
        # process-mode run reports the same disk lookups and appends
        # through GET /stats as through `scenarios run --json`.
        assert scenarios_cli(["run", tiny_scenario.name, "--json",
                              "--cache-dir", str(tmp_path / "cli"),
                              "--jobs", "2", "--worker-mode", "process"]) == 0
        cli = json.loads(capsys.readouterr().out)["cache_store"]
        with EvaluationService(workers=2, worker_mode="process",
                               cache_dir=str(tmp_path / "http")) as service:
            server = create_server(service)
            thread = threading.Thread(target=server.serve_forever,
                                      daemon=True)
            thread.start()
            try:
                address = server.server_address[:2]
                _, submitted = _http(address, "POST", "/jobs",
                                     {"scenario": tiny_scenario.name})
                assert _poll_job(address, submitted["id"])["state"] \
                    == "succeeded"
                status, stats = _http(address, "GET", "/stats")
            finally:
                server.shutdown()
                server.server_close()
        assert status == 200
        store = stats["analysis_cache"]["store"]
        (worker,) = stats["analysis_cache"]["workers"].values()
        assert cli["misses"] > 0 and cli["appends"] > 0
        for counter in ("hits", "misses", "appends"):
            assert store[counter] == cli[counter] == worker["store"][counter]

    def test_cli_rejects_bad_jobs(self, capsys):
        assert scenarios_cli(["run", "--all", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_service_cli_has_no_sweep_commands(self, capsys):
        # ``python -m repro.scenarios run`` is the one way to run a set of
        # scenarios without a server.
        for command in ("sweep", "warm"):
            with pytest.raises(SystemExit) as exit_info:
                service_cli([command, "--all"])
            assert exit_info.value.code == 2
            assert "invalid choice" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# HTTP API
# ---------------------------------------------------------------------------
@pytest.fixture
def http_service():
    with EvaluationService(workers=2) as service:
        server = create_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            yield service, server.server_address[:2]
        finally:
            server.shutdown()
            server.server_close()


def _http(address, method: str, path: str, payload=None):
    connection = http.client.HTTPConnection(*address, timeout=60)
    try:
        body = None if payload is None else json.dumps(payload)
        headers = {"Content-Type": "application/json"} if body else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        connection.close()


def _poll_job(address, job_id: str, timeout_s: float = 60.0) -> dict:
    deadline = time.monotonic() + timeout_s
    while True:
        status, document = _http(address, "GET", f"/jobs/{job_id}")
        assert status == 200
        if document["state"] not in ("pending", "running"):
            return document
        assert time.monotonic() < deadline, "job did not finish in time"
        time.sleep(0.05)


class TestHttpApi:
    def test_round_trip_matches_direct_run(self, http_service, tiny_scenario):
        _, address = http_service
        direct = run_scenario(tiny_scenario.name)
        status, submitted = _http(address, "POST", "/jobs",
                                  {"scenario": tiny_scenario.name})
        assert status in (200, 202)
        document = _poll_job(address, submitted["id"])
        assert document["state"] == "succeeded"
        summary = document["result"]
        # JSON floats round-trip exactly: the HTTP numbers equal the direct
        # runner's bit-for-bit.
        assert summary["baseline_time_s"] == direct.report.baseline_time_s
        assert summary["teamplay_time_s"] == direct.report.teamplay_time_s
        assert (summary["baseline_energy_j"]
                == direct.report.baseline_energy_j)
        assert (summary["teamplay_energy_j"]
                == direct.report.teamplay_energy_j)

    def test_duplicate_post_shares_job(self, http_service, tiny_scenario):
        service, address = http_service
        _, first = _http(address, "POST", "/jobs",
                         {"scenario": tiny_scenario.name, "generations": 2})
        _, second = _http(address, "POST", "/jobs",
                          {"scenario": tiny_scenario.name, "generations": 2})
        assert second["id"] == first["id"]
        assert second["submissions"] >= 2
        stats = service.stats()
        assert (stats["queue"]["deduplicated"] + stats["store"]["hits"]) >= 1
        _poll_job(address, first["id"])

    def test_scenarios_and_stats_endpoints(self, http_service):
        _, address = http_service
        status, listing = _http(address, "GET", "/scenarios")
        assert status == 200
        names = {row["name"] for row in listing["scenarios"]}
        assert {"camera-pill", "uav-sar", "uav-pa", "parking-dl-m0"} <= names
        status, stats = _http(address, "GET", "/stats")
        assert status == 200
        assert set(stats) == {"queue", "store", "workers", "pipeline",
                              "analysis_cache", "journal", "parse_cache",
                              "campaigns"}
        assert stats["campaigns"]["campaigns"] == 0
        assert set(stats["analysis_cache"]) == {"platforms", "combined",
                                                "workers", "store"}
        assert stats["journal"] is None  # no --journal on this fixture
        assert set(stats["parse_cache"]) == {"entries", "max_entries",
                                             "hits", "misses", "evictions"}
        status, jobs = _http(address, "GET", "/jobs")
        assert status == 200 and isinstance(jobs["jobs"], list)

    def test_error_paths(self, http_service):
        _, address = http_service
        status, document = _http(address, "POST", "/jobs",
                                 {"scenario": "no-such-scenario"})
        assert status == 404 and "unknown scenario" in document["error"]
        status, document = _http(address, "POST", "/jobs",
                                 {"scenario": "camera-pill",
                                  "flavour": "spicy"})
        assert status == 400 and "unknown job request" in document["error"]
        status, document = _http(address, "GET", "/jobs/job-999999")
        assert status == 404
        status, document = _http(address, "GET", "/no-such-path")
        assert status == 404
        status, document = _http(address, "POST", "/jobs")
        assert status == 400

    def test_jobs_listing_is_paginated(self, tiny_scenario):
        # A 1000-job backlog (stopped pool, distinct budgets so nothing
        # coalesces) must come back windowed, never as one unbounded body.
        with EvaluationService(workers=1, autostart=False,
                               max_pending=None) as service:
            server = create_server(service)
            thread = threading.Thread(target=server.serve_forever,
                                      daemon=True)
            thread.start()
            try:
                address = server.server_address[:2]
                for index in range(1000):
                    service.submit(tiny_scenario.name,
                                   generations=index + 1)
                status, page = _http(address, "GET", "/jobs")
                assert status == 200
                assert page["total"] == 1000
                assert page["offset"] == 0 and page["limit"] == 200
                assert len(page["jobs"]) == 200  # the default cap held
                status, page = _http(address, "GET",
                                     "/jobs?limit=50&offset=990")
                assert status == 200
                assert len(page["jobs"]) == 10  # tail window
                assert page["offset"] == 990 and page["limit"] == 50
                status, page = _http(address, "GET", "/jobs?limit=99999")
                assert status == 200 and page["limit"] == 1000  # hard cap
                status, document = _http(address, "GET", "/jobs?limit=0")
                assert status == 400
                status, document = _http(address, "GET", "/jobs?offset=-1")
                assert status == 400
                status, document = _http(address, "GET", "/jobs?limit=two")
                assert status == 400
            finally:
                server.shutdown()
                server.server_close()

    def test_batch_validation_is_atomic_and_indexed(self, http_service,
                                                    tiny_scenario):
        service, address = http_service
        submitted_before = service.queue.stats()["submitted"]
        # Malformed entries: every bad index reported, nothing enqueued.
        status, document = _http(address, "POST", "/jobs", {"batch": [
            {"scenario": tiny_scenario.name},
            {"scenario": tiny_scenario.name, "generations": 0},
            {"scenario": tiny_scenario.name, "flavour": "spicy"},
        ]})
        assert status == 400
        assert "entry 1" in document["error"]
        assert "entry 2" in document["error"]
        # Unknown scenario names keep the 404 mapping, also by index.
        status, document = _http(address, "POST", "/jobs", {"batch": [
            {"scenario": tiny_scenario.name},
            {"scenario": "no-such-scenario"},
        ]})
        assert status == 404
        assert "entry 1" in document["error"]
        assert service.queue.stats()["submitted"] == submitted_before
        # In-process, mixed unknown-name and shape errors aggregate too.
        with pytest.raises(JobError) as excinfo:
            service.submit_batch([
                {"scenario": tiny_scenario.name},
                {"scenario": "no-such-scenario"},
                {"scenario": tiny_scenario.name, "generations": 0},
            ])
        message = str(excinfo.value)
        assert "entry 1" in message and "entry 2" in message
        assert service.queue.stats()["submitted"] == submitted_before

    def test_delete_cancels_pending_job(self, tiny_scenario):
        # A stopped pool keeps the job pending so DELETE is deterministic.
        with EvaluationService(workers=1, autostart=False) as service:
            server = create_server(service)
            thread = threading.Thread(target=server.serve_forever,
                                      daemon=True)
            thread.start()
            try:
                address = server.server_address[:2]
                _, submitted = _http(address, "POST", "/jobs",
                                     {"scenario": tiny_scenario.name})
                assert submitted["state"] == "pending"
                status, document = _http(address, "DELETE",
                                         f"/jobs/{submitted['id']}")
                assert status == 200
                assert document["state"] == "cancelled"
                status, document = _http(address, "DELETE",
                                         f"/jobs/{submitted['id']}")
                assert status == 409
                status, _ = _http(address, "DELETE", "/jobs/job-999999")
                assert status == 404
            finally:
                server.shutdown()
                server.server_close()


# ---------------------------------------------------------------------------
# Golden parity through the service: E1/E2/E3/E6, bit for bit
# ---------------------------------------------------------------------------
class TestServiceGoldenParity:
    """The pinned paper fixtures, fetched through the service layer."""

    @pytest.fixture(scope="class")
    def service_results(self):
        with EvaluationService(workers=2) as service:
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
