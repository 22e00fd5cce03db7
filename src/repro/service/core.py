"""The :class:`EvaluationService` facade.

One object wires the service subsystem together: a thread-safe priority
:class:`~repro.service.queue.JobQueue` whose request-fingerprint dedup
also serves repeats from succeeded jobs, and a
:class:`~repro.service.workers.WorkerPool` whose workers drive the shared
:class:`~repro.scenarios.runner.ScenarioRunner` over the scenario registry
inside one :func:`~repro.compiler.engine.shared_analysis_caches` scope.
The HTTP layer (:mod:`repro.service.http`) and both CLIs (``python -m
repro.service`` and ``python -m repro.scenarios run``) are thin views over
this facade, so in-process callers, scenario sweeps and remote JSON
clients all share one code path.

Determinism contract: every scenario run is deterministic and all cache
layers are exact, so a reused succeeded job, a deduplicated live job or a
fresh computation are bit-for-bit interchangeable — which is what makes
coalescing identical submissions safe.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import ExitStack
from typing import Dict, List, Optional, Sequence, Union

from repro.compiler.engine import (
    process_analysis_cache_stats,
    process_cache_store_stats,
    shared_analysis_caches,
)
from repro.compiler.pipeline import profile_rows
from repro.counters import sum_counters
from repro.frontend import parse_cache_stats
from repro.scenarios.registry import UnknownScenarioError, get_scenario, \
    list_scenarios
from repro.scenarios.runner import ScenarioRunner
from repro.scenarios.spec import ScenarioResult
from repro.service.jobs import (
    BatchRequest,
    BatchResult,
    Job,
    JobError,
    JobRequest,
    JobState,
)
from repro.service.journal import JobJournal
from repro.service.queue import JobQueue
from repro.service.workers import WorkerPool


def execute_request(runner: ScenarioRunner,
                    request: Union[JobRequest, BatchRequest]):
    """Run one (possibly batch) job request through a scenario runner.

    The single executable definition of "running a request": thread workers
    call it on the service's runner, process workers call it in the worker
    process via :func:`run_request_in_process`, so both modes compute the
    identical bits.  A batch's requests run in order on the one runner.
    """
    if isinstance(request, BatchRequest):
        return BatchResult([execute_request(runner, entry)
                            for entry in request.requests])
    return runner.run(
        request.scenario,
        generations=request.generations,
        population_size=request.population_size,
        profiling_runs=request.profiling_runs,
        postprocess=request.postprocess,
    )


def _campaign_number(campaign_id: str) -> int:
    """The numeric suffix of a ``camp-NNNNNN`` id (0 for foreign ids).

    Replayed ids advance the service's campaign counter past every id the
    journal ever handed out, mirroring ``JobQueue.restore`` for job ids.
    """
    prefix, _, suffix = campaign_id.partition("-")
    if prefix == "camp" and suffix.isdigit():
        return int(suffix)
    return 0


class WorkerOutcome:
    """Envelope a pool worker ships back: the result plus cache counters.

    Worker processes have their *own* engine caches (forked from the
    service, then diverging), so the parent's ``process_analysis_cache_stats``
    cannot see their hits.  Every process-mode result carries a snapshot of
    the worker's cache counters; the service keeps the latest snapshot per
    worker pid and aggregates them in :meth:`EvaluationService.stats` —
    which is how ``GET /stats`` reports cache activity in process mode.
    """

    __slots__ = ("result", "cache_stats")

    def __init__(self, result, cache_stats: Dict[str, object]):
        self.result = result
        self.cache_stats = cache_stats


def worker_cache_snapshot() -> Dict[str, object]:
    """This process's engine/parse/persistent-store cache counters."""
    return {
        "pid": os.getpid(),
        "analysis": process_analysis_cache_stats(),
        "parse": parse_cache_stats(),
        "store": process_cache_store_stats(),
    }


def run_request_in_process(request: Union[JobRequest, BatchRequest]):
    """Process-pool worker entry point (top level, so it pickles).

    Receives the pickled request, runs it on a per-process runner, and
    returns the result wrapped in a :class:`WorkerOutcome` — pickled back
    over the executor's result channel.  Worker processes are forked from
    the service process, so the scenario registry (including any
    test-registered specs) and the service's shared analysis cache scope
    (plus any attached persistent store directory) come along.
    """
    result = execute_request(ScenarioRunner(), request)
    return WorkerOutcome(result, worker_cache_snapshot())


class EvaluationService:
    """Job-queue evaluation service over the scenario registry."""

    def __init__(self, workers: int = 2,
                 store_ttl_s: Optional[float] = None,
                 max_job_records: Optional[int] = 1024,
                 max_pending: Optional[int] = None,
                 worker_mode: str = "thread",
                 journal: Optional[object] = None,
                 journal_fsync: bool = False,
                 cache_dir: Optional[str] = None,
                 autostart: bool = True):
        """The service runs inside a
        :func:`~repro.compiler.engine.shared_analysis_caches` scope from
        construction to :meth:`close`, so every job shares one WCET/WCEC
        cache per platform; ``autostart=False`` leaves the worker pool
        stopped so tests can stage deterministic queue states.
        ``store_ttl_s`` stops reusing succeeded jobs that finished more
        than that many seconds ago; ``max_job_records`` bounds the kept job
        records, and with them the reuse of succeeded jobs;
        ``max_pending`` bounds the pending backlog — beyond it ``submit``
        raises :class:`~repro.service.queue.QueueFull` (HTTP 429).
        ``worker_mode="process"`` computes jobs in a process pool (true
        multi-core parallelism; results bit-identical to thread mode).
        ``journal`` names a JSONL path: lifecycle events append there and
        existing events replay *before* the pool starts, so pending jobs
        resume, completed results survive, and fingerprint dedup extends
        across restarts.  ``cache_dir`` attaches the persistent analysis
        tier (:mod:`repro.compiler.engine.persist`) under the shared cache,
        so WCET/WCEC tables are shared with every forked pool worker and
        survive restarts; the directory is validated (and created) up
        front, raising :class:`~repro.compiler.engine.persist.PersistError`
        before any state exists.
        """
        with ExitStack() as scope:
            store = scope.enter_context(shared_analysis_caches(cache_dir))
            #: The attached persistent store's directory, if any.
            self.cache_dir = None if store is None else store.directory
            self.runner = ScenarioRunner()
            self.queue = JobQueue(max_records=max_job_records,
                                  max_pending=max_pending,
                                  ttl_s=store_ttl_s)
            self.journal: Optional[JobJournal] = None
            if journal is not None:
                self.journal = (journal if isinstance(journal, JobJournal)
                                else JobJournal(journal,
                                                fsync=journal_fsync))
            self.pool = WorkerPool(self.queue, self._execute,
                                   workers=workers, mode=worker_mode,
                                   process_task=run_request_in_process)
            #: Cross-job rollup of per-pass compile timings, fed by every
            #: completed run; the GET /stats "pipeline" document.
            self._pipeline_totals: Dict[str, Dict[str, object]] = {}
            self._pipeline_jobs = 0
            self._pipeline_lock = threading.Lock()
            #: Latest cache-counter snapshot per worker pid (process mode).
            self._worker_cache_stats: Dict[int, Dict[str, object]] = {}
            self._worker_stats_lock = threading.Lock()
            self._closed = False
            #: Campaign orchestration state: records by id (insertion order
            #: = submission order), one drive thread per campaign, and the
            #: non-terminal records a journal replay queued for re-driving
            #: in :meth:`start`.  The campaign classes import lazily — the
            #: campaigns package itself imports ``repro.service.jobs``, so
            #: a module-level import here would cycle.
            self._campaign_records: Dict[str, object] = {}
            self._campaigns_lock = threading.Lock()
            self._campaign_counter = 0
            self._campaign_threads: List[threading.Thread] = []
            self._campaign_resume: List[object] = []
            self._campaign_runner = None
            if self.journal is not None:
                self._replay_journal()
            if autostart:
                self.start()
            # Constructed: the scope now ends in close(), not here.
            self._cache_scope = scope.pop_all()

    def _replay_journal(self) -> None:
        """Restore queue records from the journal.

        Pending jobs rejoin the queue (the workers recompute them once the
        pool starts); succeeded jobs — restored as their journaled summary
        documents — are reused by identical submissions, extending
        fingerprint dedup across the restart.
        """
        for job in self.journal.replay():
            self.queue.restore(job)
        from repro.campaigns.runner import restore_campaign_records
        for record in restore_campaign_records(
                self.journal.campaign_events()):
            self._campaign_records[record.id] = record
            self._campaign_counter = max(self._campaign_counter,
                                         _campaign_number(record.id))
            if not record.state.terminal:
                # The resume backlog: re-driven once the pool starts.  The
                # re-drive recomputes nothing the journal already holds —
                # every completed stage's submissions reuse the succeeded
                # jobs the replay above just restored.
                record.resumed = True
                self._campaign_resume.append(record)

    # ------------------------------------------------------------- lifecycle --
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has begun (campaign waits poll this)."""
        return self._closed

    def start(self) -> None:
        """Start the worker pool (idempotent; used with ``autostart=False``)
        and re-drive any campaigns the journal replayed non-terminal."""
        self.pool.start()
        with self._campaigns_lock:
            backlog, self._campaign_resume = self._campaign_resume, []
        for record in backlog:
            self._drive_campaign(record)

    def close(self, wait: bool = True) -> None:
        """Stop the workers, close the journal, restore shared-cache state.

        In-flight campaigns notice ``closed`` within one wait poll and
        abandon their record *non-terminal* — with a journal, the next
        service on the same path resumes them.
        """
        if self._closed:
            return
        self._closed = True
        with self._campaigns_lock:
            threads = list(self._campaign_threads)
        for thread in threads:
            thread.join(timeout=5.0 if wait else 0.2)
        self.pool.stop(wait=wait)
        if self.journal is not None:
            self.journal.close()
        self._cache_scope.close()

    def __enter__(self) -> "EvaluationService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------ submission --
    def submit(self, scenario: str, *,
               generations: Optional[int] = None,
               population_size: Optional[int] = None,
               profiling_runs: Optional[int] = None,
               postprocess: bool = True,
               priority: int = 0,
               use_cache: bool = True) -> Job:
        """Submit one evaluation; returns its (possibly shared) job.

        The scenario name is resolved against the registry immediately so
        unknown names fail at submission, not in a worker.  Identical
        requests coalesce: a repeat of a succeeded job returns that job
        without recomputation, and a live duplicate joins the in-flight job.
        ``use_cache=False`` skips the succeeded job (the queue still
        coalesces concurrent duplicates — two forced runs of the same
        request at the same time would compute the same bits twice).
        """
        get_scenario(scenario)
        request = JobRequest(
            scenario=scenario,
            generations=generations,
            population_size=population_size,
            profiling_runs=profiling_runs,
            postprocess=postprocess,
        )
        return self._submit_request(request, priority=priority,
                                    use_cache=use_cache)

    def submit_batch(self, requests: Sequence[Union[JobRequest, Dict[str, object]]],
                     *, priority: int = 0, use_cache: bool = True) -> Job:
        """Submit several requests as *one* job (one queue entry).

        A whole population/sweep coalesces into a single unit of work: one
        id to poll, one fingerprint for dedup, one worker execution whose
        sub-requests run in order on a shared runner (warm evaluation
        caches, the service-level analogue of the engine's batched
        population evaluation).  The job's result is a
        :class:`~repro.service.jobs.BatchResult` with per-request results in
        request order.

        Validation is all-up-front and atomic: *every* entry is checked
        (shape and scenario name) before anything is enqueued, and the
        rejection names each bad entry by index — a batch with one typo
        reports all its problems at once and enqueues nothing.
        """
        parsed: List[JobRequest] = []
        errors: List[str] = []
        unknown_only = True
        for index, entry in enumerate(requests):
            try:
                request = (entry if isinstance(entry, JobRequest)
                           else JobRequest.from_dict(entry))
                get_scenario(request.scenario)
            except UnknownScenarioError as error:
                errors.append(f"entry {index}: {error.args[0]}")
            except (JobError, TypeError) as error:
                errors.append(f"entry {index}: {error}")
                unknown_only = False
            else:
                parsed.append(request)
        if errors:
            message = ("invalid batch submission: " + "; ".join(errors))
            # All-unknown-scenario batches keep the single-submit error
            # class (and its HTTP 404); anything else is a malformed
            # request (400).
            if unknown_only:
                raise UnknownScenarioError(message)
            raise JobError(message)
        return self._submit_request(BatchRequest(tuple(parsed)),
                                    priority=priority, use_cache=use_cache)

    def _submit_request(self, request: Union[JobRequest, BatchRequest], *,
                        priority: int, use_cache: bool) -> Job:
        """Queue submission for single and batch jobs; only a fresh job
        is journaled."""
        job, _ = self.queue.submit(
            request, priority=priority, use_cache=use_cache,
            record=None if self.journal is None else self.journal.record_submit)
        return job

    def _execute(self, job: Job, compute=None):
        """Worker entry point: run the request and finish the job.

        Thread mode calls ``_execute(job)`` and the request runs on the
        service's runner; in process mode the pool passes ``compute``, a
        zero-argument callable resolving the result computed in a worker
        process from the pickled request.  Everything that touches shared
        state — pipeline-stats rollup, queue, journal — happens here,
        in the service process, under the appropriate locks.
        """
        try:
            if compute is not None:
                result = compute()
                if isinstance(result, WorkerOutcome):
                    self._note_worker_stats(result.cache_stats)
                    result = result.result
            else:
                result = execute_request(self.runner, job.request)
        except BaseException as error:
            # Finish (and journal) the failure here so both worker modes
            # record outcomes identically; the pool sees the job already
            # terminal and only counts the failure.
            self._finish(job, error=f"{type(error).__name__}: {error}")
            raise
        self._sum_pipeline_stats(result)
        self._finish(job, result=result)
        return result

    def _finish(self, job: Job, result=None,
                error: Optional[str] = None) -> None:
        """Journal ``job``'s outcome, then make it terminal in the queue.

        Journaling first means nothing — a waiter, a campaign stage, a
        poll — sees the job finished before a restart would too.
        """
        finished_at = time.time()
        if self.journal is not None:
            self.journal.record_finish(job, result, error, finished_at)
        self.queue.finish(job, result=result, error=error,
                          finished_at=finished_at)

    def _note_worker_stats(self, snapshot) -> None:
        """Keep the latest cache-counter snapshot a pool worker shipped.

        Counters are cumulative per worker process, so "latest per pid" is
        the correct aggregate (summing successive snapshots would double
        count); a respawned worker reuses its pid slot.
        """
        if not isinstance(snapshot, dict):
            return
        pid = snapshot.get("pid")
        if not isinstance(pid, int):
            return
        with self._worker_stats_lock:
            self._worker_cache_stats[pid] = snapshot

    def _sum_pipeline_stats(self, result) -> None:
        """Fold a result's per-pass timings into the cross-job rollup."""
        results = (result.results if isinstance(result, BatchResult)
                   else [result])
        merged_any = False
        with self._pipeline_lock:
            for entry in results:
                if entry.pipeline_stats is not None:
                    sum_counters(self._pipeline_totals, entry.pipeline_stats)
                    merged_any = True
            if merged_any:
                self._pipeline_jobs += 1

    # --------------------------------------------------------------- queries --
    def job(self, job_id: str) -> Optional[Job]:
        """The :class:`Job` record for ``job_id`` (``None`` if unknown or
        pruned beyond ``max_job_records``)."""
        return self.queue.get(job_id)

    def status(self, job_id: str) -> Optional[Dict[str, object]]:
        """JSON-ready job document, or ``None`` for unknown ids."""
        job = self.job(job_id)
        return None if job is None else job.as_dict()

    def cancel(self, job_id: str) -> bool:
        """Cancel a pending job; ``False`` once it is running or finished."""
        job = self.queue.get(job_id)
        cancelled = self.queue.cancel(job_id)
        if cancelled and self.journal is not None:
            self.journal.record_cancel(job)
        return cancelled

    def result(self, job: Union[Job, str],
               timeout: Optional[float] = None) -> ScenarioResult:
        """Block for a job's :class:`ScenarioResult` (a
        :class:`~repro.service.journal.SummaryOnlyResult` for a job replayed
        from the journal).

        Raises :class:`JobError` on failure, cancellation, timeout or an
        unknown job id.
        """
        if isinstance(job, str):
            record = self.job(job)
            if record is None:
                raise JobError(f"unknown job {job!r}")
            job = record
        if not job.wait(timeout):
            raise JobError(f"job {job.id} did not finish within {timeout}s")
        if job.state is JobState.FAILED:
            raise JobError(f"job {job.id} failed: {job.error}")
        if job.state is JobState.CANCELLED:
            raise JobError(f"job {job.id} was cancelled")
        return job.result

    # ------------------------------------------------------------- campaigns --
    def submit_campaign(self, spec, *, priority: int = 0):
        """Submit a campaign; returns its :class:`CampaignRecord`.

        ``spec`` is a registered campaign name, a JSON-style spec dict, or
        a :class:`~repro.campaigns.spec.CampaignSpec`.  Static stage
        requests are validated against the scenario registry up front (like
        :meth:`submit`, unknown names fail at submission); hook-generated
        requests are validated when their stage resolves.  The campaign
        runs on its own daemon thread — poll :meth:`campaign` or block in
        :meth:`campaign_result`.  ``priority`` offsets every stage job's
        queue priority (added to the per-stage priority).
        """
        from repro.campaigns.registry import get_campaign
        from repro.campaigns.runner import CampaignError, CampaignRecord
        from repro.campaigns.spec import CampaignSpec, CampaignSpecError
        if isinstance(priority, bool) or not isinstance(priority, int):
            raise CampaignSpecError(
                f"campaign priority must be an integer, got {priority!r}")
        if isinstance(spec, str):
            spec = get_campaign(spec)
        elif isinstance(spec, dict):
            spec = CampaignSpec.from_dict(spec)
        elif not isinstance(spec, CampaignSpec):
            raise CampaignSpecError(
                f"submit_campaign needs a campaign name, a spec dict or a "
                f"CampaignSpec, got {spec!r}")
        if self._closed:
            raise CampaignError("the service is closed")
        for stage in spec.stages:
            for request in stage.requests:
                get_scenario(request.scenario)
        with self._campaigns_lock:
            self._campaign_counter += 1
            record = CampaignRecord(
                id=f"camp-{self._campaign_counter:06d}",
                spec=spec, priority=priority)
            self._campaign_records[record.id] = record
        if self.journal is not None:
            self.journal.record_campaign_submit(record)
        self._drive_campaign(record)
        return record

    def _drive_campaign(self, record) -> None:
        """Run ``record`` on its own daemon thread via the shared runner."""
        from repro.campaigns.runner import CampaignRunner
        if self._campaign_runner is None:
            self._campaign_runner = CampaignRunner(self,
                                                   journal=self.journal)
        thread = threading.Thread(target=self._campaign_runner.run,
                                  args=(record,),
                                  name=f"campaign-{record.id}", daemon=True)
        with self._campaigns_lock:
            self._campaign_threads.append(thread)
        thread.start()

    def campaign(self, campaign_id: str):
        """The :class:`CampaignRecord` for an id (``None`` if unknown)."""
        with self._campaigns_lock:
            return self._campaign_records.get(campaign_id)

    def campaigns(self) -> List[object]:
        """Every known campaign record, in submission order."""
        with self._campaigns_lock:
            return list(self._campaign_records.values())

    def campaign_status(self, campaign_id: str,
                        include_results: bool = True
                        ) -> Optional[Dict[str, object]]:
        """JSON-ready campaign document, or ``None`` for unknown ids."""
        record = self.campaign(campaign_id)
        if record is None:
            return None
        return record.as_dict(include_results=include_results)

    def cancel_campaign(self, campaign_id: str) -> bool:
        """Request cancellation; ``False`` for unknown/terminal campaigns.

        Cancellation is cooperative: the runner notices between job waits,
        withdraws the stage's still-pending unshared jobs, and finishes the
        campaign as ``cancelled``.
        """
        record = self.campaign(campaign_id)
        if record is None or record.state.terminal:
            return False
        record.cancel_event.set()
        return True

    def campaign_result(self, campaign,
                        timeout: Optional[float] = None):
        """Block until a campaign succeeds; returns its terminal record.

        Raises :class:`~repro.campaigns.runner.CampaignError` on failure,
        cancellation, timeout or an unknown id.
        """
        from repro.campaigns.runner import CampaignError, CampaignState
        record = (self.campaign(campaign) if isinstance(campaign, str)
                  else campaign)
        if record is None:
            raise CampaignError(f"unknown campaign {campaign!r}")
        if not record.wait(timeout):
            raise CampaignError(
                f"campaign {record.id} did not finish within {timeout}s")
        if record.state is CampaignState.FAILED:
            raise CampaignError(
                f"campaign {record.id} failed: {record.error}")
        if record.state is CampaignState.CANCELLED:
            raise CampaignError(f"campaign {record.id} was cancelled")
        return record

    def campaigns_stats(self) -> Dict[str, object]:
        """Campaign rollup (the ``campaigns`` section of GET /stats)."""
        by_state: Dict[str, int] = {}
        jobs = dedup_hits = 0
        rows: List[Dict[str, object]] = []
        for record in self.campaigns():
            by_state[record.state.value] = (
                by_state.get(record.state.value, 0) + 1)
            stage_rows = []
            for stage in record.stages:
                jobs += stage.jobs
                dedup_hits += stage.dedup_hits
                stage_rows.append({
                    "name": stage.name,
                    "state": stage.state.value,
                    "jobs": stage.jobs,
                    "dedup_hits": stage.dedup_hits,
                    "wall_s": stage.wall_s,
                })
            rows.append({"id": record.id, "name": record.spec.name,
                         "state": record.state.value,
                         "resumed": record.resumed,
                         "stages": stage_rows})
        return {"campaigns": len(rows), "by_state": by_state,
                "jobs_submitted": jobs, "dedup_hits": dedup_hits,
                "records": rows}

    def scenarios(self) -> List[Dict[str, object]]:
        """Registry listing (the GET /scenarios document)."""
        return [spec.listing() for spec in list_scenarios()]

    def pipeline_stats(self) -> Dict[str, object]:
        """Per-pass compile timings aggregated across completed jobs.

        ``passes`` holds the raw cross-job counters (``PassManager.stats()``
        convention); ``profile`` the derived per-pass view (``avg_ms``,
        ``share_pct``) in table order — the same rows ``python -m
        repro.scenarios run --profile`` renders, so a dashboard can show
        service-side timings without re-deriving them.
        """
        with self._pipeline_lock:
            totals = {name: dict(row) for name, row
                      in self._pipeline_totals.items()}
            jobs = self._pipeline_jobs
        return {
            "jobs_reported": jobs,
            "passes": totals,
            "profile": profile_rows(totals),
        }

    def analysis_cache_stats(self) -> Dict[str, object]:
        """Cache counters across the service *and* its pool workers.

        ``platforms`` is this process's shared caches (all there is in
        thread mode); ``workers`` holds each process-mode worker's latest
        shipped snapshot (analysis/parse/persistent-store counters by pid);
        ``combined`` sums the per-platform analysis counters over parent
        and workers — the number a dashboard actually wants; ``store`` is
        the persistent-tier counters when ``cache_dir`` is attached: the
        parent's view of the shared file, with every worker's ``hits``,
        ``misses`` and ``appends`` added to the parent's.
        """
        with self._worker_stats_lock:
            workers = dict(self._worker_cache_stats)
        platforms = process_analysis_cache_stats()
        combined = sum_counters({}, platforms)
        store = process_cache_store_stats()
        for snapshot in workers.values():
            sum_counters(combined, snapshot.get("analysis"))
            if store is not None and snapshot.get("store") is not None:
                for counter in ("hits", "misses", "appends"):
                    store[counter] += snapshot["store"][counter]
        return {
            "platforms": platforms,
            "combined": combined,
            "workers": {str(pid): {"analysis": snapshot.get("analysis"),
                                   "parse": snapshot.get("parse"),
                                   "store": snapshot.get("store")}
                        for pid, snapshot in workers.items()},
            "store": store,
        }

    def stats(self) -> Dict[str, object]:
        """One snapshot across every service layer (the GET /stats body)."""
        return {
            "queue": self.queue.stats(),
            "store": self.queue.reuse_stats(),
            "workers": self.pool.stats(),
            "pipeline": self.pipeline_stats(),
            "journal": (None if self.journal is None
                        else self.journal.stats()),
            "campaigns": self.campaigns_stats(),
            "analysis_cache": self.analysis_cache_stats(),
            "parse_cache": parse_cache_stats(),
        }

