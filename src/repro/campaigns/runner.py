"""Campaign records and the stage-driving runner.

A :class:`CampaignRecord` is to a campaign what a
:class:`~repro.service.jobs.Job` is to a request: lifecycle state, per-stage
:class:`StageRecord`\\ s, and an event waiters can block on.  The
:class:`CampaignRunner` drives a record's stages against an
:class:`~repro.service.core.EvaluationService`: each stage resolves its
submissions (static requests plus the parameterize hook over the previous
stage's results), submits them, waits for completion, applies the stage's
failure policy, and feeds the surviving results forward.

Resume is deliberately *re-derivation, not checkpoint restore*: a resumed
campaign re-drives every stage from the top, and the no-recompute guarantee
comes from the job layer — succeeded jobs replayed from the journal are
reused by identical submissions, so a re-driven stage's submissions return
terminal jobs instantly (counted per stage as
``dedup_hits``).  Deterministic hooks over deterministic results regenerate
identical requests, pinned by the per-stage :func:`stage_fingerprint`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Dict, List, Optional, Sequence

from repro.campaigns.hooks import get_parameterizer, resolve_hook_output
from repro.campaigns.spec import CampaignSpec, StageSpec, stage_fingerprint
from repro.errors import TeamPlayError
from repro.service.jobs import BatchResult, Job, JobRequest, JobState

#: How often a waiting campaign re-checks for cancellation/shutdown.
_WAIT_POLL_S = 0.1


class CampaignError(TeamPlayError):
    """Raised for unknown campaigns and failed-campaign result fetches."""


class CampaignState(str, Enum):
    """Lifecycle of a campaign: pending → running → one terminal state."""

    PENDING = "pending"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (CampaignState.SUCCEEDED, CampaignState.FAILED,
                        CampaignState.CANCELLED)


class StageState(str, Enum):
    """Lifecycle of one stage within a campaign."""

    PENDING = "pending"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    #: Never ran: the campaign stopped earlier, was cancelled, or the stage
    #: resolved to zero submissions.
    SKIPPED = "skipped"


@dataclass
class StageRecord:
    """Execution state of one stage of one campaign."""

    name: str
    index: int
    on_failure: str
    state: StageState = StageState.PENDING
    #: Digest of the stage's resolved submissions (see
    #: :func:`~repro.campaigns.spec.stage_fingerprint`).
    fingerprint: Optional[str] = None
    job_ids: List[str] = field(default_factory=list)
    #: Number of submissions the stage made (batch stages: 1).
    jobs: int = 0
    #: Submissions answered by an already-terminal job — a reuse/dedup hit,
    #: the resume path's "no re-execution" signal.
    dedup_hits: int = 0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    wall_s: Optional[float] = None
    error: Optional[str] = None
    #: The stage's successful :class:`ScenarioResult` objects, in
    #: submission order (what the next stage's hook receives).
    results: List[object] = field(default_factory=list, repr=False)
    #: JSON summaries of ``results`` (journaled, so restored records keep
    #: their per-stage outputs across restarts).
    result_summaries: List[Dict[str, object]] = field(default_factory=list)

    def as_dict(self, include_results: bool = True) -> Dict[str, object]:
        """JSON-ready stage document (the HTTP campaign view's rows)."""
        document: Dict[str, object] = {
            "name": self.name,
            "index": self.index,
            "state": self.state.value,
            "on_failure": self.on_failure,
            "fingerprint": self.fingerprint,
            "job_ids": list(self.job_ids),
            "jobs": self.jobs,
            "dedup_hits": self.dedup_hits,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "wall_s": self.wall_s,
        }
        if self.error is not None:
            document["error"] = self.error
        if include_results:
            document["results"] = [dict(entry)
                                   for entry in self.result_summaries]
        return document


@dataclass
class CampaignRecord:
    """One submitted campaign: its spec plus lifecycle state."""

    id: str
    spec: CampaignSpec
    priority: int = 0
    state: CampaignState = CampaignState.PENDING
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    error: Optional[str] = None
    stages: List[StageRecord] = field(default_factory=list)
    #: Restored from a journal after a restart (stages re-derive through
    #: the job-level dedup instead of recomputing).
    resumed: bool = False
    #: Set when the campaign reaches a terminal state.
    done: threading.Event = field(default_factory=threading.Event,
                                  repr=False)
    #: Cooperative cancellation flag, checked between waits.
    cancel_event: threading.Event = field(default_factory=threading.Event,
                                          repr=False)

    def __post_init__(self):
        if not self.stages:
            self.reset_stages()

    def reset_stages(self) -> None:
        """Fresh per-stage records matching the spec (used on resume)."""
        self.stages = [
            StageRecord(name=stage.name, index=index,
                        on_failure=stage.on_failure)
            for index, stage in enumerate(self.spec.stages)
        ]

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the campaign is terminal; ``False`` on timeout."""
        return self.done.wait(timeout)

    def as_dict(self, include_results: bool = True) -> Dict[str, object]:
        """JSON-ready campaign document (the HTTP API's view)."""
        document: Dict[str, object] = {
            "id": self.id,
            "name": self.spec.name,
            "title": self.spec.title,
            "state": self.state.value,
            "priority": self.priority,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "resumed": self.resumed,
            "cancel_requested": self.cancel_event.is_set(),
            "stages": [stage.as_dict(include_results=include_results)
                       for stage in self.stages],
        }
        if self.error is not None:
            document["error"] = self.error
        return document


def restore_campaign_records(events: Sequence[Dict[str, object]]
                             ) -> List[CampaignRecord]:
    """Rebuild campaign records from journaled campaign events.

    Mirrors :meth:`~repro.service.journal.JobJournal.replay` for jobs:
    records come back in submission order, each in its last journaled
    state.  Non-terminal records are the restart's resume backlog — the
    service re-drives them once its worker pool starts.
    """
    records: Dict[str, CampaignRecord] = {}
    order: List[str] = []
    for event in events:
        kind = event.get("event")
        if kind == "campaign_submit":
            record = CampaignRecord(
                id=event["id"],
                spec=CampaignSpec.from_dict(event["spec"]),
                priority=int(event.get("priority", 0)),
            )
            record.submitted_at = float(event["submitted_at"])
            records[record.id] = record
            order.append(record.id)
            continue
        record = records.get(event.get("id"))
        if record is None:
            continue  # stage/finish without its submit line (torn copy)
        if kind == "campaign_stage":
            index = event.get("index")
            if not isinstance(index, int) \
                    or not 0 <= index < len(record.stages):
                continue
            stage = record.stages[index]
            stage.state = StageState(event.get("state", "pending"))
            stage.fingerprint = event.get("fingerprint")
            stage.job_ids = list(event.get("job_ids", ()))
            stage.jobs = int(event.get("jobs", len(stage.job_ids)))
            stage.dedup_hits = int(event.get("dedup_hits", 0))
            stage.started_at = event.get("started_at")
            stage.finished_at = event.get("finished_at")
            stage.wall_s = event.get("wall_s")
            stage.error = event.get("error")
            stage.result_summaries = list(event.get("results", ()))
        elif kind == "campaign_finish":
            record.state = CampaignState(event.get("state", "failed"))
            record.started_at = event.get("started_at")
            record.finished_at = event.get("finished_at")
            record.error = event.get("error")
            if record.state.terminal:
                record.done.set()
    return [records[record_id] for record_id in order]


class CampaignRunner:
    """Drives one campaign's stages against an evaluation service.

    The runner is synchronous — :meth:`run` returns when the campaign is
    terminal (or abandoned because the service closed); the service wraps
    it in a per-campaign thread for the asynchronous submit API.  The
    ``journal`` (when present) receives a ``campaign_stage`` event per
    completed stage and a final ``campaign_finish``, which is what makes
    interrupted campaigns resumable.
    """

    def __init__(self, service, journal=None):
        self.service = service
        self.journal = journal

    # -------------------------------------------------------------- the drive --
    def run(self, record: CampaignRecord) -> CampaignRecord:
        """Drive ``record`` to a terminal state (mutating it in place)."""
        record.state = CampaignState.RUNNING
        record.started_at = time.time()
        if record.resumed:
            record.reset_stages()
        previous_results: List[object] = []
        failed_error: Optional[str] = None
        for stage_spec, stage in zip(record.spec.stages, record.stages):
            if failed_error is not None or record.cancel_event.is_set():
                break  # the remaining stages are marked skipped in _finish
            outcome = self._run_stage(record, stage_spec, stage,
                                      previous_results)
            if outcome is None:
                return record  # service closing: leave non-terminal, resume later
            if record.cancel_event.is_set():
                break
            if stage.state is StageState.FAILED:
                if stage_spec.on_failure == "stop":
                    failed_error = (f"stage {stage.name!r} failed: "
                                    f"{stage.error}")
                # "skip": previous results pass through unchanged.
                # "continue": the successful subset feeds forward.
                elif stage_spec.on_failure == "continue":
                    previous_results = outcome
            else:
                previous_results = outcome
        self._finish(record, failed_error)
        return record

    def _run_stage(self, record: CampaignRecord, stage_spec: StageSpec,
                   stage: StageRecord,
                   previous_results: List[object]
                   ) -> Optional[List[object]]:
        """Run one stage; returns its successful results (``None`` only
        when the service is closing and the campaign must be abandoned
        mid-flight for a later resume)."""
        stage.state = StageState.RUNNING
        stage.started_at = time.time()
        clock_start = time.monotonic()
        try:
            requests = self._resolve_requests(stage_spec, previous_results)
        except Exception as error:  # noqa: BLE001 — hook errors fail the stage
            self._finish_stage(record, stage, clock_start,
                               state=StageState.FAILED,
                               error=f"{type(error).__name__}: {error}")
            return []
        if not requests:
            # Nothing survived the hook's filter: the stage has no work,
            # and the previous results pass through to the next stage.
            self._finish_stage(record, stage, clock_start,
                               state=StageState.SKIPPED,
                               error=None)
            return previous_results
        stage.fingerprint = stage_fingerprint(stage_spec.name, requests)
        priority = record.priority + stage_spec.priority
        try:
            jobs = self._submit(stage_spec, requests, priority)
        except Exception as error:  # noqa: BLE001 — e.g. QueueFull
            self._finish_stage(record, stage, clock_start,
                               state=StageState.FAILED,
                               error=f"{type(error).__name__}: {error}")
            return []
        stage.job_ids = [job.id for job in jobs]
        stage.jobs = len(requests)
        # A submission answered by an already-terminal job never touched a
        # worker: that is the reuse/dedup (and resume-replay) fast path.
        stage.dedup_hits = sum(job.done.is_set() for job in jobs)
        if not self._wait_for(record, jobs):
            if record.cancel_event.is_set():
                self._cancel_stage_jobs(jobs)
                self._finish_stage(record, stage, clock_start,
                                   state=StageState.SKIPPED,
                                   error="campaign cancelled")
                return previous_results
            return None  # service closing
        results, errors = self._collect(stage_spec, jobs, requests)
        stage.results = results
        stage.result_summaries = [result.summary() for result in results]
        if errors:
            self._finish_stage(record, stage, clock_start,
                               state=StageState.FAILED,
                               error="; ".join(errors))
        else:
            self._finish_stage(record, stage, clock_start,
                               state=StageState.SUCCEEDED, error=None)
        return results

    # ------------------------------------------------------------- stage parts --
    def _resolve_requests(self, stage_spec: StageSpec,
                          previous_results: List[object]
                          ) -> List[JobRequest]:
        requests = list(stage_spec.requests)
        if stage_spec.parameterize is not None:
            hook = get_parameterizer(stage_spec.parameterize)
            output = hook(list(previous_results), **stage_spec.hook_args)
            requests.extend(resolve_hook_output(stage_spec.name, output))
        return requests

    def _submit(self, stage_spec: StageSpec,
                requests: List[JobRequest], priority: int) -> List[Job]:
        if stage_spec.batch:
            return [self.service.submit_batch(
                requests, priority=priority,
                use_cache=stage_spec.use_cache)]
        return [
            self.service.submit(
                request.scenario,
                generations=request.generations,
                population_size=request.population_size,
                profiling_runs=request.profiling_runs,
                postprocess=request.postprocess,
                priority=priority,
                use_cache=stage_spec.use_cache)
            for request in requests
        ]

    def _wait_for(self, record: CampaignRecord, jobs: List[Job]) -> bool:
        """Wait for every job; ``False`` on cancellation or shutdown."""
        for job in jobs:
            while not job.wait(_WAIT_POLL_S):
                if record.cancel_event.is_set():
                    return False
                if getattr(self.service, "closed", False):
                    return False
        return True

    def _cancel_stage_jobs(self, jobs: List[Job]) -> None:
        """Withdraw the cancelled stage's still-pending, unshared jobs.

        Jobs other submitters coalesced onto (``submissions > 1``) are left
        running — cancelling a campaign must not kill a computation someone
        else is waiting for.
        """
        for job in jobs:
            if not job.done.is_set() and job.submissions == 1:
                self.service.cancel(job.id)

    def _collect(self, stage_spec: StageSpec, jobs: List[Job],
                 requests: List[JobRequest]):
        """Successful results (request order) and per-job error strings."""
        results: List[object] = []
        errors: List[str] = []
        for job in jobs:
            if job.state is JobState.SUCCEEDED:
                if isinstance(job.result, BatchResult):
                    results.extend(job.result.results)
                else:
                    results.append(job.result)
            else:
                errors.append(f"job {job.id} "
                              f"({job.request.fingerprint()[:12]}): "
                              f"{job.error or job.state.value}")
        return results, errors

    def _finish_stage(self, record: CampaignRecord, stage: StageRecord,
                      clock_start: float, state: StageState,
                      error: Optional[str]) -> None:
        self._publish_stage(record, stage, state=state, error=error,
                            finished_at=time.time(),
                            wall_s=time.monotonic() - clock_start)

    def _publish_stage(self, record: CampaignRecord, stage: StageRecord,
                       **terminal) -> None:
        """Journal ``stage`` with its ``terminal`` fields, then set them.

        A GET sees the live record, so the event is appended first: a kill
        between the two steps then leaves a journaled (resumable) stage,
        never a terminal one nobody wrote down.
        """
        if self.journal is not None:
            self.journal.record_campaign_stage(record,
                                               replace(stage, **terminal))
        for name, value in terminal.items():
            setattr(stage, name, value)

    def _finish(self, record: CampaignRecord,
                failed_error: Optional[str]) -> None:
        # Stages the campaign never reached (stopped-on-failure or
        # cancelled) are journaled as skipped so a restored record shows
        # the same per-stage states the live one did.
        now = time.time()
        for stage in record.stages:
            if stage.state in (StageState.PENDING, StageState.RUNNING):
                self._publish_stage(record, stage, state=StageState.SKIPPED,
                                    finished_at=now)
        if record.cancel_event.is_set():
            terminal = {"state": CampaignState.CANCELLED,
                        "error": record.error or "cancelled"}
        elif failed_error is not None:
            terminal = {"state": CampaignState.FAILED, "error": failed_error}
        else:
            terminal = {"state": CampaignState.SUCCEEDED}
        terminal["finished_at"] = now
        # Journal before publishing, as for stages (see _publish_stage).
        if self.journal is not None:
            self.journal.record_campaign_finish(replace(record, **terminal))
        for name, value in terminal.items():
            setattr(record, name, value)
        record.done.set()
