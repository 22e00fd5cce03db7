"""Persistent job journal of the evaluation service.

An append-only JSONL file records every job-lifecycle event — ``submit``,
``finish``, ``cancel`` — so a restarted ``serve --journal PATH`` replays the
file and carries on where the previous process stopped: still-pending jobs
rejoin the queue (and recompute), and succeeded jobs go back into the
:class:`~repro.service.queue.JobQueue`, where identical submissions reuse
them (so dedup extends across restarts) and their ids resolve again.

One JSON object per line, written under a lock and flushed per event, keeps
the format crash-tolerant: a torn final line (the process died mid-write)
is skipped on replay, and the next process to append first ends it with a
newline so its own events start on a fresh line.  Requests are
stored in their canonical ``as_dict`` form (the fingerprint input, so the
digest is stable across restarts); results are stored as their JSON
``summary`` document only.  Replay parses JSON and nothing else: every
succeeded job comes back with a :class:`SummaryOnlyResult` (a
:class:`~repro.service.jobs.BatchResult` of them for a batch), which serves
status documents, the HTTP API, campaign selection and fingerprint dedup.
Older journals that also carry a pickled copy of each result replay the
same way: that field is never read.

Determinism makes all of this safe: a replayed summary, a deduplicated run
and a fresh computation report bit-for-bit the same numbers.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Dict, List, Optional

from repro.compiler.engine.persist import terminate_torn_tail
from repro.service.jobs import (
    BatchRequest,
    BatchResult,
    Job,
    JobState,
    request_from_dict,
)


class SummaryOnlyResult:
    """A journaled result, restored as its JSON ``summary()`` document.

    Enough for status documents, the HTTP API and the selection helpers
    (:mod:`repro.scenarios.selection`); in-process callers that need the
    full result object recompute it (``use_cache=False``) — results are
    deterministic, so the recomputation is bit-for-bit the same run.
    """

    def __init__(self, summary: Dict[str, object]):
        self._summary = dict(summary)

    def summary(self) -> Dict[str, object]:
        return dict(self._summary)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"SummaryOnlyResult({self._summary.get('name')!r})"


class JobJournal:
    """Append-only JSONL journal of job submissions and outcomes."""

    def __init__(self, path, fsync: bool = False):
        """``fsync=True`` forces every event to disk before returning —
        durable across power loss, measurably slower per job.  The default
        flushes to the OS (durable across process crashes)."""
        self.path = os.fspath(path)
        self.fsync = fsync
        self._lock = threading.Lock()
        self._handle = None
        self._events_written = 0
        self._replayed_jobs = 0
        self._skipped_lines = 0
        #: Raw ``campaign_*`` events seen by :meth:`replay`, in file order;
        #: the campaign layer restores its records from these (see
        #: :func:`repro.campaigns.runner.restore_campaign_records`).
        self._campaign_events: List[Dict[str, object]] = []

    # ---------------------------------------------------------------- write --
    def _append(self, event: Dict[str, object]) -> None:
        with self._lock:
            if self._handle is None:
                directory = os.path.dirname(self.path)
                if directory:
                    os.makedirs(directory, exist_ok=True)
                self._handle = open(self.path, "a+b")
                # Once per handle: every later event ends with a newline.
                terminate_torn_tail(self._handle)
            self._handle.write(
                (json.dumps(event, sort_keys=True) + "\n").encode("utf-8"))
            self._handle.flush()
            if self.fsync:
                os.fsync(self._handle.fileno())
            self._events_written += 1

    def record_submit(self, job: Job) -> None:
        """Journal a freshly enqueued job (dedup hits are not events: they
        coalesce onto the recorded job and carry no state of their own)."""
        self._append({
            "event": "submit",
            "id": job.id,
            "request": job.request.as_dict(),
            "priority": job.priority,
            "submitted_at": job.submitted_at,
        })

    def record_finish(self, job: Job, result=None,
                      error: Optional[str] = None,
                      finished_at: Optional[float] = None) -> None:
        """Journal a terminal outcome (success with result, or failure).

        The service journals an outcome before the queue makes the job
        terminal, so it passes the outcome in; without ``finished_at`` the
        job's own terminal fields are journaled.
        """
        if finished_at is None:
            result, error, finished_at = job.result, job.error, job.finished_at
        event: Dict[str, object] = {
            "event": "finish",
            "id": job.id,
            "state": (JobState.FAILED if error is not None
                      else JobState.SUCCEEDED).value,
            "started_at": job.started_at,
            "finished_at": finished_at,
        }
        if error is not None:
            event["error"] = error
        if result is not None:
            event["summary"] = result.summary()
        self._append(event)

    def record_cancel(self, job: Job) -> None:
        """Journal a cancelled pending job."""
        self._append({
            "event": "cancel",
            "id": job.id,
            "finished_at": job.finished_at,
        })

    # ------------------------------------------------------ campaign events --
    # Campaigns journal three additional event kinds.  Their job
    # submissions are regular ``submit``/``finish`` events, so a campaign
    # adds only its *orchestration* state: which spec was submitted, how
    # each stage ended (with result summaries — full results live in the
    # stage jobs' own finish events), and the campaign's terminal state.
    def record_campaign_submit(self, record) -> None:
        """Journal a freshly submitted campaign (spec in canonical form)."""
        self._append({
            "event": "campaign_submit",
            "id": record.id,
            "spec": record.spec.as_dict(),
            "priority": record.priority,
            "submitted_at": record.submitted_at,
        })

    def record_campaign_stage(self, record, stage) -> None:
        """Journal one stage's terminal state within a campaign."""
        event = {"event": "campaign_stage", "id": record.id}
        event.update(stage.as_dict(include_results=True))
        self._append(event)

    def record_campaign_finish(self, record) -> None:
        """Journal a campaign's terminal outcome."""
        event: Dict[str, object] = {
            "event": "campaign_finish",
            "id": record.id,
            "state": record.state.value,
            "started_at": record.started_at,
            "finished_at": record.finished_at,
        }
        if record.error is not None:
            event["error"] = record.error
        self._append(event)

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "JobJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # --------------------------------------------------------------- replay --
    def replay(self) -> List[Job]:
        """Rebuild the job records a previous process journaled.

        Returns jobs in submission order, each in its final journaled state:
        ``pending`` (submitted, never finished — the resume backlog),
        succeeded with a :class:`SummaryOnlyResult` (a batch with a
        :class:`~repro.service.jobs.BatchResult` of them), or
        failed/cancelled.  Torn or malformed lines are counted and skipped,
        so a crash mid-append cannot poison the restart.
        """
        jobs: "Dict[str, Job]" = {}
        order: List[str] = []
        if not os.path.exists(self.path):
            return []
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                    self._apply(event, jobs, order)
                except (ValueError, KeyError, TypeError):
                    self._skipped_lines += 1
        restored = [jobs[job_id] for job_id in order]
        self._replayed_jobs = len(restored)
        return restored

    def campaign_events(self) -> List[Dict[str, object]]:
        """The raw campaign events the last :meth:`replay` encountered."""
        return list(self._campaign_events)

    def _apply(self, event: Dict[str, object], jobs: Dict[str, Job],
               order: List[str]) -> None:
        kind = event["event"]
        if isinstance(kind, str) and kind.startswith("campaign_"):
            # Campaign orchestration events are replayed by the campaign
            # layer, not here — collecting them keeps them out of the
            # job-id lookup below (their ids are campaign ids).
            self._campaign_events.append(event)
            return
        if kind == "submit":
            job = Job(
                id=event["id"],
                request=request_from_dict(event["request"]),
                priority=int(event.get("priority", 0)),
            )
            job.submitted_at = float(event["submitted_at"])
            jobs[job.id] = job
            order.append(job.id)
            return
        job = jobs.get(event.get("id"))
        if job is None:
            # A finish/cancel whose submit line predates this journal file
            # (e.g. a truncated copy); nothing to attach it to.
            self._skipped_lines += 1
            return
        if kind == "cancel":
            job.state = JobState.CANCELLED
            job.finished_at = event.get("finished_at")
            job.done.set()
            return
        if kind != "finish":
            self._skipped_lines += 1
            return
        job.state = JobState(event["state"])
        job.started_at = event.get("started_at")
        job.finished_at = event.get("finished_at")
        job.error = event.get("error")
        summary = event.get("summary")
        if summary is not None:
            if isinstance(job.request, BatchRequest):
                job.result = BatchResult(
                    [SummaryOnlyResult(row) for row in summary["batch"]])
            else:
                job.result = SummaryOnlyResult(summary)
        job.done.set()

    # ---------------------------------------------------------------- stats --
    def stats(self) -> Dict[str, object]:
        """Counter snapshot (surfaced under ``GET /stats`` as ``journal``)."""
        with self._lock:
            return {
                "path": self.path,
                "fsync": self.fsync,
                "events_written": self._events_written,
                "replayed_jobs": self._replayed_jobs,
                "replayed_campaign_events": len(self._campaign_events),
                "skipped_lines": self._skipped_lines,
            }
