"""Thread-safe priority job queue with request-fingerprint deduplication.

``submit`` coalesces identical requests: while a job with the same request
fingerprint is still pending or running, another submission returns *that*
job instead of enqueueing a second computation — the paper's experiments
are deterministic, so identical submissions must share one run.  Higher
``priority`` values run first; submissions of equal priority run in FIFO
order.  Job records are kept (bounded) after completion so ``status`` keeps
answering; the least recently *finished* records are pruned beyond the cap.

Back-pressure: an optional ``max_pending`` bounds the number of *pending*
jobs.  A fresh submission beyond the bound raises :class:`QueueFull`
(deduplicated submissions always succeed — they join an existing job
instead of growing the queue); the HTTP layer maps the exception to a
``429 Too Many Requests`` with a ``Retry-After`` header.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

from repro.service.jobs import Job, JobError, JobRequest, JobState


class QueueFull(JobError):
    """Raised when a fresh submission would exceed ``max_pending``."""


class JobQueue:
    """Priority queue of :class:`Job` records with dedup and cancel."""

    def __init__(self, max_records: Optional[int] = 1024,
                 max_pending: Optional[int] = None):
        if max_records is not None and max_records < 1:
            raise ValueError(f"max_records must be >= 1, got {max_records}")
        if max_pending is not None and max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self.max_records = max_records
        self.max_pending = max_pending
        self._lock = threading.Lock()
        self._has_pending = threading.Condition(self._lock)
        #: Every known job, oldest first (insertion order = submission order).
        self._records: "OrderedDict[str, Job]" = OrderedDict()
        #: (-priority, seq, job_id) — heapq pops the smallest tuple, so
        #: higher priorities first, FIFO within one priority.
        self._heap: List[Tuple[int, int, str]] = []
        #: fingerprint -> job id of the one live (pending/running) job.
        self._live_by_fingerprint: Dict[str, str] = {}
        self._seq = itertools.count()
        #: Next fresh job number; a plain int (not ``itertools.count``) so
        #: journal replay can advance it past restored ids.
        self._next_id = 1
        #: Pending-job gauge, maintained incrementally so the back-pressure
        #: check in ``submit`` is O(1) rather than a record scan.
        self._pending = 0
        # Counters (monotonic; ``stats()`` derives the live gauges).
        # ``succeeded``/``failed`` are maintained in ``finish`` rather than
        # derived from the live records: record pruning evicts terminal
        # jobs, so a scan silently undercounts on a long-lived queue while
        # ``cancelled``/``rejected`` keep climbing.
        self._submitted = 0
        self._deduplicated = 0
        self._rejected = 0
        self._cancelled = 0
        self._succeeded = 0
        self._failed = 0
        self._evicted_records = 0

    # ------------------------------------------------------------- submission --
    def submit(self, request: JobRequest, priority: int = 0,
               record: Optional[Callable[[Job], None]] = None
               ) -> Tuple[Job, bool]:
        """Enqueue ``request``; returns ``(job, deduplicated)``.

        ``record(job)`` runs for a fresh job before any worker can claim
        it; the service journals the submission there, so a fast job's
        finish can never reach the journal ahead of its submission.

        When a live job with the same fingerprint exists, that job is
        returned with ``deduplicated=True`` (its ``submissions`` counter and
        priority are raised — a duplicate submission at higher priority
        must not wait behind the original's position; the stale heap entry
        is skipped lazily at claim time).

        Raises :class:`QueueFull` when ``max_pending`` fresh jobs are
        already waiting — duplicates of live jobs never raise, since they
        coalesce instead of growing the backlog.
        """
        fingerprint = request.fingerprint()
        with self._lock:
            self._submitted += 1
            live_id = self._live_by_fingerprint.get(fingerprint)
            if live_id is not None:
                job = self._records[live_id]
                job.note_submission()
                self._deduplicated += 1
                if (job.state is JobState.PENDING
                        and priority > job.priority):
                    job.priority = priority
                    heapq.heappush(self._heap,
                                   (-priority, next(self._seq), job.id))
                return job, True
            if (self.max_pending is not None
                    and self._pending >= self.max_pending):
                self._rejected += 1
                raise QueueFull(
                    f"queue is full: {self._pending} jobs pending "
                    f"(max_pending={self.max_pending})")
            job = Job(id=f"job-{self._next_id:06d}", request=request,
                      priority=priority)
            if record is not None:
                record(job)
            self._next_id += 1
            self._records[job.id] = job
            self._live_by_fingerprint[fingerprint] = job.id
            heapq.heappush(self._heap, (-priority, next(self._seq), job.id))
            self._pending += 1
            self._prune_records()
            self._has_pending.notify()
            return job, False

    def restore(self, job: Job) -> Job:
        """Re-insert a job record rebuilt from the persistent journal.

        Pending jobs rejoin the heap (and the dedup window) exactly as a
        fresh submission would; terminal jobs become queryable records again
        and count into the monotonic lifetime counters, so ``stats()`` keeps
        describing the journal's whole history across a restart.  The fresh
        job-id counter advances past every restored id so new submissions
        can never collide with journaled ones.
        """
        with self._lock:
            if job.id in self._records:
                raise JobError(f"job {job.id} is already in the queue")
            prefix, _, suffix = job.id.rpartition("-")
            if prefix == "job" and suffix.isdigit():
                self._next_id = max(self._next_id, int(suffix) + 1)
            self._records[job.id] = job
            if job.state is JobState.PENDING:
                fingerprint = job.fingerprint
                if fingerprint in self._live_by_fingerprint:
                    # Two live journal entries for one fingerprint cannot
                    # happen in a well-formed journal; keep the first and
                    # coalesce this record onto it rather than running the
                    # same computation twice after a replay.
                    live = self._records[self._live_by_fingerprint[fingerprint]]
                    del self._records[job.id]
                    live.note_submission()
                    self._deduplicated += 1
                    return live
                self._live_by_fingerprint[fingerprint] = job.id
                heapq.heappush(self._heap,
                               (-job.priority, next(self._seq), job.id))
                self._pending += 1
                self._has_pending.notify()
            elif job.state is JobState.SUCCEEDED:
                self._succeeded += 1
            elif job.state is JobState.FAILED:
                self._failed += 1
            elif job.state is JobState.CANCELLED:
                self._cancelled += 1
            self._prune_records()
            return job

    def _prune_records(self) -> None:
        """Drop the oldest *terminal* records beyond ``max_records``."""
        if self.max_records is None:
            return
        while len(self._records) > self.max_records:
            victim_id = next(
                (job_id for job_id, job in self._records.items()
                 if job.state.terminal), None)
            if victim_id is None:
                return  # every record is live; never evict those
            del self._records[victim_id]
            self._evicted_records += 1

    # ------------------------------------------------------------------ workers --
    def claim(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Pop the next pending job and mark it running.

        Blocks up to ``timeout`` seconds (forever when ``None``) for a job
        to become available; returns ``None`` on timeout.  Entries whose job
        was cancelled (or re-prioritised) are skipped lazily.
        """
        with self._lock:
            deadline = (None if timeout is None
                        else time.monotonic() + timeout)
            while True:
                job = self._pop_pending_locked()
                if job is not None:
                    job.state = JobState.RUNNING
                    job.started_at = time.time()
                    self._pending -= 1
                    return job
                if deadline is None:
                    self._has_pending.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._has_pending.wait(remaining):
                        return None

    def _pop_pending_locked(self) -> Optional[Job]:
        while self._heap:
            _, _, job_id = heapq.heappop(self._heap)
            job = self._records.get(job_id)
            if job is not None and job.state is JobState.PENDING:
                return job
        return None

    def finish(self, job: Job, result=None, error: Optional[str] = None,
               finished_at: Optional[float] = None) -> None:
        """Mark a claimed job terminal (at ``finished_at``, default now) and
        wake its waiters."""
        with self._lock:
            if job.state is not JobState.RUNNING:
                raise JobError(
                    f"job {job.id} is {job.state.value}, not running")
            job.result = result
            job.error = error
            job.state = (JobState.FAILED if error is not None
                         else JobState.SUCCEEDED)
            if error is not None:
                self._failed += 1
            else:
                self._succeeded += 1
            job.finished_at = (time.time() if finished_at is None
                               else finished_at)
            self._release_fingerprint_locked(job)
            # Completed jobs move to the back so record pruning drops the
            # least recently finished ones first.
            self._records.move_to_end(job.id)
        job.done.set()

    def cancel(self, job_id: str) -> bool:
        """Cancel a *pending* job; running/terminal jobs are not touched."""
        with self._lock:
            job = self._records.get(job_id)
            if job is None or job.state is not JobState.PENDING:
                return False
            job.state = JobState.CANCELLED
            job.finished_at = time.time()
            self._pending -= 1
            self._cancelled += 1
            self._release_fingerprint_locked(job)
        job.done.set()
        return True

    def _release_fingerprint_locked(self, job: Job) -> None:
        fingerprint = job.fingerprint
        if self._live_by_fingerprint.get(fingerprint) == job.id:
            del self._live_by_fingerprint[fingerprint]

    # ------------------------------------------------------------------ queries --
    def get(self, job_id: str) -> Optional[Job]:
        """The job record for ``job_id`` (``None`` for unknown/pruned ids)."""
        with self._lock:
            return self._records.get(job_id)

    def jobs(self) -> List[Job]:
        """Every known job record, oldest submission first."""
        with self._lock:
            return list(self._records.values())

    def stats(self) -> Dict[str, int]:
        """Counter snapshot, following the engine-cache ``stats()`` idiom."""
        with self._lock:
            states = [job.state for job in self._records.values()]
            return {
                "records": len(self._records),
                "max_records": self.max_records,
                "max_pending": self.max_pending,
                "submitted": self._submitted,
                "deduplicated": self._deduplicated,
                "rejected": self._rejected,
                # The incrementally maintained gauge the back-pressure check
                # uses — reported directly so the 429 threshold and the
                # stats document can never disagree.
                "pending": self._pending,
                "running": sum(s is JobState.RUNNING for s in states),
                # Monotonic, like cancelled/rejected: record pruning must
                # not make the lifetime totals shrink.
                "succeeded": self._succeeded,
                "failed": self._failed,
                "cancelled": self._cancelled,
                "evicted_records": self._evicted_records,
            }
