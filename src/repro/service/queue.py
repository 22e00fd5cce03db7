"""Thread-safe priority job queue with request-fingerprint deduplication.

``submit`` coalesces identical requests — the paper's experiments are
deterministic, so identical submissions must share one run.  While a job
with the same request fingerprint is pending or running, another
submission joins *that* job; once it has succeeded, a submission gets the
succeeded job back without recomputation (unless ``use_cache=False``).  A
failed or cancelled job releases its fingerprint, so the next identical
submission runs afresh.  Higher ``priority`` values run first; submissions
of equal priority run in FIFO order.

Job records are kept (bounded) after completion so ``status`` keeps
answering; the least recently *finished* records are pruned beyond
``max_records``, and a pruned succeeded job is no longer reused.  An
optional ``ttl_s`` also bounds reuse by age: a succeeded job finished more
than ``ttl_s`` ago is expired lazily — when a submission or a stats
snapshot touches it — and counted under ``expiries``.  Expiry changes
*when* a result is recomputed, never its value, so it is safe at any TTL.

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
                 max_pending: Optional[int] = None,
                 ttl_s: Optional[float] = None,
                 clock: Callable[[], float] = time.monotonic):
        """``ttl_s=None`` reuses a succeeded job until its record is
        pruned; ``clock`` is an injection point for deterministic expiry
        tests."""
        if max_records is not None and max_records < 1:
            raise ValueError(f"max_records must be >= 1, got {max_records}")
        if max_pending is not None and max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        if ttl_s is not None and ttl_s <= 0:
            raise ValueError(f"ttl_s must be > 0, got {ttl_s}")
        self.max_records = max_records
        self.max_pending = max_pending
        self.ttl_s = ttl_s
        self._clock = clock
        self._lock = threading.Lock()
        self._has_pending = threading.Condition(self._lock)
        #: Every known job, oldest first (insertion order = submission order).
        self._records: "OrderedDict[str, Job]" = OrderedDict()
        #: (-priority, seq, job_id) — heapq pops the smallest tuple, so
        #: higher priorities first, FIFO within one priority.
        self._heap: List[Tuple[int, int, str]] = []
        #: fingerprint -> (job id, succeeded-at ``clock`` reading) of the
        #: one live (pending/running) job, whose timestamp is ``None``, or
        #: of the latest succeeded job whose record is still kept.
        self._by_fingerprint: Dict[str, Tuple[str, Optional[float]]] = {}
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
        # Reuse counters (the ``store`` section of ``GET /stats``).
        self._hits = 0
        self._misses = 0
        self._expiries = 0

    # ------------------------------------------------------------- submission --
    def submit(self, request: JobRequest, priority: int = 0,
               record: Optional[Callable[[Job], None]] = None,
               use_cache: bool = True) -> Tuple[Job, bool]:
        """Enqueue ``request``; returns ``(job, deduplicated)``.

        ``record(job)`` runs for a fresh job before any worker can claim
        it; the service journals the submission there, so a fast job's
        finish can never reach the journal ahead of its submission.

        When a fresh succeeded job with the same fingerprint exists and
        ``use_cache`` is set, that job is returned with
        ``deduplicated=True`` and counted as a hit, not as a submission.
        Otherwise, when a live job with the same fingerprint exists, that
        job is returned with ``deduplicated=True`` (its ``submissions``
        counter and priority are raised — a duplicate submission at higher
        priority must not wait behind the original's position; the stale
        heap entry is skipped lazily at claim time).  ``use_cache=False``
        skips only the succeeded job: a forced run still joins a live one,
        and a fresh forced run takes the fingerprint over.

        Raises :class:`QueueFull` when ``max_pending`` fresh jobs are
        already waiting — duplicates of live jobs never raise, since they
        coalesce instead of growing the backlog.
        """
        fingerprint = request.fingerprint()
        with self._lock:
            entry = self._by_fingerprint.get(fingerprint)
            if entry is not None and entry[1] is not None:
                job_id, succeeded_at = entry
                if self._expired(succeeded_at):
                    del self._by_fingerprint[fingerprint]
                    self._expiries += 1
                elif use_cache:
                    self._hits += 1
                    job = self._records[job_id]
                    job.submissions += 1
                    return job, True
                entry = None
            if use_cache:
                self._misses += 1
            self._submitted += 1
            if entry is not None:
                job = self._records[entry[0]]
                job.submissions += 1
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
            self._by_fingerprint[fingerprint] = (job.id, None)
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
        can never collide with journaled ones.  A succeeded job is reused
        as if it had just finished, so ``ttl_s`` counts from the restart.
        """
        with self._lock:
            if job.id in self._records:
                raise JobError(f"job {job.id} is already in the queue")
            prefix, _, suffix = job.id.rpartition("-")
            if prefix == "job" and suffix.isdigit():
                self._next_id = max(self._next_id, int(suffix) + 1)
            self._records[job.id] = job
            fingerprint = job.fingerprint
            entry = self._by_fingerprint.get(fingerprint)
            live = entry is not None and entry[1] is None
            if job.state is JobState.PENDING:
                if live:
                    # Two live journal entries for one fingerprint cannot
                    # happen in a well-formed journal; keep the first and
                    # coalesce this record onto it rather than running the
                    # same computation twice after a replay.
                    del self._records[job.id]
                    first = self._records[entry[0]]
                    first.submissions += 1
                    self._deduplicated += 1
                    return first
                self._by_fingerprint[fingerprint] = (job.id, None)
                heapq.heappush(self._heap,
                               (-job.priority, next(self._seq), job.id))
                self._pending += 1
                self._has_pending.notify()
            elif job.state is JobState.SUCCEEDED:
                self._succeeded += 1
                if not live:
                    self._by_fingerprint[fingerprint] = (job.id,
                                                         self._clock())
            elif job.state is JobState.FAILED:
                self._failed += 1
            elif job.state is JobState.CANCELLED:
                self._cancelled += 1
            self._prune_records()
            return job

    def _prune_records(self) -> None:
        """Drop the oldest *terminal* records beyond ``max_records``; a
        pruned succeeded job is no longer reused."""
        if self.max_records is None:
            return
        while len(self._records) > self.max_records:
            victim = next(
                (job for job in self._records.values()
                 if job.state.terminal), None)
            if victim is None:
                return  # every record is live; never evict those
            del self._records[victim.id]
            self._release_fingerprint_locked(victim)
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
                self._release_fingerprint_locked(job)
            else:
                self._succeeded += 1
                self._by_fingerprint[job.fingerprint] = (job.id,
                                                         self._clock())
            job.finished_at = (time.time() if finished_at is None
                               else finished_at)
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
        entry = self._by_fingerprint.get(fingerprint)
        if entry is not None and entry[0] == job.id:
            del self._by_fingerprint[fingerprint]

    def _expired(self, succeeded_at: float) -> bool:
        return (self.ttl_s is not None
                and self._clock() - succeeded_at > self.ttl_s)

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

    def reuse_stats(self) -> Dict[str, object]:
        """Succeeded-job reuse counters (the ``store`` section of
        ``GET /stats``); expires every out-of-date entry first."""
        with self._lock:
            entries = 0
            for fingerprint, (_, succeeded_at) in list(
                    self._by_fingerprint.items()):
                if succeeded_at is None:
                    continue
                if self._expired(succeeded_at):
                    del self._by_fingerprint[fingerprint]
                    self._expiries += 1
                else:
                    entries += 1
            return {
                "entries": entries,
                "ttl_s": self.ttl_s,
                "hits": self._hits,
                "misses": self._misses,
                "expiries": self._expiries,
            }
