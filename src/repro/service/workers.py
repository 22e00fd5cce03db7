"""Worker pool of the evaluation service.

A :class:`WorkerPool` runs N daemon threads that claim jobs from a
:class:`~repro.service.queue.JobQueue` and hand them to the service's
execute callable.  The callable — not the pool — decides what running a job
means (the service drives :class:`~repro.scenarios.runner.ScenarioRunner`
under the process-wide shared analysis cache) and reports the outcome back
through ``queue.finish``; the pool guarantees that *every* claimed job is
finished even when the handler raises, so waiters never hang on a crashed
worker.

Two worker modes share the claim/finish plumbing:

* ``mode="thread"`` (the default): the claiming thread runs the execute
  callable itself.  Concurrency is cooperative — the GIL serialises the
  pure-Python analysis work — but intake, priority scheduling and the
  single shared analysis cache all live in one process.
* ``mode="process"``: the claiming threads become dispatchers over a
  ``concurrent.futures`` process pool.  Each claimed job's *request* is
  pickled into a worker process, ``process_task`` (a top-level picklable
  callable) computes the result there, and the pickled result returns over
  the executor's result channel to the dispatcher, which completes the job
  in the main process — so the queue and journal never leave the
  parent while the GIL-bound analysis work truly runs in parallel.
  Scenario runs are deterministic, so process-mode results are bit-for-bit
  identical to thread-mode ones (caches are per-process; they change when
  work is recomputed, never its value).
"""

from __future__ import annotations

import os
import threading
import time
from typing import Callable, Dict, List, Optional

from repro.service.jobs import Job, JobState
from repro.service.queue import JobQueue

#: How long an idle worker waits on the queue before re-checking shutdown.
_IDLE_POLL_S = 0.05

#: The worker-mode axis: in-process threads or a fan-out process pool.
WORKER_MODES = ("thread", "process")

#: How often a process worker's orphan watchdog re-checks its parent.
_PARENT_POLL_S = 0.5


def _exit_when_orphaned(parent_pid: int) -> None:
    while os.getppid() == parent_pid:
        time.sleep(_PARENT_POLL_S)
    # Reparented: the service process died without shutting the pool down
    # (e.g. SIGKILL).  A forked worker never sees EOF on the executor's call
    # pipe — it inherited the write end itself — so without this it would
    # block forever while holding every inherited fd, including the HTTP
    # listening socket, which keeps the port bound and blocks a restart.
    os._exit(1)


def _process_worker_init(parent_pid: int) -> None:
    """Per-worker-process initializer: exit when the service process dies.

    Runs in each pool worker at fork time; the daemon watchdog thread it
    starts costs one ``getppid`` syscall per poll and guarantees orphaned
    workers release their inherited file descriptors promptly, so
    ``serve --journal`` restarts can re-bind the same port right away.
    """
    threading.Thread(target=_exit_when_orphaned, args=(parent_pid,),
                     daemon=True, name="orphan-watch").start()


class WorkerPool:
    """Fixed-size pool of daemon threads draining a job queue."""

    def __init__(self, queue: JobQueue, execute: Callable[..., object],
                 workers: int = 2, name: str = "evalsvc",
                 mode: str = "thread",
                 process_task: Optional[Callable[[object], object]] = None):
        """``execute(job)`` runs and completes one job in thread mode; in
        process mode the pool calls ``execute(job, compute)`` where
        ``compute()`` resolves the result computed in a worker process from
        the pickled ``job.request`` by ``process_task`` (which must be a
        module-level, picklable callable).
        """
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if mode not in WORKER_MODES:
            raise ValueError(
                f"worker mode must be one of {WORKER_MODES}, got {mode!r}")
        if mode == "process" and process_task is None:
            raise ValueError("process mode needs a picklable process_task")
        self.queue = queue
        self.execute = execute
        self.workers = workers
        self.name = name
        self.mode = mode
        self.process_task = process_task
        self._executor = None
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._busy = 0
        self._processed = 0
        self._failed = 0

    # ------------------------------------------------------------- lifecycle --
    def start(self) -> None:
        """Spawn the worker threads (idempotent while running).

        Each generation of workers captures its own stop event: after a
        ``stop(wait=False)``, the old threads still see *their* (set) event
        and drain within one idle poll, so a restart can never resurrect
        them alongside the new generation.
        """
        if self._threads:
            return
        self._stop = threading.Event()
        if self.mode == "process" and self._executor is None:
            import concurrent.futures
            self._executor = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_process_worker_init,
                initargs=(os.getpid(),))
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._run, args=(self._stop,),
                name=f"{self.name}-worker-{index}", daemon=True)
            self._threads.append(thread)
            thread.start()

    def stop(self, wait: bool = True) -> None:
        """Ask the workers to exit after their current job."""
        self._stop.set()
        if wait:
            for thread in self._threads:
                thread.join()
        self._threads = []
        if self._executor is not None:
            self._executor.shutdown(wait=wait)
            self._executor = None

    @property
    def running(self) -> bool:
        return bool(self._threads) and not self._stop.is_set()

    def join(self, timeout: Optional[float] = None) -> bool:
        """Block until the queue is drained (best effort); thin helper for
        tests and the in-process sweep — callers usually wait on jobs."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            stats = self.queue.stats()
            with self._lock:
                busy = self._busy
            if stats["pending"] == 0 and stats["running"] == 0 and busy == 0:
                return True
            if deadline is not None and time.monotonic() > deadline:
                return False
            time.sleep(_IDLE_POLL_S)

    # ------------------------------------------------------------- the loop --
    def _run(self, stop_event: threading.Event) -> None:
        while not stop_event.is_set():
            job = self.queue.claim(timeout=_IDLE_POLL_S)
            if job is None:
                continue
            with self._lock:
                self._busy += 1
            try:
                self._process(job)
            finally:
                with self._lock:
                    self._busy -= 1

    def _process(self, job: Job) -> None:
        try:
            if self._executor is not None:
                # Process mode: the pickled request computes in a worker
                # process; ``future.result`` is the result channel, resolved
                # *inside* the execute callable so the service can journal
                # and finish failures uniformly across both modes.
                future = self._executor.submit(self.process_task, job.request)
                result = self.execute(job, future.result)
            else:
                result = self.execute(job)
        except BaseException as error:  # noqa: BLE001 — jobs must terminate
            if job.state is JobState.RUNNING:
                # Handlers may have finished (and journaled) the failure
                # themselves before re-raising; don't finish twice.
                self.queue.finish(
                    job, error=f"{type(error).__name__}: {error}")
            with self._lock:
                self._failed += 1
            return
        if job.state is JobState.RUNNING:
            # Handlers may finish the job themselves (e.g. to attach extra
            # bookkeeping); finish it here otherwise.
            self.queue.finish(job, result=result)
        with self._lock:
            self._processed += 1

    # ------------------------------------------------------------------ stats --
    def stats(self) -> Dict[str, int]:
        """Pool counters: configured/alive/busy workers and processed jobs."""
        with self._lock:
            return {
                "workers": self.workers,
                "mode": self.mode,
                "alive": sum(t.is_alive() for t in self._threads),
                "busy": self._busy,
                "processed": self._processed,
                "failed": self._failed,
            }
