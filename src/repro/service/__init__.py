"""Evaluation service: job queue + worker pool + HTTP/JSON API.

The scaling layer over the scenario registry.  PR 1 made a single
evaluation cheap (staged caches, batched evaluation), PR 2 made every
experiment a declarative :class:`~repro.scenarios.spec.ScenarioSpec` behind
a registry — this package turns those into a *service* that accepts many
concurrent evaluation requests instead of one blocking CLI call:

* :class:`EvaluationService` — the facade: submit/submit_batch/status/
  cancel/result over a thread-safe priority :class:`JobQueue` whose
  request-fingerprint dedup coalesces identical submissions onto one
  computation and serves repeats from the succeeded job while its bounded
  record is kept,
* :class:`WorkerPool` — daemon threads driving the shared
  :class:`~repro.scenarios.runner.ScenarioRunner` inside the service's
  shared analysis cache scope (one WCET/WCEC cache per platform for the
  service's lifetime), or (``worker_mode="process"``) dispatcher threads
  feeding a :class:`concurrent.futures.ProcessPoolExecutor` for true
  multi-core parallelism with bit-identical results,
* :class:`JobJournal` — append-only JSONL persistence; a service built
  with ``journal=PATH`` replays it on startup, so pending jobs resume and
  completed results (and cross-restart dedup) survive the process,
* :mod:`repro.service.http` — a dependency-free stdlib HTTP/JSON API
  (POST /jobs incl. batches, GET /jobs incl. ``?limit=``/``?offset=``
  pagination, GET /jobs/<id> incl. ``?wait=`` long-poll, POST/GET/DELETE
  /campaigns, GET /scenarios, GET /stats),
* ``python -m repro.service {serve,submit,status,campaign}`` — the CLI
  (``python -m repro.scenarios run`` runs a set of scenarios on one
  :class:`EvaluationService` too: ``--jobs N`` workers, one by default).

Multi-stage *campaigns* — staged sweeps whose later stages are
parameterized by earlier results, with per-stage failure policies and
journal-backed resume — layer on top via :mod:`repro.campaigns` and
``EvaluationService.submit_campaign`` (see ``docs/campaigns.md``).

Determinism is the load-bearing property: scenario runs are deterministic
and every cache layer is exact, so a deduplicated, reused or
HTTP-fetched result is bit-for-bit identical to a direct
:class:`~repro.scenarios.runner.ScenarioRunner` call — pinned by
``tests/test_service.py`` against the golden-parity fixtures.

In-process quickstart::

    from repro.service import EvaluationService

    with EvaluationService(workers=2) as service:
        job = service.submit("camera-pill")
        result = service.result(job)          # ScenarioResult
        print(service.stats()["queue"])       # dedup counters etc.

Over HTTP: ``python -m repro.service serve`` and see
``examples/service_client.py``.
"""

from repro.service.core import EvaluationService
from repro.service.jobs import (
    BatchRequest,
    BatchResult,
    Job,
    JobError,
    JobRequest,
    JobState,
    request_from_dict,
)
from repro.service.journal import JobJournal, SummaryOnlyResult
from repro.service.queue import JobQueue, QueueFull
from repro.service.workers import WORKER_MODES, WorkerPool

__all__ = [
    "BatchRequest",
    "BatchResult",
    "EvaluationService",
    "Job",
    "JobError",
    "JobJournal",
    "JobQueue",
    "JobRequest",
    "JobState",
    "QueueFull",
    "SummaryOnlyResult",
    "WORKER_MODES",
    "WorkerPool",
    "request_from_dict",
]
