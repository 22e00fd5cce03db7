"""Job records of the evaluation service.

A :class:`JobRequest` is the declarative unit of work — *which* registered
scenario to run and with which runner overrides — and is deliberately
name-based: the HTTP API, the dedup fingerprint, the persistent journal and
the process-pool workers all need a canonical, serialisable (and picklable)
description, so requests reference the scenario registry instead of
carrying spec objects.  A :class:`BatchRequest` bundles several requests
into one unit of work, so a whole population/sweep travels as a single
queue entry; its :class:`BatchResult` carries the per-request results in
request order.  A :class:`Job` wraps one request with queue state
(priority, lifecycle, timestamps, coalesced-submission count) and an event
waiters can block on.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import TeamPlayError


class JobError(TeamPlayError):
    """Raised for malformed job requests and failed-job result fetches."""


class JobState(str, Enum):
    """Lifecycle of a job: pending → running → one terminal state."""

    PENDING = "pending"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobState.SUCCEEDED, JobState.FAILED,
                        JobState.CANCELLED)


@dataclass(frozen=True)
class JobRequest:
    """What to evaluate: a registered scenario plus runner overrides."""

    scenario: str
    generations: Optional[int] = None
    population_size: Optional[int] = None
    profiling_runs: Optional[int] = None
    postprocess: bool = True

    def __post_init__(self):
        if not self.scenario or not isinstance(self.scenario, str):
            raise JobError("job request needs a scenario name")
        for field_name in ("generations", "population_size",
                           "profiling_runs"):
            value = getattr(self, field_name)
            # bool is an int subclass: ``True`` would silently evaluate as
            # the budget 1, so reject it alongside the other non-ints.
            if value is not None and (isinstance(value, bool)
                                      or not isinstance(value, int)
                                      or value < 1):
                raise JobError(
                    f"job request field {field_name!r} must be a positive "
                    f"integer, got {value!r}")
        if not isinstance(self.postprocess, bool):
            # Reject JSON strings like "false" instead of truthy-coercing
            # them into the opposite of what the client asked for.
            raise JobError(
                f"job request field 'postprocess' must be a boolean, "
                f"got {self.postprocess!r}")

    def fingerprint(self) -> str:
        """Canonical digest of the request.

        Two requests with equal fingerprints ask for the same computation,
        so the queue coalesces them onto one job and serves repeats from
        the succeeded job without recomputing.
        """
        canonical = json.dumps(self.as_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def as_dict(self) -> Dict[str, object]:
        """The request's canonical JSON-ready form (the fingerprint input)."""
        return {
            "scenario": self.scenario,
            "generations": self.generations,
            "population_size": self.population_size,
            "profiling_runs": self.profiling_runs,
            "postprocess": self.postprocess,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "JobRequest":
        """Build a request from a JSON payload, rejecting unknown keys."""
        if not isinstance(payload, dict):
            raise JobError("job request payload must be a JSON object")
        known = {"scenario", "generations", "population_size",
                 "profiling_runs", "postprocess", "priority"}
        unknown = set(payload) - known
        if unknown:
            raise JobError(
                f"unknown job request fields: {', '.join(sorted(unknown))}")
        return cls(
            scenario=payload.get("scenario", ""),
            generations=payload.get("generations"),
            population_size=payload.get("population_size"),
            profiling_runs=payload.get("profiling_runs"),
            postprocess=payload.get("postprocess", True),
        )


@dataclass(frozen=True)
class BatchRequest:
    """Several job requests bundled into one unit of work.

    A whole population/sweep travels as a *single* queue entry: one job id,
    one dedup fingerprint (canonical over the ordered sub-requests), one
    worker execution producing a :class:`BatchResult`.  The sub-requests run
    in order on one shared runner, so the evaluation caches warmed by the
    first sub-request serve the rest — the service-level analogue of handing
    the engine's :class:`~repro.compiler.engine.BatchEvaluator` a whole
    population instead of single configurations.
    """

    requests: Tuple[JobRequest, ...]

    def __post_init__(self):
        if not self.requests:
            raise JobError("a batch request needs at least one job request")
        for entry in self.requests:
            if not isinstance(entry, JobRequest):
                raise JobError(
                    f"batch entries must be job requests, got {entry!r}")

    def fingerprint(self) -> str:
        """Canonical digest over the ordered sub-requests."""
        canonical = json.dumps(self.as_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready form (also the journal's on-disk representation)."""
        return {"batch": [entry.as_dict() for entry in self.requests]}

    @classmethod
    def from_list(cls, payloads: Sequence[Dict[str, object]]) -> "BatchRequest":
        """Build a batch from a JSON list of request payloads.

        The whole list is validated before anything is built: every bad
        entry is reported by index in one error, so a client fixing a batch
        sees all its problems at once instead of one per round-trip.
        """
        if not isinstance(payloads, (list, tuple)) or not payloads:
            raise JobError(
                "a batch submission needs a non-empty JSON list of job "
                "requests")
        requests: List[JobRequest] = []
        errors: List[str] = []
        for index, entry in enumerate(payloads):
            try:
                requests.append(JobRequest.from_dict(entry))
            except JobError as error:
                errors.append(f"entry {index}: {error}")
        if errors:
            raise JobError(
                "invalid batch submission: " + "; ".join(errors))
        return cls(tuple(requests))


def request_from_dict(payload: Union[Dict[str, object], List[dict]]
                      ) -> Union[JobRequest, BatchRequest]:
    """Parse a JSON payload into a single or batch request.

    Accepts a plain request object, a list of request objects, or the
    canonical batch form ``{"batch": [...]}`` (what
    :meth:`BatchRequest.as_dict` writes — the journal replays through this
    same entry point).
    """
    if isinstance(payload, (list, tuple)):
        return BatchRequest.from_list(payload)
    if isinstance(payload, dict) and "batch" in payload:
        unknown = set(payload) - {"batch", "priority"}
        if unknown:
            raise JobError(
                f"unknown batch request fields: {', '.join(sorted(unknown))}")
        return BatchRequest.from_list(payload["batch"])
    return JobRequest.from_dict(payload)


@dataclass
class BatchResult:
    """Results of a batch job, aligned with its sub-requests."""

    results: List[Any]

    def summary(self) -> Dict[str, object]:
        """JSON-ready summary: one row per sub-request, in request order."""
        return {
            "count": len(self.results),
            "batch": [result.summary() for result in self.results],
        }


@dataclass
class Job:
    """One queued evaluation: a request plus its lifecycle state.

    Identical submissions share one ``Job`` (see ``JobQueue.submit``), so a
    job may represent several callers; ``submissions`` counts them.  The
    in-process ``result`` of a computed job holds the full
    :class:`ScenarioResult`; a job replayed from the journal holds a
    :class:`~repro.service.journal.SummaryOnlyResult` (a
    :class:`BatchResult` of them for a batch).  The HTTP layer serialises
    ``as_dict()``, which carries the JSON summary only.
    """

    id: str
    request: Union[JobRequest, BatchRequest]
    priority: int = 0
    state: JobState = JobState.PENDING
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    result: Any = None
    error: Optional[str] = None
    #: Number of submissions answered with this job (live joins and
    #: reuses + 1); the queue counts them under its lock.
    submissions: int = 1
    #: Set when the job reaches a terminal state.
    done: threading.Event = field(default_factory=threading.Event, repr=False)

    @property
    def fingerprint(self) -> str:
        return self.request.fingerprint()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job is terminal; ``False`` on timeout."""
        return self.done.wait(timeout)

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready view of the job (the HTTP API's job document)."""
        document: Dict[str, object] = {
            "id": self.id,
            "request": self.request.as_dict(),
            "priority": self.priority,
            "state": self.state.value,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "submissions": self.submissions,
        }
        if self.error is not None:
            document["error"] = self.error
        if self.result is not None:
            document["result"] = self.result.summary()
        return document
