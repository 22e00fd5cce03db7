"""Dependency-free HTTP/JSON API over the evaluation service.

Built on the stdlib :mod:`http.server` (threading variant) so the service
runs anywhere the reproduction runs — no web framework in the container.

Endpoints (all JSON):

========  ==================  ===============================================
method    path                meaning
========  ==================  ===============================================
POST      /jobs               submit ``{"scenario": name, ...overrides}``,
                              or a *list* of such objects (equivalently
                              ``{"batch": [...], "priority": N}``) — the
                              whole batch becomes one job whose result
                              carries per-request summaries in order;
                              replies with the job document (a coalesced or
                              reused submission returns the shared job —
                              its ``submissions`` counter tells); a bounded
                              pending queue rejects overload with ``429``
                              and a ``Retry-After`` header; bodies beyond
                              1 MiB are rejected with ``413`` unread, and
                              the connection closed
GET       /jobs               a page of job records, newest-submitted last:
                              ``?limit=`` (default ``DEFAULT_JOBS_LIMIT``,
                              capped at ``MAX_JOBS_LIMIT``) and
                              ``?offset=`` window the listing, and the
                              reply carries ``total``/``offset``/``limit``
                              so clients can page through an arbitrarily
                              large backlog without unbounded responses
GET       /jobs/<id>          one job document (includes ``result`` summary
                              once the job succeeded); ``?wait=SECONDS``
                              long-polls — the reply is held until the job
                              is terminal or the wait (capped at
                              ``MAX_WAIT_S``) elapses, so clients block on
                              completion instead of polling
DELETE    /jobs/<id>          cancel a pending job
POST      /campaigns          submit ``{"campaign": name}`` (a registered
                              campaign) or an inline campaign spec object,
                              optionally with ``"priority"``; replies 202
                              with the campaign document
GET       /campaigns          every known campaign, compact (no per-stage
                              result summaries)
GET       /campaigns/<id>     one campaign document with per-stage states,
                              timings, dedup counters and result
                              summaries; ``?wait=SECONDS`` long-polls for
                              the terminal state like ``GET /jobs/<id>``
DELETE    /campaigns/<id>     request cancellation of a non-terminal
                              campaign (cooperative, hence 202)
GET       /scenarios          the scenario-registry listing
GET       /stats              queue/store (succeeded-job reuse)/worker/
                              journal/analysis-cache
                              counters plus per-pass compile timings
                              aggregated across completed jobs
                              (``pipeline``) and the campaign rollup
                              (``campaigns``); in process mode
                              ``analysis_cache.workers`` holds each pool
                              worker's latest shipped cache snapshot and
                              ``analysis_cache.combined`` the per-platform
                              sum over parent and workers, with
                              ``analysis_cache.store`` reporting the
                              persistent ``--cache-dir`` tier (entries,
                              bytes, disk hits/misses/appends, the
                              latter three summed over parent and
                              workers)
========  ==================  ===============================================

Floats survive the JSON round-trip bit-for-bit (``json`` serialises via
``repr`` and parses back to the identical double), which is what lets the
service's golden-parity tests compare HTTP-fetched numbers exactly.
"""

from __future__ import annotations

import io
import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.campaigns import (
    CampaignError,
    CampaignSpecError,
    UnknownCampaignError,
)
from repro.scenarios.registry import UnknownScenarioError
from repro.service.core import EvaluationService
from repro.service.jobs import (
    JobError,
    JobRequest,
    JobState,
    request_from_dict,
)
from repro.service.queue import QueueFull

#: Retry-After hint (seconds) sent with 429 rejections.  Scenario runs take
#: O(seconds), so one pending slot frees up on that time scale.
RETRY_AFTER_S = 1

#: Request bodies beyond this are rejected with 413 before being read — the
#: Content-Length header is client-controlled, so it must not size a buffer
#: unchecked.  1 MiB comfortably fits any real batch submission.
MAX_BODY_BYTES = 1 << 20

#: Upper bound on one ``?wait=`` long-poll hold.  Clients wanting to wait
#: longer re-issue the request; bounding the hold keeps handler threads
#: from accumulating behind jobs that never finish.
MAX_WAIT_S = 60.0

#: GET /jobs page size when the client sends no ``?limit=`` — a sane
#: default so a 1000-job backlog cannot balloon one response.
DEFAULT_JOBS_LIMIT = 200

#: Hard cap on one GET /jobs page, whatever the client asks for.
MAX_JOBS_LIMIT = 1000


class BodyTooLarge(JobError):
    """Raised when a request body exceeds :data:`MAX_BODY_BYTES` (HTTP 413)."""


class ServiceHTTPServer(ThreadingHTTPServer):
    """Threading HTTP server bound to one :class:`EvaluationService`."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int],
                 service: EvaluationService):
        super().__init__(address, ServiceRequestHandler)
        self.service = service


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Routes the JSON API onto the service facade."""

    server: ServiceHTTPServer
    #: Quiet by default; ``python -m repro.service serve -v`` flips this.
    verbose = False
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------- plumbing --
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.verbose:
            super().log_message(format, *args)

    def _reply(self, status: int, document,
               headers: Optional[dict] = None) -> None:
        """Send status line, headers and JSON body in one socket write.

        Written apart, the body is a second small segment behind an
        unacknowledged one, and Nagle holds it until the client's delayed
        ACK (~40 ms per keep-alive request).  The reply is composed in
        memory through the stdlib's own ``send_response``/``send_header``/
        ``end_headers``, so their semantics hold (``Connection: close``
        sets ``close_connection``; an HTTP/0.9 reply is the bare body).
        """
        body = json.dumps(document, indent=2).encode("utf-8")
        socket_file, self.wfile = self.wfile, io.BytesIO()
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            if self.close_connection:
                # A refused body, or the client asked: say the socket closes.
                self.send_header("Connection", "close")
            for name, value in (headers or {}).items():
                self.send_header(name, str(value))
            self.end_headers()
            self.wfile.write(body)
            reply = self.wfile.getvalue()
        finally:
            self.wfile = socket_file
        self.wfile.write(reply)

    def _error(self, status: int, message: str,
               headers: Optional[dict] = None) -> None:
        self._reply(status, {"error": message}, headers=headers)

    def _read_json(self):
        header = self.headers.get("Content-Length")
        try:
            length = int(header or 0)
        except ValueError:
            length = -1
        # A body left unread would be parsed as the next request on this
        # connection, so every refusal below also closes the connection.
        if length < 0:
            self.close_connection = True
            raise JobError(f"invalid Content-Length {header!r}")
        if length > MAX_BODY_BYTES:
            # Trusting a client-controlled length to size the read is how
            # one oversized POST exhausts the server; refuse before reading.
            self.close_connection = True
            raise BodyTooLarge(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return None
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as error:
            raise JobError(f"request body is not UTF-8: {error}") from None
        return json.loads(text)

    @property
    def _service(self) -> EvaluationService:
        return self.server.service

    # ----------------------------------------------------------------- routes --
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        """Route GET /scenarios, /stats, /jobs and /jobs/<id>[?wait=S]."""
        parsed = urlparse(self.path)
        path = parsed.path.rstrip("/") or "/"
        if path == "/scenarios":
            self._reply(200, {"scenarios": self._service.scenarios()})
        elif path == "/stats":
            self._reply(200, self._service.stats())
        elif path == "/jobs":
            try:
                limit, offset = self._page_bounds(parsed.query)
            except JobError as error:
                self._error(400, str(error))
                return
            jobs = self._service.queue.jobs()
            page = jobs[offset:offset + limit]
            self._reply(200, {"jobs": [job.as_dict() for job in page],
                              "total": len(jobs),
                              "offset": offset,
                              "limit": limit})
        elif path == "/campaigns":
            self._reply(200, {"campaigns": [
                record.as_dict(include_results=False)
                for record in self._service.campaigns()]})
        elif path.startswith("/campaigns/"):
            record = self._service.campaign(path[len("/campaigns/"):])
            if record is None:
                self._error(404, "unknown campaign")
                return
            try:
                wait_s = self._wait_seconds(parsed.query)
            except JobError as error:
                self._error(400, str(error))
                return
            if wait_s is not None and not record.state.terminal:
                record.wait(wait_s)
            self._reply(200, record.as_dict())
        elif path.startswith("/jobs/"):
            job = self._service.job(path[len("/jobs/"):])
            if job is None:
                self._error(404, "unknown job")
                return
            try:
                wait_s = self._wait_seconds(parsed.query)
            except JobError as error:
                self._error(400, str(error))
                return
            if wait_s is not None and not job.state.terminal:
                # Long poll: hold the reply until the job is terminal or
                # the (capped) wait elapses — the server is threaded, so a
                # blocked handler thread costs nothing but itself.
                job.wait(wait_s)
            self._reply(200, job.as_dict())
        else:
            self._error(404, f"unknown path {path!r}")

    @staticmethod
    def _wait_seconds(query: str) -> Optional[float]:
        """The capped ``?wait=SECONDS`` long-poll duration, if requested."""
        values = parse_qs(query).get("wait")
        if not values:
            return None
        try:
            wait_s = float(values[-1])
        except ValueError:
            raise JobError(f"wait must be a number of seconds, "
                           f"got {values[-1]!r}") from None
        if wait_s < 0:
            raise JobError(f"wait must be >= 0, got {wait_s}")
        return min(wait_s, MAX_WAIT_S)

    @staticmethod
    def _page_bounds(query: str) -> Tuple[int, int]:
        """The capped ``?limit=``/``?offset=`` window for GET /jobs."""
        values = parse_qs(query)

        def integer(name: str, default: int, minimum: int) -> int:
            raw = values.get(name)
            if not raw:
                return default
            try:
                value = int(raw[-1])
            except ValueError:
                raise JobError(f"{name} must be an integer, "
                               f"got {raw[-1]!r}") from None
            if value < minimum:
                raise JobError(f"{name} must be >= {minimum}, got {value}")
            return value

        limit = min(integer("limit", DEFAULT_JOBS_LIMIT, 1), MAX_JOBS_LIMIT)
        offset = integer("offset", 0, 0)
        return limit, offset

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        """Route POST /jobs: submit an evaluation or a batch (202, or 200
        on a reused succeeded job; 429 + Retry-After when the backlog is
        full; 413 for oversized bodies)."""
        path = urlparse(self.path).path.rstrip("/")
        if path == "/campaigns":
            self._post_campaign()
            return
        if path != "/jobs":
            self._error(404, f"unknown path {path!r}")
            return
        try:
            payload = self._read_json()
            if payload is None:
                raise JobError("POST /jobs needs a JSON body")
            priority = 0
            if isinstance(payload, dict):
                priority = payload.get("priority", 0)
                # bool subclasses int, so ``"priority": true`` would pass a
                # plain isinstance check and run at priority 1 — reject it.
                if isinstance(priority, bool) or not isinstance(priority, int):
                    raise JobError(f"priority must be an integer, "
                                   f"got {priority!r}")
            request = request_from_dict(payload)
            if isinstance(request, JobRequest):
                job = self._service.submit(
                    request.scenario,
                    generations=request.generations,
                    population_size=request.population_size,
                    profiling_runs=request.profiling_runs,
                    postprocess=request.postprocess,
                    priority=priority,
                )
            else:
                job = self._service.submit_batch(request.requests,
                                                 priority=priority)
        except UnknownScenarioError as error:
            self._error(404, str(error.args[0]))
            return
        except BodyTooLarge as error:
            self._error(413, str(error))
            return
        except QueueFull as error:
            # Back-pressure: the pending queue is bounded; tell the client
            # when to come back instead of letting the backlog grow.
            self._error(429, str(error),
                        headers={"Retry-After": RETRY_AFTER_S})
            return
        except (JobError, json.JSONDecodeError) as error:
            self._error(400, str(error))
            return
        status = 200 if job.state.terminal else 202
        self._reply(status, job.as_dict())

    def _post_campaign(self) -> None:
        """POST /campaigns: ``{"campaign": name}`` or an inline spec object
        (plus optional ``"priority"``); 202 with the campaign document."""
        try:
            payload = self._read_json()
            if payload is None:
                raise JobError("POST /campaigns needs a JSON body")
            if not isinstance(payload, dict):
                raise JobError("POST /campaigns needs a JSON object")
            priority = payload.get("priority", 0)
            if isinstance(priority, bool) or not isinstance(priority, int):
                raise JobError(f"priority must be an integer, "
                               f"got {priority!r}")
            if "campaign" in payload:
                unknown = set(payload) - {"campaign", "priority"}
                if unknown:
                    raise JobError(f"unknown campaign submission fields: "
                                   f"{', '.join(sorted(unknown))}")
                spec = payload["campaign"]
                if not isinstance(spec, str):
                    raise JobError(f'"campaign" must be a registered '
                                   f'campaign name, got {spec!r}')
            else:
                spec = {key: value for key, value in payload.items()
                        if key != "priority"}
            record = self._service.submit_campaign(spec, priority=priority)
        except UnknownCampaignError as error:
            self._error(404, str(error.args[0]))
            return
        except UnknownScenarioError as error:
            self._error(404, str(error.args[0]))
            return
        except BodyTooLarge as error:
            self._error(413, str(error))
            return
        except (CampaignSpecError, CampaignError, JobError,
                json.JSONDecodeError) as error:
            self._error(400, str(error))
            return
        self._reply(202, record.as_dict(include_results=False))

    def do_DELETE(self) -> None:  # noqa: N802 - stdlib naming
        """Route DELETE /jobs/<id> (cancel a pending job) and
        DELETE /campaigns/<id> (request cooperative cancellation)."""
        path = urlparse(self.path).path.rstrip("/")
        if path.startswith("/campaigns/"):
            campaign_id = path[len("/campaigns/"):]
            record = self._service.campaign(campaign_id)
            if record is None:
                self._error(404, "unknown campaign")
            elif self._service.cancel_campaign(campaign_id):
                # Cancellation is cooperative — the runner notices between
                # job waits — so the reply is 202, not a terminal document.
                self._reply(202, record.as_dict(include_results=False))
            else:
                self._error(409, f"campaign {campaign_id} is "
                                 f"{record.state.value}")
            return
        if not path.startswith("/jobs/"):
            self._error(404, f"unknown path {path!r}")
            return
        job_id = path[len("/jobs/"):]
        job = self._service.job(job_id)
        if job is None:
            self._error(404, "unknown job")
            return
        if self._service.cancel(job_id):
            self._reply(200, job.as_dict())
        elif job.state is JobState.RUNNING:
            self._error(409, f"job {job_id} is already running")
        else:
            self._error(409, f"job {job_id} is {job.state.value}")


def create_server(service: EvaluationService, host: str = "127.0.0.1",
                  port: int = 0) -> ServiceHTTPServer:
    """Bind (but do not run) the API server; ``port=0`` picks a free port."""
    return ServiceHTTPServer((host, port), service)


def serve(service: EvaluationService, host: str = "127.0.0.1",
          port: int = 8787) -> None:
    """Blocking convenience runner (used by ``python -m repro.service serve``)."""
    server = create_server(service, host, port)
    try:
        server.serve_forever()
    finally:
        server.server_close()
