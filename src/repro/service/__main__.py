"""Command-line interface of the evaluation service.

Usage::

    python -m repro.service serve  [--host H] [--port P] [--workers N]
                                   [--worker-mode {thread,process}]
                                   [--journal PATH] [--journal-fsync]
                                   [--cache-dir PATH]
                                   [--store-ttl S]
                                   [--max-pending N] [-v]
    python -m repro.service submit NAME [NAME ...] [--priority P]
                                   [--generations N] [--population N]
                                   [--profiling-runs N] [--no-postprocess]
                                   [--wait] [--host H] [--port P]
    python -m repro.service status (JOB_ID | --all) [--host H] [--port P]
    python -m repro.service campaign (SPEC | --list) [--priority P]
                                   [--wait] [--local] [--workers N]
                                   [--host H] [--port P]

``serve`` runs the HTTP/JSON API over an in-process worker pool —
``--worker-mode process`` computes jobs on a process pool (true multi-core
parallelism, bit-identical results) and ``--journal PATH`` persists the job
journal so a restarted server resumes its backlog and keeps serving
completed results; ``submit`` and ``status`` are thin :mod:`http.client`
clients against a running server (several NAMEs submit one *batch* job, and
``--wait`` long-polls ``GET /jobs/<id>?wait=`` instead of busy-polling).
Every job shares one WCET/WCEC analysis cache per platform for the
server's lifetime.  To run a set of scenarios without a server, use
``python -m repro.scenarios run --jobs N`` (it runs them on the same
service).

``serve --cache-dir PATH`` attaches the persistent WCET/WCEC cache tier
(see ``docs/service.md``): analysis tables are read from and written
through to an on-disk store shared by every process-pool worker, so a
restarted or freshly forked worker starts warm.  ``python -m
repro.scenarios run NAME ... --cache-dir PATH --worker-mode process``
pre-fills such a directory and prints the store counters under ``--json``
— point a later ``serve --cache-dir`` at the same path to serve its first
sweep from disk hits.

``campaign`` submits a multi-stage sweep campaign (see
``docs/campaigns.md``): SPEC is a registered campaign name
(``--list`` prints them) or a path to a JSON campaign-spec file.  By
default it POSTs to a running server and, with ``--wait``, long-polls
``GET /campaigns/<id>?wait=`` until the campaign is terminal; ``--local``
instead drives the campaign on an ephemeral in-process service with
``--workers`` workers.  The exit code is 0 iff the campaign succeeded
(or was merely submitted, without ``--wait``).
"""

from __future__ import annotations

import argparse
import http.client
import json
import sys
from typing import List, Optional, Tuple

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8787

#: ``submit --wait`` long-polls ``GET /jobs/<id>?wait=S`` in slices of this
#: many seconds (the server caps a single hold at its ``MAX_WAIT_S``), so a
#: waiting client blocks on job completion instead of busy-polling.
_WAIT_SLICE_S = 30


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Job-queue evaluation service over the scenario "
                    "registry.")
    sub = parser.add_subparsers(dest="command", required=True)

    serve_cmd = sub.add_parser("serve", help="run the HTTP/JSON API")
    serve_cmd.add_argument("--host", default=DEFAULT_HOST)
    serve_cmd.add_argument("--port", type=int, default=DEFAULT_PORT)
    serve_cmd.add_argument("--workers", type=int, default=2,
                           help="workers draining the job queue")
    serve_cmd.add_argument("--worker-mode", choices=("thread", "process"),
                           default="thread",
                           help="compute jobs on worker threads (default) "
                                "or on a process pool — same results "
                                "bit-for-bit, true multi-core parallelism")
    serve_cmd.add_argument("--journal", default=None, metavar="PATH",
                           help="append-only JSONL job journal; on startup "
                                "an existing journal is replayed, so "
                                "pending jobs resume and completed results "
                                "survive the restart")
    serve_cmd.add_argument("--journal-fsync", action="store_true",
                           help="fsync the journal after every event "
                                "(durable across power loss, slower)")
    serve_cmd.add_argument("--cache-dir", default=None, metavar="PATH",
                           help="persistent WCET/WCEC cache directory, "
                                "shared by every worker process and "
                                "surviving restarts; created if missing, "
                                "rejected up front if unusable")
    serve_cmd.add_argument("--store-ttl", type=float, default=None,
                           metavar="SECONDS",
                           help="stop reusing succeeded jobs that finished "
                                "longer ago than this (default: reuse "
                                "while the job record is kept)")
    serve_cmd.add_argument("--max-pending", type=int, default=None,
                           metavar="N",
                           help="bound the pending backlog; submissions "
                                "beyond it get HTTP 429 + Retry-After")
    serve_cmd.add_argument("-v", "--verbose", action="store_true",
                           help="log every HTTP request")

    submit_cmd = sub.add_parser("submit", help="submit a job to a server")
    submit_cmd.add_argument("names", nargs="+", metavar="NAME",
                            help="scenario name(s); several names submit "
                                 "one batch job run as a unit of work")
    submit_cmd.add_argument("--priority", type=int, default=0)
    submit_cmd.add_argument("--generations", type=int, default=None)
    submit_cmd.add_argument("--population", type=int, default=None)
    submit_cmd.add_argument("--profiling-runs", type=int, default=None)
    submit_cmd.add_argument("--no-postprocess", action="store_true")
    submit_cmd.add_argument("--wait", action="store_true",
                            help="poll until the job is terminal and print "
                                 "the final document")
    submit_cmd.add_argument("--host", default=DEFAULT_HOST)
    submit_cmd.add_argument("--port", type=int, default=DEFAULT_PORT)

    status_cmd = sub.add_parser("status", help="query a server for jobs")
    status_cmd.add_argument("job_id", nargs="?", metavar="JOB_ID")
    status_cmd.add_argument("--all", action="store_true", dest="show_all",
                            help="list every job record instead")
    status_cmd.add_argument("--host", default=DEFAULT_HOST)
    status_cmd.add_argument("--port", type=int, default=DEFAULT_PORT)

    campaign_cmd = sub.add_parser(
        "campaign", help="submit a multi-stage sweep campaign")
    campaign_cmd.add_argument(
        "spec", nargs="?", metavar="SPEC",
        help="a registered campaign name (see --list) or a path to a JSON "
             "campaign-spec file")
    campaign_cmd.add_argument("--list", action="store_true",
                              dest="list_campaigns",
                              help="list the registered campaigns and exit")
    campaign_cmd.add_argument("--priority", type=int, default=0,
                              help="offset every stage job's queue priority")
    campaign_cmd.add_argument("--wait", action="store_true",
                              help="long-poll until the campaign is "
                                   "terminal and print the final document")
    campaign_cmd.add_argument("--local", action="store_true",
                              help="drive the campaign on an ephemeral "
                                   "in-process service instead of a server")
    campaign_cmd.add_argument("--workers", type=int, default=2, metavar="N",
                              help="workers for --local (default: 2)")
    campaign_cmd.add_argument("--host", default=DEFAULT_HOST)
    campaign_cmd.add_argument("--port", type=int, default=DEFAULT_PORT)
    return parser


# ---------------------------------------------------------------------------
# HTTP client plumbing (submit/status talk to a running server)
# ---------------------------------------------------------------------------
def _request(host: str, port: int, method: str, path: str,
             payload: Optional[dict] = None) -> Tuple[int, dict]:
    connection = http.client.HTTPConnection(host, port, timeout=600)
    try:
        body = None if payload is None else json.dumps(payload)
        headers = {"Content-Type": "application/json"} if body else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        connection.close()


def _print_json(document) -> None:
    print(json.dumps(document, indent=2))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------
def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.compiler.engine import PersistError
    from repro.service.core import EvaluationService
    from repro.service.http import ServiceRequestHandler, create_server

    ServiceRequestHandler.verbose = args.verbose
    try:
        service = EvaluationService(
            workers=args.workers,
            worker_mode=args.worker_mode,
            journal=args.journal,
            journal_fsync=args.journal_fsync,
            cache_dir=args.cache_dir,
            store_ttl_s=args.store_ttl,
            max_pending=args.max_pending,
        )
    except PersistError as error:
        print(str(error), file=sys.stderr)
        return 2
    server = create_server(service, args.host, args.port)
    host, port = server.server_address[:2]
    journal_note = f", journal {args.journal}" if args.journal else ""
    if args.cache_dir:
        journal_note += f", cache dir {service.cache_dir}"
    print(f"evaluation service on http://{host}:{port} "
          f"({args.workers} {args.worker_mode} workers{journal_note}; "
          f"POST /jobs, GET /jobs/<id>, POST /campaigns, "
          f"GET /campaigns/<id>, GET /scenarios, GET /stats)",
          file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        service.close()
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    entries = []
    for name in args.names:
        entry = {"scenario": name, "postprocess": not args.no_postprocess}
        for key, value in (("generations", args.generations),
                           ("population_size", args.population),
                           ("profiling_runs", args.profiling_runs)):
            if value is not None:
                entry[key] = value
        entries.append(entry)
    if len(entries) == 1:
        payload = dict(entries[0], priority=args.priority)
    else:
        payload = {"batch": entries, "priority": args.priority}
    status, document = _request(args.host, args.port, "POST", "/jobs",
                                payload)
    if status not in (200, 202):
        print(document.get("error", f"HTTP {status}"), file=sys.stderr)
        return 1
    if args.wait:
        job_id = document["id"]
        while document["state"] in ("pending", "running"):
            # Long poll: the server holds each reply until the job is
            # terminal or its per-request cap elapses, then we re-issue.
            status, document = _request(
                args.host, args.port, "GET",
                f"/jobs/{job_id}?wait={_WAIT_SLICE_S}")
            if status != 200:
                print(document.get("error", f"HTTP {status}"),
                      file=sys.stderr)
                return 1
    _print_json(document)
    return 0 if document["state"] != "failed" else 1


def _cmd_status(args: argparse.Namespace) -> int:
    if args.show_all == bool(args.job_id):
        print("pass a JOB_ID or --all, not both/neither", file=sys.stderr)
        return 2
    path = "/jobs" if args.show_all else f"/jobs/{args.job_id}"
    status, document = _request(args.host, args.port, "GET", path)
    if status != 200:
        print(document.get("error", f"HTTP {status}"), file=sys.stderr)
        return 1
    _print_json(document)
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    import os

    if args.list_campaigns:
        from repro.campaigns import list_campaigns
        for spec in list_campaigns():
            stages = " -> ".join(stage.name for stage in spec.stages)
            print(f"{spec.name}: {stages}")
            blurb = spec.title or spec.description
            if blurb:
                print(f"    {blurb}")
        return 0
    if not args.spec:
        print("name a registered campaign or a JSON spec file "
              "(or pass --list)", file=sys.stderr)
        return 2
    spec_payload: Optional[dict] = None
    if os.path.exists(args.spec):
        with open(args.spec, "r", encoding="utf-8") as handle:
            try:
                spec_payload = json.load(handle)
            except json.JSONDecodeError as error:
                print(f"{args.spec}: not valid JSON: {error}",
                      file=sys.stderr)
                return 2
    if args.local:
        return _run_campaign_locally(args, spec_payload)
    payload = (dict(spec_payload) if spec_payload is not None
               else {"campaign": args.spec})
    payload["priority"] = args.priority
    status, document = _request(args.host, args.port, "POST", "/campaigns",
                                payload)
    if status != 202:
        print(document.get("error", f"HTTP {status}"), file=sys.stderr)
        return 1
    if args.wait:
        campaign_id = document["id"]
        while document["state"] in ("pending", "running"):
            status, document = _request(
                args.host, args.port, "GET",
                f"/campaigns/{campaign_id}?wait={_WAIT_SLICE_S}")
            if status != 200:
                print(document.get("error", f"HTTP {status}"),
                      file=sys.stderr)
                return 1
    _print_json(document)
    return 0 if document["state"] in ("succeeded", "pending", "running") \
        else 1


def _run_campaign_locally(args: argparse.Namespace,
                          spec_payload: Optional[dict]) -> int:
    from repro.errors import TeamPlayError
    from repro.service.core import EvaluationService

    if args.workers < 1:
        print("--workers must be >= 1", file=sys.stderr)
        return 2
    with EvaluationService(workers=args.workers) as service:
        try:
            record = service.submit_campaign(
                spec_payload if spec_payload is not None else args.spec,
                priority=args.priority)
        except TeamPlayError as error:
            print(str(error.args[0]) if error.args else str(error),
                  file=sys.stderr)
            return 2
        record.wait()
        _print_json(record.as_dict())
        return 0 if record.state.value == "succeeded" else 1


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point (``python -m repro.service``); returns the exit code."""
    args = _build_parser().parse_args(argv)
    handlers = {"serve": _cmd_serve, "submit": _cmd_submit,
                "status": _cmd_status, "campaign": _cmd_campaign}
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
