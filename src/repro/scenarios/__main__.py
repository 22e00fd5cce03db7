"""Command-line interface of the scenario subsystem.

Usage::

    python -m repro.scenarios list [--json]
    python -m repro.scenarios run NAME [NAME ...] [options]
    python -m repro.scenarios run --all [options]

``run`` submits every named scenario to one
:class:`~repro.service.EvaluationService` (``--jobs N`` workers, one by
default) and prints one improvement report per scenario, in request order;
``--json`` emits a machine-readable summary instead (including
per-scenario evaluation-cache counters for predictable builds, the
per-pass compilation-pipeline timings of every build workflow, and the
service's ``analysis_cache`` counters — the ``GET /stats`` document).
``--profile`` appends a per-pass wall-time/invocation table aggregated
across the whole sweep (rendered by
:func:`repro.compiler.pipeline.render_profile`; with ``--json`` it becomes
the summary's ``pipeline_profile`` field instead) plus the parse-cache
counters of the command and its process-mode workers, summed
(``parse_cache`` in the JSON document).  The whole
run shares one WCET/WCEC analysis cache per platform across scenarios;
``--cache-dir PATH`` additionally persists those tables to disk (shared
across processes and runs — a later invocation against the same directory
starts warm; see ``docs/service.md``).  ``--worker-mode process`` makes
the pool a process pool (used even with ``--jobs 1``); with
``--cache-dir`` the ``cache_store`` counters then include every worker's
appends, which is how a directory is pre-filled for a later ``python -m
repro.service serve --cache-dir``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.compiler.engine import PersistError, process_cache_store
from repro.compiler.pipeline import profile_rows, render_profile
from repro.counters import sum_counters
from repro.frontend import parse_cache_stats
from repro.scenarios.registry import (
    UnknownScenarioError,
    get_scenario,
    list_scenarios,
)
from repro.service import EvaluationService


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios",
        description="Run the registered TeamPlay scenarios.")
    sub = parser.add_subparsers(dest="command", required=True)

    list_cmd = sub.add_parser("list", help="list registered scenarios")
    list_cmd.add_argument("--json", action="store_true",
                          help="emit a JSON document instead of a table")

    run_cmd = sub.add_parser("run", help="run one or more scenarios")
    run_cmd.add_argument("names", nargs="*", metavar="NAME",
                         help="scenario names (see `list`)")
    run_cmd.add_argument("--all", action="store_true", dest="run_all",
                         help="run every registered scenario")
    run_cmd.add_argument("--json", action="store_true",
                         help="emit a JSON summary instead of reports")
    run_cmd.add_argument("--profile", action="store_true",
                         help="append a per-pass wall-time/invocation table "
                              "aggregated across the sweep (a "
                              "`pipeline_profile` field with --json)")
    run_cmd.add_argument("--generations", type=int, default=None,
                         help="override the search generations of "
                              "configuration-exploring sides")
    run_cmd.add_argument("--population", type=int, default=None,
                         help="override the search population size")
    run_cmd.add_argument("--profiling-runs", type=int, default=None,
                         help="override the complex workflow's "
                              "instrumented-run count")
    run_cmd.add_argument("--cache-dir", default=None, metavar="PATH",
                         help="persist the shared WCET/WCEC tables to this "
                              "directory (created if missing, validated up "
                              "front)")
    run_cmd.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="run scenarios on N parallel service workers "
                              "(default: 1, serial)")
    run_cmd.add_argument("--worker-mode", choices=("thread", "process"),
                         default="thread",
                         help="run the workers as threads (default) or as "
                              "a process pool (used even with --jobs 1)")
    run_cmd.add_argument("--no-postprocess", action="store_true",
                         help="skip the paper-specific post-processing "
                              "hooks (e.g. dynamic validation)")
    return parser


def _cmd_list(args: argparse.Namespace) -> int:
    scenarios = list_scenarios()
    if args.json:
        print(json.dumps({"scenarios": [spec.listing()
                                        for spec in scenarios]}, indent=2))
        return 0
    for spec in scenarios:
        tags = f" [{', '.join(spec.tags)}]" if spec.tags else ""
        print(f"{spec.name:16s} {spec.kind:12s} {spec.platform_name:20s} "
              f"{spec.title}{tags}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.run_all and args.names:
        print("pass either scenario names or --all, not both",
              file=sys.stderr)
        return 2
    if args.run_all:
        specs = list_scenarios()
    elif args.names:
        try:
            specs = [get_scenario(name) for name in args.names]
        except UnknownScenarioError as error:
            print(str(error.args[0]), file=sys.stderr)
            return 2
    else:
        print("nothing to run: name scenarios or pass --all", file=sys.stderr)
        return 2

    if args.jobs < 1:
        print("--jobs must be >= 1", file=sys.stderr)
        return 2
    try:
        service = EvaluationService(workers=args.jobs,
                                    worker_mode=args.worker_mode,
                                    cache_dir=args.cache_dir)
    except PersistError as error:
        print(str(error), file=sys.stderr)
        return 2
    with service:
        jobs = [service.submit(spec.name,
                               generations=args.generations,
                               population_size=args.population,
                               profiling_runs=args.profiling_runs,
                               postprocess=not args.no_postprocess)
                for spec in specs]
        results = [service.result(job) for job in jobs]
        store = process_cache_store()
        if store is not None:
            # Process-mode workers append through their own handles on
            # the directory: fold their records in so the counters
            # include them.
            store.refresh()
        analysis_cache = service.analysis_cache_stats()
    totals = {}
    for result in results:
        sum_counters(totals, result.pipeline_stats)
    # Process-mode workers parse in their own processes: add their counters.
    parse_rows = {"parse": parse_cache_stats()}
    for worker in analysis_cache["workers"].values():
        sum_counters(parse_rows, {"parse": worker["parse"]})
    parse_cache = parse_rows["parse"]
    # ``store`` already adds the process workers' lookups and appends.
    cache_store = analysis_cache["store"]
    if args.json:
        document = {"scenarios": [result.summary() for result in results]}
        if args.profile:
            document["pipeline_profile"] = profile_rows(totals)
            document["parse_cache"] = parse_cache
        document["analysis_cache"] = analysis_cache
        if cache_store is not None:
            document["cache_store"] = cache_store
        print(json.dumps(document, indent=2))
        return 0
    # Build-kind scenarios print their improvement report; custom-kind ones
    # have no report, so their summarised detail stands in.
    for result in results:
        if result.report is not None:
            print(result.report.summary())
        else:
            print(f"{result.spec.title}: "
                  f"{json.dumps(result.summary().get('detail', {}))}")
        print()
    if args.profile:
        print(render_profile(
            totals, title="pipeline profile (aggregated over "
                          f"{len(results)} scenario run(s))"))
        print(f"parse cache: {parse_cache['hits']} hit(s), "
              f"{parse_cache['misses']} miss(es), "
              f"{parse_cache['entries']} module(s) resident")
        if cache_store is not None:
            print(f"analysis store: {cache_store['hits']} disk hit(s), "
                  f"{cache_store['misses']} miss(es), "
                  f"{cache_store['appends']} append(s), "
                  f"{cache_store['entries']} record(s) in "
                  f"{cache_store['bytes']} byte(s)")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point (``python -m repro.scenarios``); returns the exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list(args)
    return _cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
