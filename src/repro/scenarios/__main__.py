"""Command-line interface of the scenario subsystem.

Usage::

    python -m repro.scenarios list [--json]
    python -m repro.scenarios run NAME [NAME ...] [options]
    python -m repro.scenarios run --all [options]

``run`` drives every named scenario through the shared
:class:`~repro.scenarios.runner.ScenarioRunner` and prints one improvement
report per scenario; ``--json`` emits a machine-readable summary instead
(including per-scenario evaluation-cache counters for predictable builds
and the per-pass compilation-pipeline timings of every build workflow).
``--profile`` appends a per-pass wall-time/invocation table aggregated
across the whole sweep (rendered by
:func:`repro.compiler.pipeline.render_profile`; with ``--json`` it becomes
the summary's ``pipeline_profile`` field instead) plus the process-wide
parse-cache counters (``parse_cache`` in the JSON document).  ``--shared-cache``
enables the process-wide analysis cache so WCET/WCEC tables are reused
across scenarios targeting the same platform, ``--cache-dir PATH``
additionally persists those tables to disk (shared across processes and
runs — a later invocation against the same directory starts warm; see
``docs/service.md``), and ``--jobs N`` runs the sweep through the
evaluation service's worker pool — the registry sweep is embarrassingly
parallel across scenarios.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.compiler.engine import (
    PersistError,
    enable_process_analysis_cache,
    process_analysis_cache_stats,
    process_cache_store_stats,
)
from repro.compiler.pipeline import profile_rows, render_profile
from repro.counters import sum_counters
from repro.frontend import parse_cache_stats
from repro.scenarios.registry import (
    UnknownScenarioError,
    get_scenario,
    list_scenarios,
)
from repro.scenarios.runner import run_scenario


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
    run_cmd.add_argument("--shared-cache", action="store_true",
                         help="share WCET/WCEC analysis tables process-wide "
                              "across scenarios on the same platform")
    run_cmd.add_argument("--cache-dir", default=None, metavar="PATH",
                         help="persist the shared WCET/WCEC tables to this "
                              "directory (implies --shared-cache; created "
                              "if missing, validated up front)")
    run_cmd.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="run scenarios on N parallel service workers "
                              "(default: 1, serial)")
    run_cmd.add_argument("--no-postprocess", action="store_true",
                         help="skip the paper-specific post-processing "
                              "hooks (e.g. dynamic validation)")
    return parser


def _cmd_list(args: argparse.Namespace) -> int:
    scenarios = list_scenarios()
    if args.json:
        print(json.dumps({"scenarios": [
            {"name": spec.name, "title": spec.title, "kind": spec.kind,
             "platform": spec.platform_name, "tags": list(spec.tags),
             "description": spec.description}
            for spec in scenarios
        ]}, indent=2))
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
    if args.shared_cache or args.cache_dir is not None:
        try:
            enable_process_analysis_cache(cache_dir=args.cache_dir)
        except PersistError as error:
            print(str(error), file=sys.stderr)
            return 2

    overrides = dict(
        generations=args.generations,
        population_size=args.population,
        profiling_runs=args.profiling_runs,
        postprocess=not args.no_postprocess,
    )
    if args.jobs > 1:
        # The registry sweep is embarrassingly parallel across scenarios:
        # reuse the evaluation service's worker pool (results come back in
        # submission order, bit-identical to the serial sweep).
        from repro.service import sweep_scenarios
        results = sweep_scenarios(specs, jobs=args.jobs, **overrides)
    else:
        results = [run_scenario(spec, **overrides) for spec in specs]

    totals = {}
    for result in results:
        sum_counters(totals, result.pipeline_stats)
    if args.json:
        document = {"scenarios": [result.summary() for result in results]}
        if args.profile:
            document["pipeline_profile"] = profile_rows(totals)
            document["parse_cache"] = parse_cache_stats()
        if args.shared_cache or args.cache_dir is not None:
            document["analysis_cache"] = process_analysis_cache_stats()
            store = process_cache_store_stats()
            if store is not None:
                document["cache_store"] = store
        print(json.dumps(document, indent=2))
    else:
        print_results(results)
        if args.profile:
            print(render_profile(
                totals, title="pipeline profile (aggregated over "
                              f"{len(results)} scenario run(s))"))
            cache = parse_cache_stats()
            print(f"parse cache: {cache['hits']} hit(s), "
                  f"{cache['misses']} miss(es), "
                  f"{cache['entries']} module(s) resident")
            store = process_cache_store_stats()
            if store is not None:
                print(f"analysis store: {store['hits']} disk hit(s), "
                      f"{store['appends']} append(s), "
                      f"{store['entries']} record(s) in "
                      f"{store['segments']} segment(s), "
                      f"{store['compactions']} compaction(s)")
    return 0


def print_results(results) -> None:
    """One human-readable block per result (shared with the service CLI).

    Build-kind scenarios print their improvement report; custom-kind ones
    have no report, so their summarised detail stands in.
    """
    for result in results:
        if result.report is not None:
            print(result.report.summary())
        else:
            print(f"{result.spec.title}: "
                  f"{json.dumps(result.summary().get('detail', {}))}")
        print()


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point (``python -m repro.scenarios``); returns the exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list(args)
    return _cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
