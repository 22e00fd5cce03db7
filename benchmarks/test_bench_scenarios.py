"""SCN1 — full registry sweep through the shared scenario runner.

Not a paper experiment: times ``python -m repro.scenarios run --all`` (every
registered scenario — the four paper experiments plus the extra workloads —
through one ScenarioRunner), first with per-toolchain caches, then inside a
``shared_analysis_caches`` scope (one analysis cache per platform), so
scenario-layer regressions show up in the perf trajectory alongside the
per-experiment benchmarks.

Smoke invocation:  pytest -m bench benchmarks/test_bench_scenarios.py
"""

import time

from conftest import print_experiment

from repro.compiler.engine import (
    process_analysis_cache_stats,
    shared_analysis_caches,
)
from repro.scenarios import list_scenarios, run_scenario


def _sweep():
    return [run_scenario(spec) for spec in list_scenarios()]


def test_scn1_registry_sweep(benchmark):
    """SCN1: every registered scenario through the shared runner."""
    results = benchmark.pedantic(_sweep, rounds=1, iterations=1)

    with shared_analysis_caches():
        t0 = time.perf_counter()
        shared_results = _sweep()
        shared_s = time.perf_counter() - t0
        cache_stats = process_analysis_cache_stats()

    rows = []
    for result in results:
        if result.report is not None:
            rows.append(
                f"{result.spec.name:16s} perf {result.report.performance_improvement_pct:+7.1f}%  "
                f"energy {result.report.energy_improvement_pct:+7.1f}%  "
                f"deadline {'met' if result.report.deadlines_met else 'MISSED'}")
        else:
            rows.append(f"{result.spec.name:16s} custom experiment "
                        f"(no baseline-vs-TeamPlay report)")
    rows.append(f"shared-cache sweep: {shared_s * 1e3:.0f} ms, "
                f"analysis caches: { {name: s['hits'] for name, s in cache_stats.items()} }")
    print_experiment(
        "SCN1 scenario-registry sweep",
        "all registered scenarios run through one shared pipeline runner",
        rows,
        notes="6 paper scenarios (incl. the custom-kind E4/E5) + extra "
              "workloads; reports match the pre-refactor drivers "
              "bit-for-bit (tests/test_scenarios.py)",
    )

    assert len(results) >= 8
    assert all(result.report.deadlines_met for result in results
               if result.report is not None)
    # The sweep must include every workflow and both scenario families.
    kinds = {result.spec.kind for result in results}
    assert kinds == {"predictable", "complex", "custom"}
    tags = [tag for result in results for tag in result.spec.tags]
    assert tags.count("paper") == 6 and tags.count("extra") >= 2
    # The shared-cache sweep produces the same reports.
    assert [r.report.baseline_energy_j for r in shared_results
            if r.report is not None] \
        == [r.report.baseline_energy_j for r in results
            if r.report is not None]
    assert [r.report.teamplay_energy_j for r in shared_results
            if r.report is not None] \
        == [r.report.teamplay_energy_j for r in results
            if r.report is not None]
