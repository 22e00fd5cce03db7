"""SVC1/SVC2/SVC3 — service sweep throughput and the persistent cache tier.

Not a paper experiment: measures the service layer the ROADMAP's "service
endpoint over the registry" step added.  SVC1 runs three configurations of
the same full-registry workload:

* serial — one worker draining the queue (the ``--jobs 1`` baseline),
* parallel — a multi-worker pool (``--jobs N``; on a 1-vCPU host the
  pure-Python analysis work interleaves rather than speeds up, so this
  guards the coordination overhead instead of chasing a speedup),
* dedup — every scenario submitted twice: the duplicate submissions must
  coalesce onto one computation each (live joins + succeeded-job reuse), so
  the doubled offered load costs roughly one sweep, not two.

SVC2 re-runs the sweep with ``worker_mode="process"``: on a multi-core host
the GIL-bound analysis work fans out across worker processes; on a 1-vCPU
runner the assertion degrades to a dispatch-overhead guard.  Either way the
numbers must be bit-identical to thread mode.

SVC3 is the persistent-tier headline: an analysis-dominated sweep (every
core x operating point of a six-core LEON3 bench platform, several distinct
programs) run cold on a process pool with ``cache_dir`` attached, then
again from fresh worker processes on the same directory.  The warm run
serves every WCET/WCEC table from disk — bit-identical checksums, by a
pinned wall-time factor — and a SIGKILLed warming ``repro.scenarios run
--worker-mode process`` leaves the directory warm and usable for its
restart.  Numbers land in the ignored
``.bench_work/benchmarks/BENCH_service_cache.json`` (archived by bench-smoke
CI).

Smoke invocation:  pytest -m bench benchmarks/test_bench_service.py
"""

import json
import os
import pathlib
import subprocess
import sys
import time

from conftest import print_experiment, write_results

from repro.scenarios import (
    ScenarioSpec,
    list_scenarios,
    register_scenario,
    run_scenario,
    unregister_scenario,
)
from repro.service import EvaluationService


def _run_sweep(workers: int, repeats: int = 1, worker_mode: str = "thread"):
    """Sweep every registered scenario ``repeats`` times; returns
    (results-in-order, elapsed seconds, service stats snapshot)."""
    names = [spec.name for spec in list_scenarios()] * repeats
    t0 = time.perf_counter()
    with EvaluationService(workers=workers,
                           worker_mode=worker_mode) as service:
        jobs = [service.submit(name) for name in names]
        results = [service.result(job, timeout=600) for job in jobs]
        stats = service.stats()
    return results, time.perf_counter() - t0, stats


def test_svc1_service_sweep_throughput(benchmark):
    """SVC1: serial vs parallel vs deduplicated service sweeps."""
    serial_results, serial_s, serial_stats = benchmark.pedantic(
        lambda: _run_sweep(workers=1), rounds=1, iterations=1)

    parallel_results, parallel_s, parallel_stats = _run_sweep(workers=2)
    dedup_results, dedup_s, dedup_stats = _run_sweep(workers=2, repeats=2)

    scenario_count = len(list_scenarios())
    rows = [
        f"serial  (1 worker):  {serial_s * 1e3:7.0f} ms for "
        f"{scenario_count} scenarios",
        f"parallel (2 workers): {parallel_s * 1e3:7.0f} ms "
        f"(coordination overhead guard on 1 vCPU)",
        f"dedup   (2x load):   {dedup_s * 1e3:7.0f} ms for "
        f"{2 * scenario_count} submissions, "
        f"{dedup_stats['queue']['deduplicated']} coalesced + "
        f"{dedup_stats['store']['hits']} store hits",
    ]
    print_experiment(
        "SVC1 evaluation-service sweep",
        "the job-queue service serves the registry sweep with dedup "
        "coalescing duplicate submissions onto one computation",
        rows,
        notes="results are bit-identical across all three configurations "
              "and to direct ScenarioRunner runs (tests/test_service.py)",
    )

    # Dedup must have coalesced every duplicate submission.
    assert dedup_stats["queue"]["submitted"] <= 2 * scenario_count
    assert (dedup_stats["queue"]["deduplicated"]
            + dedup_stats["store"]["hits"]) >= scenario_count
    assert dedup_stats["queue"]["succeeded"] == scenario_count
    # The doubled offered load must not cost a second full sweep.
    assert dedup_s < 1.8 * max(parallel_s, serial_s)

    # All three configurations produce identical numbers, equal to a
    # direct runner call.
    def energies(results):
        return [r.report.teamplay_energy_j for r in results[:scenario_count]
                if r.report is not None]

    assert energies(serial_results) == energies(parallel_results)
    assert energies(serial_results) == energies(dedup_results)
    # Spot-check bit-identity against a direct runner call off the service.
    first = next(r for r in serial_results if r.report is not None)
    direct = run_scenario(first.spec.name)
    assert first.report.teamplay_energy_j == direct.report.teamplay_energy_j
    assert first.report.baseline_time_s == direct.report.baseline_time_s


def test_svc2_worker_mode_throughput(benchmark):
    """SVC2: thread-pool vs process-pool sweep, bit-identical numbers."""
    thread_results, thread_s, _ = benchmark.pedantic(
        lambda: _run_sweep(workers=2), rounds=1, iterations=1)
    process_results, process_s, process_stats = _run_sweep(
        workers=2, worker_mode="process")

    cores = os.cpu_count() or 1
    scenario_count = len(list_scenarios())
    rows = [
        f"thread  (2 workers): {thread_s * 1e3:7.0f} ms for "
        f"{scenario_count} scenarios",
        f"process (2 workers): {process_s * 1e3:7.0f} ms "
        f"({cores} host cores; includes pool spin-up + result pickling)",
    ]
    print_experiment(
        "SVC2 worker-mode sweep",
        "process-pool workers compute jobs outside the GIL; results are "
        "bit-identical to thread mode (determinism contract)",
        rows,
        notes="on a 1-vCPU host this guards dispatch/pickling overhead "
              "rather than chasing a speedup",
    )

    assert process_stats["workers"]["mode"] == "process"
    assert process_stats["queue"]["succeeded"] == scenario_count
    # Bit-identity across worker modes, scenario by scenario.
    for thread_result, process_result in zip(thread_results,
                                             process_results):
        if thread_result.report is None:
            assert process_result.report is None
            continue
        assert (thread_result.report.teamplay_energy_j
                == process_result.report.teamplay_energy_j)
        assert (thread_result.report.baseline_energy_j
                == process_result.report.baseline_energy_j)
        assert (thread_result.report.teamplay_time_s
                == process_result.report.teamplay_time_s)
    # Overhead guard: process dispatch must stay within a small factor of
    # the thread sweep even with no parallelism available.
    budget = 1.6 if cores == 1 else 2.5
    assert process_s < budget * thread_s + 10.0


# ---------------------------------------------------------------------------
# SVC3 — persistent analysis-cache tier: cold vs warm process-pool sweep
# ---------------------------------------------------------------------------
#: Distinct program shapes in the sweep (distinct structural fingerprints
#: *and* distinct basic-block opcode sequences, so the engine's cross-program
#: block-cost memos cannot trivialise the analysis the way near-identical
#: sources would).
_SWEEP_PROGRAMS = 12


def _bench_platform():
    """Six LEON3 cores: analysis cost scales with cores x operating points
    (one cycles table per core, one energy table per core x OPP) while
    compile cost does not, which is exactly the campaign-re-evaluation
    shape the persistent tier exists for.  Module level so results pickle
    across the process pool."""
    from repro.hw.presets import _leon_memory, leon3
    from repro.hw.platform import Platform

    return Platform(
        name="bench-leon3-hexa",
        cores=[leon3(f"leon3-{index}", 80e6) for index in range(6)],
        memory=_leon_memory(),
        description="Synthetic six-core LEON3 board for cache benchmarks.",
    )


def _sweep_source(variant: int) -> str:
    """One program shape per variant: operator mixes, lengths and bounds
    differ per function, so every block is a fresh opcode sequence."""
    bound = 16 + 4 * variant
    ops = ("+", "-", "*")
    functions = []
    calls = []
    for index in range(5):
        statements = []
        for slot in range(4 + (variant + 2 * index) % 7):
            op = ops[(variant * 7 + index * 5 + slot * 3) % len(ops)]
            statements.append(f"acc = (acc {op} data[i]) + {slot + 1};")
        body = "\n        ".join(statements)
        functions.append(f"""
int stage{index}(int x) {{
    int acc = x + {variant};
    for (int i = 0; i < {bound}; i = i + 1) {{
        {body}
    }}
    return acc;
}}""")
        calls.append(f"acc = acc + stage{index}(acc);")
    chain = "\n    ".join(calls)
    return f"""
int data[{bound}];
{"".join(functions)}

#pragma teamplay task(work) poi(work)
int work(int gain) {{
    int acc = gain + {variant};
    {chain}
    return acc;
}}
"""


def _summarize_detail(detail):
    """Module level so custom-run results pickle across the process pool."""
    return dict(detail)


def _analysis_sweep(ctx):
    """Custom run: full WCET/WCEC table sweep over every core x OPP.

    The campaign re-evaluation pattern from the service layer: analysis
    cost multiplies with cores x operating points while compile cost does
    not, so the persistent tier's win shows without being diluted by the
    frontend (which has its own cache).  Returns bit-comparable checksums.
    """
    from repro.compiler.engine import AnalysisCache, process_analysis_cache
    from repro.frontend import compile_source

    cache = process_analysis_cache(ctx.platform)
    if cache is None:
        cache = AnalysisCache(ctx.platform)
    cycles_sum = 0.0
    energy_sum = 0.0
    tables = 0
    for variant in range(_SWEEP_PROGRAMS):
        program = compile_source(_sweep_source(variant))
        for core in ctx.platform.predictable_cores:
            cycles_sum += cache.wcet(program, "work", core=core).cycles
            tables += 1
            for opp in core.operating_points:
                result = cache.wcec(program, "work", core=core, opp=opp)
                energy_sum += result.dynamic_energy_j + result.static_energy_j
                tables += 1
    return {"cycles_sum": cycles_sum, "energy_sum": energy_sum,
            "tables": tables}


def _run_analysis_sweep(name: str, cache_dir: str):
    """One process-pool service run of the sweep scenario on ``cache_dir``.

    Returns (detail dict, elapsed seconds, worker cache-stats document).
    """
    t0 = time.perf_counter()
    with EvaluationService(workers=2, worker_mode="process",
                           cache_dir=cache_dir) as service:
        result = service.result(service.submit(name), timeout=600)
        cache_stats = service.stats()["analysis_cache"]
    return result.detail, time.perf_counter() - t0, cache_stats


def _worker_counter(cache_stats, section: str, counter: str) -> int:
    """Sum one counter over every worker snapshot the service collected."""
    total = 0
    for snapshot in cache_stats.get("workers", {}).values():
        document = snapshot.get(section) or {}
        if section == "store":
            total += document.get(counter, 0) or 0
        else:
            total += sum(rows.get(counter, 0) for rows in document.values())
    return total


def test_svc3_persistent_cache_warm_start(benchmark, tmp_path):
    """SVC3: warm process-pool sweep beats cold by a pinned factor."""
    spec = register_scenario(ScenarioSpec(
        name="bench-analysis-sweep",
        title="Analysis-table sweep (cores x OPPs)",
        kind="custom",
        platform=_bench_platform,
        custom_run=_analysis_sweep,
        summarize=_summarize_detail,
        description="WCET/WCEC tables for every core and operating point "
                    "of a six-core LEON3 board over distinct program shapes",
    ), replace=True)
    cache_dir = str(tmp_path / "analysis-cache")
    try:
        # Cold: empty directory, fresh pool workers compute + persist.
        cold_detail, cold_s, cold_stats = benchmark.pedantic(
            lambda: _run_analysis_sweep(spec.name, cache_dir),
            rounds=1, iterations=1)
        # Warm: same directory, *fresh* worker processes — every table must
        # come off disk (the in-memory caches died with the cold pool).
        warm_detail, warm_s, warm_stats = _run_analysis_sweep(
            spec.name, cache_dir)
    finally:
        unregister_scenario(spec.name)

    # Restart leg: SIGKILL a warming CLI run mid-flight, then restart it on
    # the same directory; the survivor store must serve a warm start.
    kill_dir = str(tmp_path / "kill-cache")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(pathlib.Path(__file__).resolve().parent.parent / "src")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    warm_cmd = [sys.executable, "-m", "repro.scenarios", "run", "camera-pill",
                "--cache-dir", kill_dir, "--jobs", "2",
                "--worker-mode", "process", "--json"]
    victim = subprocess.Popen(warm_cmd, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
    time.sleep(1.5)
    victim.kill()
    victim.wait(timeout=30)
    t0 = time.perf_counter()
    restart = subprocess.run(warm_cmd, env=env, capture_output=True,
                             text=True, timeout=600)
    restart_s = time.perf_counter() - t0
    assert restart.returncode == 0, restart.stderr
    restart_store = json.loads(restart.stdout)["cache_store"]

    tables = cold_detail["tables"]
    factor = cold_s / warm_s if warm_s > 0 else float("inf")
    rows = [
        f"cold  (empty dir):    {cold_s * 1e3:7.0f} ms for {tables} "
        f"WCET/WCEC tables (computed + persisted)",
        f"warm  (same dir):     {warm_s * 1e3:7.0f} ms from fresh worker "
        f"processes ({factor:.1f}x)",
        f"restart after SIGKILL: {restart_s * 1e3:6.0f} ms; store kept "
        f"{restart_store['entries']} record(s) in "
        f"{restart_store['bytes']} byte(s)",
    ]
    print_experiment(
        "SVC3 persistent analysis-cache tier",
        "WCET/WCEC tables persisted by one process pool warm-start the "
        "next: restarts and fresh workers skip recomputation entirely",
        rows,
        notes="checksums are bit-identical cold vs warm; the SIGKILLed "
              "warming run leaves a usable, warm directory",
    )
    write_results("BENCH_service_cache.json", {
        "experiments": {
            "svc3_persistent_cache": {
                "tables": tables,
                "cold_s": cold_s,
                "warm_s": warm_s,
                "warm_factor": factor,
                "restart_after_sigkill_s": restart_s,
                # The store's directory is a per-run temporary path.
                "restart_store": {key: value for key, value
                                  in restart_store.items()
                                  if key != "directory"},
            },
        },
    })

    # Bit-for-bit parity between the cold computation and the disk tier.
    assert warm_detail == cold_detail
    # The cold pool computed and persisted; the warm pool hit disk only.
    assert _worker_counter(cold_stats, "store", "appends") >= tables
    assert _worker_counter(warm_stats, "analysis", "disk_hits") >= tables
    assert _worker_counter(warm_stats, "analysis", "disk_misses") == 0
    # The SIGKILL survivor still warm-started its restart.
    assert restart_store["entries"] > 0
    assert restart_store["replayed_records"] > 0
    # Headline: the warm sweep must be measurably faster end to end, pool
    # spin-up and result pickling included.
    assert warm_s < cold_s, (
        f"warm sweep ({warm_s:.2f}s) not faster than cold ({cold_s:.2f}s)")
    assert factor >= 1.3, (
        f"warm speedup {factor:.2f}x below the pinned 1.3x floor")
