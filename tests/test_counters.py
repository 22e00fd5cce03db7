"""The one counter fold, the reported stats shapes and the per-run
path-feasibility row.

* :func:`repro.counters.sum_counters` is the only way snapshots are summed
  (pass timings, engine-cache stages, per-platform analysis caches).
* The documents built from it — ``ScenarioResult.cache_stats``, the
  service's ``GET /stats`` ``pipeline.passes`` rows and
  ``analysis_cache.combined`` rows — keep every key they had before the
  fold was unified; the keys the one fold adds are pinned separately.
* A run reports only the pruning work done for it: hits on a shared
  analysis cache charge nothing.
"""

import copy
import json
import pathlib

import pytest

from repro.compiler.engine import shared_analysis_caches
from repro.counters import sum_counters
from repro.scenarios.runner import run_scenario
from repro.service import EvaluationService

SCENARIO = "ecg-wearable"
PLATFORM = "nucleo-stm32f091rc"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

_STAGE_ROW = {"entries", "evictions", "hits", "misses"}
#: ``path_unit_hits`` (and the row's ``unit_hits``) count the units the
#: path-sensitive unit memo answered, apart from the enumeration work.
_PATH_COUNTERS = {"path_cap_fallbacks", "path_irregular_fallbacks",
                  "path_units", "path_unit_hits", "paths_enumerated",
                  "paths_pruned"}
_ANALYSIS_ROW = (_STAGE_ROW | _PATH_COUNTERS
                 | {"disk_errors", "disk_hits", "disk_misses"})

#: Key sets of the reported documents as the separate folds produced them.
CACHE_STATS_KEYS = {
    "variant": _STAGE_ROW,
    "lowering": _STAGE_ROW,
    "ir_stage": _STAGE_ROW,
    "analysis": _ANALYSIS_ROW | {"max_entries", "persistent", "shared"},
}
PASS_ROW_KEYS = {"stage", "invocations", "wall_s"}
PATH_ROW_KEYS = PASS_ROW_KEYS | {"paths_enumerated", "paths_pruned",
                                 "path_cap_fallbacks",
                                 "path_irregular_fallbacks", "unit_hits"}
#: No ``harden-security``: hardening changes only functions with a
#: ``secret`` pragma, and this scenario has none, so hardened and
#: unhardened configurations share each function's build.  The pass runs
#: only where a hardened configuration builds a function first, which
#: this scenario's searches never do.  No ``inline-simple-functions``
#: either: it runs only on a function that calls an inlinable one.  No
#: ``constant-folding``: it runs only on a function something folds in,
#: before unrolling or after it, and this scenario's functions have none.
PASS_NAMES = {
    "parse", "csl-parse",
    "loop-bound-inference", "unroll-loops",
    "lower-to-ir", "dead-code-elimination", "strength-reduction",
    "spm-allocation", "analysis", "path-feasibility", "schedule",
}
COMBINED_KEYS = _ANALYSIS_ROW

#: Keys the one fold adds: every cache's own ``stats()`` row is kept whole
#: (its cap, the analysis cache's persistence flag) instead of a
#: hand-picked subset.
CACHE_STATS_ADDED = {
    "variant": {"max_entries"},
    "lowering": {"max_entries"},
    "ir_stage": {"max_entries"},
    "analysis": set(),
}
COMBINED_ADDED = {"max_entries", "persistent"}


# ---------------------------------------------------------------------------
# The fold
# ---------------------------------------------------------------------------
SUM_COUNTERS_CASES = [
    # (case, snapshots, expected total)
    ("pipeline rows: stage kept, numbers summed",
     [{"parse": {"stage": "frontend", "invocations": 2, "wall_s": 0.5}},
      {"parse": {"stage": "ir", "invocations": 1, "wall_s": 0.25}}],
     {"parse": {"stage": "frontend", "invocations": 3, "wall_s": 0.75}}),
    ("cache rows: bools and max_entries not summed",
     [{PLATFORM: {"hits": 1, "misses": 2, "max_entries": 256,
                  "persistent": False}},
      {PLATFORM: {"hits": 4, "misses": 0, "max_entries": 256,
                  "persistent": True}}],
     {PLATFORM: {"hits": 5, "misses": 2, "max_entries": 256,
                 "persistent": False}}),
    ("a row or a key present in only one snapshot",
     [{"a": {"x": 1}},
      {"a": {"y": 2}, "b": {"z": 3, "max_entries": None}}],
     {"a": {"x": 1, "y": 2}, "b": {"z": 3, "max_entries": None}}),
    ("None snapshots are skipped",
     [{"parse": {"stage": "frontend", "invocations": 1, "wall_s": 0.5}},
      None,
      {"parse": {"stage": "frontend", "invocations": 1, "wall_s": 0.5}}],
     {"parse": {"stage": "frontend", "invocations": 2, "wall_s": 1.0}}),
]


def test_sum_counters():
    for case, snapshots, expected in SUM_COUNTERS_CASES:
        originals = copy.deepcopy(snapshots)
        total = {}
        for snapshot in snapshots:
            assert sum_counters(total, snapshot) is total, case
        assert total == expected, case
        # Input rows are never aliased: folding left them untouched and
        # the rollup owns its rows.
        assert snapshots == originals, case
        for snapshot in snapshots:
            for name, row in (snapshot or {}).items():
                assert total[name] is not row, case


# ---------------------------------------------------------------------------
# Reported shapes and the per-run path-feasibility row
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def shared_runs():
    """Two runs of one scenario on a fresh process-wide analysis cache."""
    with shared_analysis_caches():
        return [run_scenario(SCENARIO) for _ in range(2)]


@pytest.fixture(scope="module")
def service_stats():
    """``GET /stats`` after three forced jobs on a two-thread service."""
    with EvaluationService(workers=2) as service:
        for _ in range(3):
            service.result(service.submit(SCENARIO, use_cache=False),
                           timeout=300)
        return service.stats()


def _path_counters():
    with open(GOLDEN / "ecg_wearable.json", encoding="utf-8") as handle:
        return json.load(handle)["path_counters"]


class TestReportedShapes:
    def test_cache_stats_keys(self, shared_runs):
        stats = shared_runs[0].cache_stats
        assert list(stats) == list(CACHE_STATS_KEYS)
        for stage, keys in CACHE_STATS_KEYS.items():
            assert set(stats[stage]) == keys | CACHE_STATS_ADDED[stage], stage

    def test_pipeline_pass_rows(self, service_stats):
        passes = service_stats["pipeline"]["passes"]
        assert set(passes) == PASS_NAMES
        for name, row in passes.items():
            expected = (PATH_ROW_KEYS if name == "path-feasibility"
                        else PASS_ROW_KEYS)
            assert set(row) == expected, name
        profile = service_stats["pipeline"]["profile"]
        assert {row["pass"] for row in profile} == PASS_NAMES

    def test_combined_analysis_rows(self, service_stats):
        combined = service_stats["analysis_cache"]["combined"]
        assert set(combined) == {PLATFORM}
        assert set(combined[PLATFORM]) == COMBINED_KEYS | COMBINED_ADDED
        assert combined[PLATFORM]["max_entries"] == \
            service_stats["analysis_cache"]["platforms"][PLATFORM][
                "max_entries"]


class TestPerRunPathFeasibility:
    def test_first_shared_run_reports_its_pruning(self, shared_runs):
        expected = _path_counters()
        row = shared_runs[0].pipeline_stats["path-feasibility"]
        assert row["invocations"] == expected["path_units"]
        assert row["paths_enumerated"] == expected["paths_enumerated"]
        assert row["paths_pruned"] == expected["paths_pruned"]
        assert row["unit_hits"] == expected["path_unit_hits"]

    def test_second_shared_run_has_no_row(self, shared_runs):
        # Every table was a hit on the shared cache: nothing was pruned
        # for this run, so it charges nothing.
        assert "path-feasibility" not in shared_runs[1].pipeline_stats
        # The cache's own counters stay cumulative.
        analysis = shared_runs[1].cache_stats["analysis"]
        assert analysis["shared"] is True
        assert analysis["path_units"] == _path_counters()["path_units"]

    def test_service_rollup_matches_the_analysis_cache(self, service_stats):
        row = service_stats["pipeline"]["passes"]["path-feasibility"]
        combined = service_stats["analysis_cache"]["combined"][PLATFORM]
        assert row["paths_enumerated"] == combined["paths_enumerated"]
        assert row["invocations"] == combined["path_units"]
        assert row["paths_pruned"] == combined["paths_pruned"]
        assert row["unit_hits"] == combined["path_unit_hits"]
