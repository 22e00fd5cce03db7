"""Selection helpers over full and journal-replayed scenario results.

The campaign hooks rank and filter a stage's results with
:mod:`repro.scenarios.selection`.  After a restart those results come back
from the journal as :class:`SummaryOnlyResult` documents, so every helper
must pick the same scenarios from a replayed list as from the full
:class:`ScenarioResult` objects — report-less custom results included.
"""

import pytest

from repro.hw.presets import nucleo_stm32f091rc
from repro.scenarios import (
    ScenarioResult,
    ScenarioSpec,
    energy_improvement,
    improving_results,
    pareto_results,
    performance_improvement,
    rank_by_energy_improvement,
    scenario_names,
    top_by_energy_improvement,
)
from repro.scenarios.selection import result_name
from repro.service import SummaryOnlyResult
from repro.toolchain.report import ImprovementReport

PLATFORM = nucleo_stm32f091rc()


def _predictable(name, teamplay_time_s, teamplay_energy_j):
    spec = ScenarioSpec(name=name, title=name, kind="predictable",
                        platform=PLATFORM.name, source="", csl="-")
    report = ImprovementReport(name, baseline_time_s=1.0,
                               teamplay_time_s=teamplay_time_s,
                               baseline_energy_j=1.0,
                               teamplay_energy_j=teamplay_energy_j)
    return ScenarioResult(spec=spec, platform=PLATFORM, report=report)


def _custom(name):
    spec = ScenarioSpec(name=name, title=name, kind="custom",
                        platform=PLATFORM.name,
                        custom_run=lambda ctx: {"rows": 3},
                        summarize=dict)
    return ScenarioResult(spec=spec, platform=PLATFORM, detail={"rows": 3})


@pytest.fixture(scope="module")
def full():
    return [
        _predictable("a", 0.8, 0.7),     # energy +30%
        _predictable("b", 0.6, 0.9),     # energy +10%, fastest
        _predictable("c", 0.9, 0.95),    # energy +5%, dominated by a
        _custom("custom"),               # no report
        _predictable("d", 1.1, 1.2),     # energy -20%
        _predictable("a", 0.85, 0.75),   # energy +25%, dominated by a
    ]


@pytest.fixture(scope="module")
def replayed(full):
    return [SummaryOnlyResult(result.summary()) for result in full]


HELPERS = {
    "rank": (rank_by_energy_improvement,
             ["a", "a", "b", "c", "d", "custom"]),
    "top": (lambda results: top_by_energy_improvement(results, k=2),
            ["a", "a"]),
    "improving": (lambda results: improving_results(
        results, min_energy_improvement_pct=8.0), ["a", "b", "a"]),
    "pareto": (pareto_results, ["a", "b"]),
}


@pytest.mark.parametrize("helper", sorted(HELPERS))
def test_full_and_replayed_results_select_the_same_names(
        helper, full, replayed):
    select, expected = HELPERS[helper]
    assert [result_name(result) for result in select(full)] == expected
    assert [result_name(result) for result in select(replayed)] == expected


def test_scenario_names_and_metrics_agree(full, replayed):
    assert scenario_names(full) == ["a", "b", "c", "custom", "d"]
    assert scenario_names(replayed) == scenario_names(full)
    for whole, summary in zip(full, replayed):
        assert energy_improvement(summary) == energy_improvement(whole)
        assert (performance_improvement(summary)
                == performance_improvement(whole))
    assert energy_improvement(replayed[3]) is None
