"""Result-driven selection helpers over scenario result lists.

Staged studies — a broad search whose survivors are refined and then
validated — need a small vocabulary for "which results go forward": rank by
an improvement metric, keep the top *k*, keep the (time, energy)
Pareto-optimal subset.  These helpers are the shared, deterministic
implementations the campaign subsystem's parameterize hooks build on
(:mod:`repro.campaigns`), and they are plain functions over results so
ad-hoc drivers and tests can use them too.

Every helper reads a result's JSON ``summary()`` document, so a full
:class:`~repro.scenarios.spec.ScenarioResult` and a journal-replayed
:class:`~repro.service.journal.SummaryOnlyResult` go through one code path
and select the same scenarios.

Custom scenarios have no improvement report, so their summaries carry no
metric; every helper ranks such a result last (or excludes it from
metric-based filters) instead of crashing, so mixed sweeps over
``predictable``/``complex``/``custom`` kinds stay usable.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence


def result_name(result) -> str:
    """The registry name of the scenario a result came from."""
    return result.summary()["name"]


def scenario_names(results: Iterable) -> List[str]:
    """Scenario names of ``results``, in order, without duplicates."""
    seen = []
    for result in results:
        name = result_name(result)
        if name not in seen:
            seen.append(name)
    return seen


def energy_improvement(result) -> Optional[float]:
    """The result's energy-improvement percentage (``None`` without a
    report — custom scenarios carry their output in ``detail``)."""
    return result.summary().get("energy_improvement_pct")


def performance_improvement(result) -> Optional[float]:
    """The result's performance-improvement percentage (``None`` without a
    report)."""
    return result.summary().get("performance_improvement_pct")


def rank_by_energy_improvement(results: Sequence) -> List:
    """Results sorted by energy improvement, best first.

    The sort is stable and report-less results rank last, so a mixed sweep
    keeps a deterministic, submission-respecting order.
    """
    keyed = [(energy_improvement(result), index, result)
             for index, result in enumerate(results)]
    keyed.sort(key=lambda entry: (entry[0] is None, -(entry[0] or 0.0),
                                  entry[1]))
    return [result for _, _, result in keyed]


def top_by_energy_improvement(results: Sequence, k: int) -> List:
    """The ``k`` best results by energy improvement (report-less excluded)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    ranked = [result for result in rank_by_energy_improvement(results)
              if energy_improvement(result) is not None]
    return ranked[:k]


def improving_results(results: Sequence,
                      min_energy_improvement_pct: float = 0.0) -> List:
    """Results whose energy improvement exceeds the threshold, in order."""
    return [
        result for result in results
        if (energy_improvement(result) or float("-inf"))
        > min_energy_improvement_pct
    ]


def pareto_results(results: Sequence) -> List:
    """The (TeamPlay time, TeamPlay energy) Pareto-optimal subset.

    A result is kept when no other result is at least as good on both axes
    and strictly better on one — the submission-order analogue of the
    engine's :func:`~repro.compiler.engine.pareto_front` over candidate
    configurations, lifted to whole scenario runs.  Report-less results are
    excluded (they carry no time/energy point).
    """
    rows = [(result, result.summary()) for result in results]
    points = [
        (result, row["teamplay_time_s"], row["teamplay_energy_j"])
        for result, row in rows if "teamplay_time_s" in row
    ]
    front = []
    for result, time_s, energy_j in points:
        dominated = any(
            (other_t <= time_s and other_e <= energy_j)
            and (other_t < time_s or other_e < energy_j)
            for _, other_t, other_e in points
        )
        if not dominated:
            front.append(result)
    return front
