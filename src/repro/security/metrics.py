"""Side-channel leakage metrics.

The paper notes that, unlike time and energy, there is no consensus on a
single objective security metric, and that TeamPlay designed novel metrics
quantifying protection against timing and power side-channel attacks without
assuming a particular attack (the indiscernibility methodology).  This module
implements the statistical machinery those metrics rest on:

* Welch's t-statistic between observation groups (the TVLA-style test),
* histogram overlap between the observation distributions of two secret
  classes,
* an aggregate *indiscernibility score* in ``[0, 1]`` where ``1`` means the
  secret classes cannot be told apart from the observations.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence

#: |t| beyond this threshold is conventionally considered a significant leak
#: (the TVLA threshold).
T_THRESHOLD = 4.5


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _variance(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    mu = _mean(values)
    return sum((v - mu) ** 2 for v in values) / (len(values) - 1)


def welch_t_statistic(group_a: Sequence[float], group_b: Sequence[float]) -> float:
    """Welch's t-statistic between two observation groups.

    Returns 0.0 when either group is empty or both groups have zero variance
    and equal means; returns ``inf`` when the means differ but both variances
    are zero (a perfectly deterministic, perfectly distinguishing observable).
    """
    if not group_a or not group_b:
        return 0.0
    mean_a, mean_b = _mean(group_a), _mean(group_b)
    var_a, var_b = _variance(group_a), _variance(group_b)
    denominator = math.sqrt(var_a / len(group_a) + var_b / len(group_b))
    if denominator == 0.0:
        return 0.0 if math.isclose(mean_a, mean_b) else math.inf
    return (mean_a - mean_b) / denominator


def leakage_from_t(t_statistic: float, threshold: float = T_THRESHOLD) -> float:
    """Map a t-statistic onto a leakage value in ``[0, 1]``.

    ``0`` means no evidence of leakage; ``1`` means the groups are separated
    at (or beyond) the conventional detection threshold.
    """
    if math.isinf(t_statistic):
        return 1.0
    return min(abs(t_statistic) / threshold, 1.0)


def histogram_overlap(group_a: Sequence[float], group_b: Sequence[float],
                      bins: int = 16) -> float:
    """Overlap coefficient of the two groups' histograms, in ``[0, 1]``.

    ``1`` means identical empirical distributions (indistinguishable),
    ``0`` means disjoint supports (perfectly distinguishable).
    """
    if not group_a or not group_b:
        return 1.0
    lo = min(min(group_a), min(group_b))
    hi = max(max(group_a), max(group_b))
    width = (hi - lo) / bins
    # A subnormal range (e.g. 0 vs 5e-324) underflows ``width`` to zero.
    if math.isclose(lo, hi) or width == 0.0:
        return 1.0

    def histogram(values: Sequence[float]) -> List[float]:
        counts = [0] * bins
        for value in values:
            index = min(int((value - lo) / width), bins - 1)
            counts[index] += 1
        total = len(values)
        return [c / total for c in counts]

    hist_a = histogram(group_a)
    hist_b = histogram(group_b)
    # Clamp: summing many bin ratios can exceed 1.0 by a few ULPs
    # (e.g. 1.0000000000000002), and the overlap is a probability mass.
    return min(1.0, max(0.0, sum(min(a, b) for a, b in zip(hist_a, hist_b))))


def total_variation_distance(group_a: Sequence[float], group_b: Sequence[float],
                             bins: int = 16) -> float:
    """Empirical total-variation distance, ``1 - overlap``."""
    return 1.0 - histogram_overlap(group_a, group_b, bins)


def indiscernibility_score(groups: Dict[object, Sequence[float]],
                           bins: int = 16,
                           threshold: float = T_THRESHOLD) -> float:
    """Aggregate indiscernibility of secret classes from an observable.

    ``groups`` maps each secret class to its observations.  For every pair of
    classes two evidences of distinguishability are combined — the t-test
    leakage and the total-variation distance — and the score is one minus the
    worst pairwise leakage.  A score of ``1`` therefore certifies that no pair
    of classes could be distinguished by these tests.
    """
    labels = list(groups)
    if len(labels) < 2:
        return 1.0
    worst = 0.0
    for i, label_a in enumerate(labels):
        for label_b in labels[i + 1:]:
            a, b = list(groups[label_a]), list(groups[label_b])
            t_leak = leakage_from_t(welch_t_statistic(a, b), threshold)
            tv_leak = total_variation_distance(a, b, bins)
            worst = max(worst, 0.5 * t_leak + 0.5 * tv_leak)
    return 1.0 - worst


def trace_t_statistics(traces_a: Iterable[Sequence[float]],
                       traces_b: Iterable[Sequence[float]]) -> List[float]:
    """Point-wise Welch t-statistics between two sets of power traces.

    Traces are truncated to the shortest length present; returns one
    t-statistic per retained trace point.
    """
    list_a = [list(t) for t in traces_a]
    list_b = [list(t) for t in traces_b]
    if not list_a or not list_b:
        return []
    length = min(min(len(t) for t in list_a), min(len(t) for t in list_b))
    stats = []
    for i in range(length):
        stats.append(welch_t_statistic([t[i] for t in list_a],
                                       [t[i] for t in list_b]))
    return stats
