"""Numpy-vectorised multi-objective machinery.

The seed implementations of :func:`non_dominated_sort`,
:func:`crowding_distance` and :func:`pareto_front` walked Python double loops
over ``Variant.dominates`` — O(N² · K) interpreted float comparisons per
generation.  Here the whole pairwise dominance relation is computed in one
broadcasted comparison over the (N, K) objective matrix::

    leq[i, j]  =  all_k  F[i, k] <= F[j, k]
    lt[i, j]   =  any_k  F[i, k] <  F[j, k]
    D[i, j]    =  leq[i, j] and lt[i, j]          # i dominates j

Everything downstream (front peeling, crowding, archive filtering) consumes
``D`` with cheap vector reductions.  The results are **exactly** those of the
seed's pure-Python double loops (kept as the oracle in ``tests/oracles.py``) —
including front ordering, stable tie-breaking in the crowding sort and
first-occurrence-wins deduplication — so the optimisers' Pareto archives are
bit-for-bit unchanged for fixed seeds (property-tested in
``tests/test_properties.py``).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.errors import CompilationError


def objectives_matrix(variants: Sequence) -> np.ndarray:
    """The (N, K) objective matrix of ``variants`` (anything with .objectives()).

    Raises :class:`CompilationError` when the variants carry different
    objective sets, mirroring ``Variant.dominates``.
    """
    rows = [variant.objectives() for variant in variants]
    if not rows:
        return np.empty((0, 0))
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise CompilationError(
            "cannot compare variants with different objective sets")
    return np.asarray(rows, dtype=float)


def dominance_matrix(objectives: np.ndarray) -> np.ndarray:
    """Boolean (N, N) matrix where ``[i, j]`` means *i* dominates *j*."""
    if objectives.size == 0:
        count = objectives.shape[0]
        return np.zeros((count, count), dtype=bool)
    less_equal = (objectives[:, None, :] <= objectives[None, :, :]).all(axis=2)
    strictly_less = (objectives[:, None, :] < objectives[None, :, :]).any(axis=2)
    return less_equal & strictly_less


def non_dominated_sort(variants: Sequence) -> List[List[int]]:
    """Indices of ``variants`` grouped into successive non-dominated fronts.

    Drop-in replacement for the reference implementation: the pairwise
    dominance checks are one broadcasted numpy comparison, the front peeling
    preserves the reference's exact ordering within each front.
    """
    count = len(variants)
    if count == 0:
        return []
    dominates = dominance_matrix(objectives_matrix(variants))
    # domination_count[j] = how many variants dominate j.
    domination_count = dominates.sum(axis=0).astype(np.int64)

    fronts: List[List[int]] = []
    current = np.flatnonzero(domination_count == 0)
    while current.size:
        fronts.append(current.tolist())
        next_front: List[int] = []
        for i in current:
            # Mirrors the reference: walk i's dominated set in ascending
            # index order, releasing j once its last dominator is processed.
            dominated = np.flatnonzero(dominates[i])
            domination_count[dominated] -= 1
            next_front.extend(
                int(j) for j in dominated[domination_count[dominated] == 0])
        current = np.asarray(next_front, dtype=np.int64)
    return fronts


def crowding_distance(variants: Sequence,
                      front: Sequence[int]) -> Dict[int, float]:
    """Crowding distance of each index in ``front`` (NSGA-II diversity)."""
    distance = {int(i): 0.0 for i in front}
    if not front:
        return distance
    indices = np.asarray(list(front), dtype=np.int64)
    objectives = objectives_matrix([variants[i] for i in indices])
    values = np.zeros(len(indices), dtype=float)
    for objective in range(objectives.shape[1]):
        column = objectives[:, objective]
        # Stable sort matches the reference's `sorted(front, key=...)`
        # tie-breaking (original front order preserved among equals).
        order = np.argsort(column, kind="stable")
        low, high = column[order[0]], column[order[-1]]
        values[order[0]] = values[order[-1]] = np.inf
        if high == low:
            continue
        spread = (column[order[2:]] - column[order[:-2]]) / (high - low)
        values[order[1:-1]] += spread
    for position, index in enumerate(indices):
        distance[int(index)] = float(values[position])
    return distance


def pareto_front(variants: Sequence) -> List:
    """Non-dominated subset of ``variants`` (first occurrence wins on ties)."""
    count = len(variants)
    if count == 0:
        return []
    dominates = dominance_matrix(objectives_matrix(variants))
    non_dominated = ~dominates.any(axis=0)
    front: List = []
    seen_objectives = set()
    for index in np.flatnonzero(non_dominated):
        candidate = variants[index]
        key = tuple(candidate.objectives())
        if key in seen_objectives:
            continue
        seen_objectives.add(key)
        front.append(candidate)
    return front
