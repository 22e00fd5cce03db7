"""Slow, obviously-correct oracles for the vectorised code in ``src/``.

Each function here is the original loop-based implementation that a faster
version replaced.  The shipped package never calls them; the differential
tests import this module by name and assert exact agreement:

* the seed's O(N^2) double-loop Pareto machinery (``non_dominated_sort``,
  ``crowding_distance``, ``pareto_front`` in
  :mod:`repro.compiler.engine.vectorized`), checked in
  ``tests/test_properties.py`` for front composition *and* ordering,
  crowding tie-breaking and deduplication;
* the per-output-pixel ``np.tensordot`` convolution that
  :meth:`repro.dl.layers.Conv2D.forward` replaced with one batched matmul,
  checked bit for bit in ``tests/test_dl.py``;
* the clone-per-iteration loop unrolling that
  :func:`repro.compiler.passes.ast_passes.unroll_loops` replaced with one
  ``Repeat`` node whose IR lowering stamps, checked IR-for-IR in
  ``tests/test_unroll_stamping.py``;
* the recursive key canonicaliser whose output
  :func:`repro.compiler.engine.persist.key_digest` used to hash, replaced by
  one call into the C JSON encoder, checked digest for digest in
  ``tests/test_persist.py``.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.compiler.engine.persist import PERSIST_CODEC_VERSION, PersistError
from repro.errors import CompilationError
from repro.frontend import ast_nodes as ast
from repro.wcet.loopbounds import infer_for_bound


@dataclass
class ObjectivePoint:
    """A minimal stand-in for :class:`Variant` carrying only objectives.

    Useful for exercising the Pareto machinery on raw objective vectors
    (property tests, benchmarks) without building compiled variants.
    """

    values: Tuple[float, ...]

    def objectives(self) -> Tuple[float, ...]:
        return self.values

    def dominates(self, other: "ObjectivePoint") -> bool:
        mine, theirs = self.objectives(), other.objectives()
        if len(mine) != len(theirs):
            raise CompilationError(
                "cannot compare variants with different objective sets")
        return (all(a <= b for a, b in zip(mine, theirs))
                and any(a < b for a, b in zip(mine, theirs)))


def non_dominated_sort_reference(variants: Sequence) -> List[List[int]]:
    """Indices of ``variants`` grouped into successive non-dominated fronts."""
    count = len(variants)
    dominated_by: List[List[int]] = [[] for _ in range(count)]
    domination_count = [0] * count
    fronts: List[List[int]] = [[]]

    for i in range(count):
        for j in range(count):
            if i == j:
                continue
            if variants[i].dominates(variants[j]):
                dominated_by[i].append(j)
            elif variants[j].dominates(variants[i]):
                domination_count[i] += 1
        if domination_count[i] == 0:
            fronts[0].append(i)

    current = 0
    while fronts[current]:
        next_front: List[int] = []
        for i in fronts[current]:
            for j in dominated_by[i]:
                domination_count[j] -= 1
                if domination_count[j] == 0:
                    next_front.append(j)
        current += 1
        fronts.append(next_front)
    return [front for front in fronts if front]


def crowding_distance_reference(variants: Sequence,
                                front: Sequence[int]) -> Dict[int, float]:
    """Crowding distance of each index in ``front``."""
    distance = {i: 0.0 for i in front}
    if not front:
        return distance
    objective_count = len(variants[front[0]].objectives())
    for objective in range(objective_count):
        ordered = sorted(front, key=lambda i: variants[i].objectives()[objective])
        low = variants[ordered[0]].objectives()[objective]
        high = variants[ordered[-1]].objectives()[objective]
        distance[ordered[0]] = distance[ordered[-1]] = float("inf")
        if high == low:
            continue
        for position in range(1, len(ordered) - 1):
            previous = variants[ordered[position - 1]].objectives()[objective]
            following = variants[ordered[position + 1]].objectives()[objective]
            distance[ordered[position]] += (following - previous) / (high - low)
    return distance


def pareto_front_reference(variants: Sequence) -> List:
    """Non-dominated subset of ``variants`` (first occurrence wins on ties)."""
    front: List = []
    for candidate in variants:
        if any(other.dominates(candidate) for other in variants
               if other is not candidate):
            continue
        if any(existing.objectives() == candidate.objectives()
               for existing in front):
            continue
        front.append(candidate)
    return front


def conv2d_forward_reference(conv, tensor: np.ndarray) -> np.ndarray:
    """``conv``'s output computed with one ``np.tensordot`` per output pixel."""
    if tensor.ndim == 2:
        tensor = tensor[:, :, np.newaxis]
    kh, kw, _, out_channels = conv.weights.shape
    out_h = (tensor.shape[0] - kh) // conv.stride + 1
    out_w = (tensor.shape[1] - kw) // conv.stride + 1
    output = np.zeros((out_h, out_w, out_channels))
    for row in range(out_h):
        for col in range(out_w):
            r0, c0 = row * conv.stride, col * conv.stride
            patch = tensor[r0:r0 + kh, c0:c0 + kw, :]
            output[row, col, :] = np.tensordot(
                patch, conv.weights, axes=([0, 1, 2], [0, 1, 2])) + conv.bias
    return output


def _unroll_body_by_cloning(body: List, limit: int, counter: List[int]) -> List:
    result: List = []
    for stmt in body:
        if isinstance(stmt, ast.If):
            stmt.then_body = _unroll_body_by_cloning(stmt.then_body, limit,
                                                     counter)
            stmt.else_body = _unroll_body_by_cloning(stmt.else_body, limit,
                                                     counter)
            result.append(stmt)
            continue
        if isinstance(stmt, ast.While):
            stmt.body = _unroll_body_by_cloning(stmt.body, limit, counter)
            result.append(stmt)
            continue
        if isinstance(stmt, ast.For):
            stmt.body = _unroll_body_by_cloning(stmt.body, limit, counter)
            bound = stmt.bound if stmt.bound is not None else infer_for_bound(stmt)
            static_bound = infer_for_bound(stmt)
            # Only fully unroll loops whose trip count is statically exact
            # (counted loops) and small enough.
            if static_bound is not None and static_bound == bound and 0 < bound <= limit:
                counter[0] += 1
                if stmt.init is not None:
                    result.append(stmt.init)
                for _ in range(bound):
                    result.extend(ast.clone_stmt(s) for s in stmt.body)
                    if stmt.update is not None:
                        result.append(ast.clone_stmt(stmt.update))
                continue
            result.append(stmt)
            continue
        result.append(stmt)
    return result


def unroll_by_cloning(module, limit: int) -> int:
    """Fully unroll counted loops by writing out ``bound`` cloned bodies.

    Same contract as :func:`repro.compiler.passes.ast_passes.unroll_loops`
    (in place; returns the number of loops unrolled; ``limit`` 0 disables).
    """
    if limit <= 0:
        return 0
    counter = [0]
    for function in module.functions:
        function.body = _unroll_body_by_cloning(function.body, limit, counter)
    return counter[0]


def canon_key_reference(value):
    """JSON-serialisable canonical form of a key component.

    Handles the structural-fingerprint vocabulary: nested tuples/lists,
    strings, ints, floats, bools, ``None`` and :class:`enum.Enum` members
    (serialised by type and member name, never by implicit ordinal).
    """
    if isinstance(value, (tuple, list)):
        return [canon_key_reference(item) for item in value]
    if isinstance(value, enum.Enum):
        return {"enum": [type(value).__name__, value.name]}
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise PersistError(
        f"unsupported key component of type {type(value).__name__!r}")


def key_digest_reference(*parts) -> str:
    """SHA-256 hex digest of the canonical JSON serialisation of ``parts``."""
    blob = json.dumps([PERSIST_CODEC_VERSION, canon_key_reference(list(parts))],
                      separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
