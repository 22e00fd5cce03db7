"""Scratchpad-memory (SPM) allocation of hot code.

Predictable MCU platforms fetch code from flash with wait states; moving the
hottest functions into a zero-wait-state scratchpad reduces both the WCET and
the energy of every fetched instruction.  The allocation is a greedy knapsack
over the functions, ranked by estimated benefit density (worst-case fetched
instructions per byte of code).

The evaluation engine's variants share their functions, so the pass never
changes one: it memoises on each function its fetch count and its placed
copy, and variants that share a function share both, along with every
memo the analysis keeps on the placed copy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

from repro.hw.platform import Platform
from repro.ir.cfg import Function, Program
from repro.ir.instructions import Instr
from repro.wcet.structural import CalleeKeyedMemo, StructuralCostEngine

#: Assumed encoded size of one IR instruction, in bytes (Thumb-like).
INSTRUCTION_BYTES = 4


@dataclass
class SpmAllocation:
    """Outcome of the allocation pass."""

    placed_functions: List[str]
    used_bytes: int
    capacity_bytes: int

    @property
    def utilisation(self) -> float:
        return self.used_bytes / self.capacity_bytes if self.capacity_bytes else 0.0


#: Attribute memoising, on each function, its worst-case fetch count (or
#: the error that leaves it unranked) keyed by its callees' counts.
_FETCHES_ATTR = "_spm_fetches"


class _FetchMemo:
    """Fetch counts kept on the functions themselves: the evaluation
    engine's variants share their functions, so each is counted once per
    distinct callee counts, not once per variant."""

    @staticmethod
    def recall(function: Function, callees: Tuple):
        return getattr(function, _FETCHES_ATTR, {}).get(callees)

    @staticmethod
    def remember(function: Function, callees: Tuple, outcome) -> None:
        function.__dict__.setdefault(_FETCHES_ATTR, {})[callees] = outcome


#: Attribute memoising, on each function, its placed copies by region.
_PLACED_ATTR = "_spm_placed"


def _placed(function: Function, region: str) -> Function:
    """``function`` with its code in ``region``: one copy per (function,
    region), kept on the function, so variants that share a function
    share its placed copy and every memo kept on that copy."""
    copies = function.__dict__.setdefault(_PLACED_ATTR, {})
    placed = copies.get(region)
    if placed is None:
        placed = copies[region] = replace(function, code_region=region)
    return placed


class _FetchCounter(CalleeKeyedMemo, StructuralCostEngine):
    """A structural engine counting through :class:`_FetchMemo`."""


def _worst_case_fetches(program: Program) -> Dict[str, float]:
    """Worst-case number of instruction fetches per single invocation."""

    def one_per_instruction(_function: Function, _instr: Instr) -> float:
        return 1.0

    engine = _FetchCounter(program, one_per_instruction, memo=_FetchMemo)
    fetches: Dict[str, float] = {}
    for name in program.functions:
        try:
            fetches[name] = engine.function_cost(name)
        except Exception:
            # Functions without loop bounds cannot be ranked; they simply are
            # not considered for placement.
            continue
    return fetches


def allocate_scratchpad(program: Program, platform: Platform) -> SpmAllocation:
    """Place the most profitable functions into the platform's scratchpad.

    Functions already placed (``code_region`` set) are left untouched.  When
    the platform has no scratchpad the pass is a no-op.  A placed function
    is replaced by a copy with ``code_region`` set, never changed in place:
    the evaluation engine's programs share their functions.  The copy is
    made once per function and region and kept on the function, so the
    variants sharing a function share its placed copy too.
    """
    memory = platform.memory
    if not memory.has_scratchpad:
        return SpmAllocation(placed_functions=[], used_bytes=0, capacity_bytes=0)
    capacity = memory.scratchpad_size()
    wait_saving = (memory.fetch_wait_states(memory.code_region)
                   - memory.fetch_wait_states(memory.scratchpad_region))
    if wait_saving <= 0:
        return SpmAllocation(placed_functions=[], used_bytes=0,
                             capacity_bytes=capacity)

    fetches = _worst_case_fetches(program)
    candidates = []
    for name, function in program.functions.items():
        if function.code_region is not None or name not in fetches:
            continue
        size = function.instruction_count * INSTRUCTION_BYTES
        if size == 0 or size > capacity:
            continue
        benefit = fetches[name] * wait_saving
        candidates.append((benefit / size, benefit, size, name))
    candidates.sort(reverse=True)

    placed: List[str] = []
    used = 0
    for _density, _benefit, size, name in candidates:
        if used + size > capacity:
            continue
        program.functions[name] = _placed(program.functions[name],
                                          memory.scratchpad_region)
        placed.append(name)
        used += size
    return SpmAllocation(placed_functions=placed, used_bytes=used,
                         capacity_bytes=capacity)
