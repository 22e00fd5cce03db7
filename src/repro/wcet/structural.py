"""Structural worst-case cost engine.

Both the WCET analysis and the worst-case energy analysis reduce to the same
recursion over the region tree recorded during lowering:

* a basic block costs the sum of its instructions' worst-case costs,
* a sequence costs the sum of its children,
* an ``if`` costs the condition block plus the more expensive branch,
* a bounded loop costs ``(bound + 1)`` condition evaluations plus ``bound``
  body executions,
* a call costs the call instruction plus the callee's worst-case cost
  (memoised; recursion is rejected).

The engine is parameterised by a per-instruction cost callable so the same
code serves cycles (WCET) and joules (worst-case energy consumption).  An
optional block memo shares call-free block costs across programs.
"""

from __future__ import annotations

from functools import reduce
from operator import add, attrgetter
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import AnalysisError, UnboundedLoopError
from repro.ir.cfg import Function, Program
from repro.ir.instructions import Instr, Opcode
from repro.ir.regions import (
    BlockRegion,
    IfRegion,
    LoopRegion,
    Region,
    SeqRegion,
)
from repro.ir.runs import Run, flat_map

#: cost(function, instr) -> float; the function is passed so costs can depend
#: on its placement (e.g. scratchpad-resident code has cheaper fetches).
#: Costs must not depend on register names: an unrolled run's copies are
#: costed through its template.
InstrCost = Callable[[Function, Instr], float]

#: Per-function costs, and the analysis errors of functions without a bound.
CostTable = Tuple[Dict[str, float], Dict[str, Exception]]

#: Enum members, not ``.value``: the memo key is built per block.
_CALL_OPCODE = Opcode.CALL
_opcode_of = attrgetter("opcode")

#: Entries a cross-program memo (block costs, path-sensitive units) holds
#: before it is emptied: an analysis cache shared process-wide lives as
#: long as the service that holds it.
MEMO_LIMIT = 2 ** 12


def memo_put(memo: Dict, key, value):
    """Store ``value`` under ``key``, emptying a full ``memo`` first; only
    speed depends on what a memo keeps.  Returns ``value``."""
    if len(memo) >= MEMO_LIMIT:
        memo.clear()
    memo[key] = value
    return value


class StructuralCostEngine:
    """Computes worst-case costs of functions of a program.

    ``block_memo`` shares the costs of call-free blocks across functions,
    programs and engines, keyed by ``(code_region, opcodes)``: pass one only
    when ``instr_cost`` depends on nothing but those two.  A memoised block
    costs the same left-to-right sum as an unmemoised one.  The memo is
    emptied when it reaches :data:`MEMO_LIMIT` entries.
    """

    def __init__(self, program: Program, instr_cost: InstrCost,
                 block_memo: Optional[Dict[Tuple, float]] = None):
        self.program = program
        self.instr_cost = instr_cost
        self.block_memo = block_memo
        self._function_cost: Dict[str, float] = {}
        self._in_progress: set = set()

    # -- public API -----------------------------------------------------------
    def function_cost(self, name: str) -> float:
        """Worst-case cost of one invocation of function ``name``."""
        if name in self._function_cost:
            return self._function_cost[name]
        if name in self._in_progress:
            raise AnalysisError(
                f"recursive call cycle involving {name!r}; the static "
                f"analyses require recursion-free programs")
        self._in_progress.add(name)
        try:
            function = self.program.function(name)
            cost = self._region_cost(function, function.region)
        finally:
            self._in_progress.discard(name)
        self._function_cost[name] = cost
        return cost

    def costs(self) -> CostTable:
        """Every function's cost, and the error of each that has none.

        Functions not reachable from an entry may legitimately lack loop
        bounds; they simply don't get a standalone bound.
        """
        table: Dict[str, float] = {}
        errors: Dict[str, Exception] = {}
        for name in self.program.functions:
            try:
                table[name] = self.function_cost(name)
            except AnalysisError as error:
                errors[name] = error
        return table, errors

    # -- recursion -----------------------------------------------------------
    def _region_cost(self, function: Function, region: Region) -> float:
        if isinstance(region, BlockRegion):
            return self._block_cost(function, region.label)
        if isinstance(region, SeqRegion):
            return sum(self._region_cost(function, child)
                       for child in region.children)
        if isinstance(region, IfRegion):
            cond = self._block_cost(function, region.cond_label)
            then_cost = self._region_cost(function, region.then_region)
            else_cost = self._region_cost(function, region.else_region)
            return cond + max(then_cost, else_cost)
        if isinstance(region, LoopRegion):
            if region.bound is None:
                raise UnboundedLoopError(function.name,
                                         f"loop at block {region.cond_label!r}")
            if region.bound < 0:
                raise AnalysisError(
                    f"negative loop bound in {function.name!r}")
            cond = self._block_cost(function, region.cond_label)
            body = self._region_cost(function, region.body_region)
            return (region.bound + 1) * cond + region.bound * body
        raise AnalysisError(f"unknown region type {type(region)!r}")

    def _block_cost(self, function: Function, label: str) -> float:
        """Worst-case cost of one basic block, calls included.

        A left-to-right sum from ``0.0`` of :meth:`_terms`.  An unrolled
        run adds its template's terms once per copy, in order, without
        materialising: energy costs are not integers, so multiplying a
        copy's cost would change the last bit.
        """
        parts = function.block(label).parts
        memo = self.block_memo
        if memo is not None:
            opcodes = flat_map(parts, _opcode_of)
            if _CALL_OPCODE not in opcodes:
                key = (function.code_region, tuple(opcodes))
                cost = memo.get(key)
                if cost is None:
                    cost = memo_put(memo, key, reduce(
                        add, self._terms(function, parts), 0.0))
                return cost
        return reduce(add, self._terms(function, parts), 0.0)

    def _terms(self, function: Function, parts) -> List[float]:
        """Each instruction's cost, then for a call the callee's cost, in
        order, with every run's terms repeated."""
        terms: List[float] = []
        instr_cost = self.instr_cost
        for part in parts:
            if part.__class__ is Run:
                terms.extend(self._terms(function, part.template())
                             * part.count)
                continue
            terms.append(instr_cost(function, part))
            if part.opcode is Opcode.CALL:
                terms.append(self.function_cost(part.callee))
        return terms


def entry_cost(program: Program, name: str, table: Dict[str, float],
               errors: Dict[str, Exception]) -> float:
    """``name``'s cost from a :meth:`StructuralCostEngine.costs` table.

    Raises the function's analysis error, or for an unknown function the
    error :meth:`Program.function` raises.
    """
    if name in table:
        return table[name]
    if name in errors:
        raise errors[name]
    program.function(name)
    raise KeyError(name)  # pragma: no cover - function() raises
