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
code serves cycles (WCET) and joules (worst-case energy consumption).  It
costs a function on demand, with exactly its call closure.  An optional
block memo shares call-free block costs across programs, and
:class:`CalleeKeyedMemo` shares whole function costs.
"""

from __future__ import annotations

from functools import reduce
from operator import add, attrgetter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

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


def _recursion_error(name: str) -> AnalysisError:
    return AnalysisError(
        f"recursive call cycle involving {name!r}; the static "
        f"analyses require recursion-free programs")


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
            raise _recursion_error(name)
        self._in_progress.add(name)
        try:
            function = self.program.function(name)
            cost = self._region_cost(function, function.region)
        finally:
            self._in_progress.discard(name)
        self._function_cost[name] = cost
        return cost

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


#: Attribute memoising a function's sorted callees (:func:`memoised_callees`).
_FUNCTION_CALLEES_ATTR = "_engine_function_callees"


def memoised_callees(function: Function) -> Tuple[str, ...]:
    """``function``'s callees, sorted, memoised on the function.

    Only for functions that are no longer mutated, like the evaluation
    engine's shared build units.
    """
    callees = getattr(function, _FUNCTION_CALLEES_ATTR, None)
    if callees is None:
        callees = tuple(sorted(function.callees()))
        setattr(function, _FUNCTION_CALLEES_ATTR, callees)
    return callees


def call_closure(program: Program, name: str,
                 callees: Callable[[Function], Iterable[str]] = Function.callees
                 ) -> List[str]:
    """``name`` and every function it calls, directly or not, in program
    order."""
    reached = {name}
    pending = [name]
    while pending:
        for callee in callees(program.functions[pending.pop()]):
            if callee not in reached:
                reached.add(callee)
                pending.append(callee)
    return [function for function in program.functions if function in reached]


def _outcome_key(outcome):
    """A callee outcome as a memo-key component: its cost, or its error's
    type and message."""
    if isinstance(outcome, Exception):
        return (type(outcome).__name__, str(outcome))
    return outcome


class CalleeKeyedMemo:
    """Mixin over a cost engine: each function's outcome is memoised under
    the function and its callees' outcomes.

    An outcome is a cost, or the :class:`AnalysisError` the function
    raises.  A function's cost depends only on the function and its
    callees' costs: equal callee costs give the same left-to-right sum, bit
    for bit.  So :meth:`outcome` resolves the callees first, then asks
    ``memo.recall(function, callees)`` with ``callees`` the sorted
    ``((name, cost or (error type, message)), ...)`` pairs, and computes
    the function through the engine only when that returns ``None``,
    handing the result to ``memo.remember(function, callees, outcome)``.
    ``outcomes`` holds the outcomes resolved so far by name, for one
    program.  A function is marked in progress before its callees are
    resolved, so recursion raises :class:`AnalysisError`, never
    ``RecursionError``; that error is not memoised.  Callees are read
    through :func:`memoised_callees`.
    """

    def __init__(self, program: Program, instr_cost: InstrCost, *args,
                 memo, outcomes: Optional[Dict[str, object]] = None,
                 **kwargs):
        super().__init__(program, instr_cost, *args, **kwargs)
        self.memo = memo
        self.outcomes = {} if outcomes is None else outcomes

    def function_cost(self, name: str) -> float:
        outcome = self.outcome(name)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def outcome(self, name: str):
        """``name``'s cost, or the analysis error it raises."""
        outcome = self.outcomes.get(name)
        if outcome is not None:
            return outcome
        if name in self._in_progress:
            raise _recursion_error(name)
        function = self.program.function(name)
        self._in_progress.add(name)
        try:
            callees = tuple([(callee, _outcome_key(self.outcome(callee)))
                             for callee in memoised_callees(function)])
        finally:
            self._in_progress.discard(name)
        outcome = self.memo.recall(function, callees)
        if outcome is None:
            try:
                outcome = super().function_cost(name)
            except AnalysisError as error:
                outcome = error
            self.memo.remember(function, callees, outcome)
        self.outcomes[name] = outcome
        return outcome
