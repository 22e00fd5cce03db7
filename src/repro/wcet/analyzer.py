"""The WCET analyser (aiT stand-in).

Computes safe worst-case execution time bounds for tasks compiled to the IR.
Every instruction is charged :func:`~repro.hw.price.worst_price`, the maximum
of the one price the simulator charges (:func:`~repro.hw.price.price`) over
every input it can pass: a branch taken or not, the instruction class
switched, the dividend unknown.  So no simulated run exceeds the bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, Optional

from repro.errors import AnalysisError
from repro.hw.core import Core
from repro.hw.dvfs import OperatingPoint
from repro.hw.memory import MemorySystem
from repro.hw.platform import Platform
from repro.hw.price import worst_price
from repro.ir.cfg import Function, Program
from repro.wcet.paths import PathSensitiveCostEngine, PathStats
from repro.wcet.structural import (InstrCost, StructuralCostEngine,
                                   call_closure)


@dataclass
class WCETResult:
    """Outcome of a WCET analysis for one entry function."""

    function: str
    cycles: float
    time_s: float
    frequency_hz: float
    #: The cycles of the entry and of every function it calls, directly or
    #: not, in program order.
    per_function_cycles: Dict[str, float] = field(default_factory=dict)

    def scaled_to(self, frequency_hz: float) -> "WCETResult":
        """The same cycle bound expressed at a different clock frequency."""
        if frequency_hz <= 0:
            raise ValueError("frequency must be positive")
        return replace(self, time_s=self.cycles / frequency_hz,
                       frequency_hz=frequency_hz,
                       per_function_cycles=dict(self.per_function_cycles))


def worst_cost(core: Core, memory: MemorySystem,
               opp: Optional[OperatingPoint] = None,
               memo: Optional[Dict] = None) -> InstrCost:
    """The cost engines' per-instruction cost: :func:`worst_price`'s
    cycles (``opp=None``) or its dynamic energy at ``opp``, memoised in
    ``memo`` (default: a fresh one) per ``(code region, opcode)``, all the
    price depends on.
    """
    index = 0 if opp is None else 1
    opp = opp or core.nominal_opp
    memo = {} if memo is None else memo

    def instr_cost(function, instr):
        key = (function.code_region, instr.opcode)
        cost = memo.get(key)
        if cost is None:
            cost = memo[key] = worst_price(core, memory, instr.opcode,
                                           function.code_region, opp)[index]
        return cost
    return instr_cost


def check_analysable(program: Program) -> None:
    """Validate ``program`` and reject recursion, which no bound covers."""
    program.validate()
    reject_recursion(program)


def reject_recursion(program: Program,
                     callees: Optional[Callable[[Function], Iterable[str]]]
                     = None) -> None:
    """Raise :class:`AnalysisError` if ``program`` has recursion;
    ``callees`` stands in for :meth:`Function.callees`."""
    if program.has_recursion(callees):
        raise AnalysisError("programs with recursion are not analysable")


class WCETAnalyzer:
    """Static WCET analysis on IR programs for a predictable core."""

    def __init__(self, platform: Platform, core: Optional[Core] = None):
        core = core or next(iter(platform.predictable_cores), None)
        if core is None:
            raise AnalysisError(
                f"platform {platform.name!r} has no predictable core; use the "
                f"dynamic profiling workflow for complex architectures")
        self.platform = platform
        self.core = core
        #: Pruning counters of the most recent path-sensitive ``analyze``.
        self.last_path_stats: Dict[str, PathStats] = {}

    # -- public API --------------------------------------------------------------
    def analyze(self, program: Program, function_name: str,
                opp: Optional[OperatingPoint] = None,
                path_sensitive: bool = False) -> WCETResult:
        """Compute the WCET bound of ``function_name`` (including callees).

        ``opp`` (default: the core's nominal point) only prices the cycle
        bound in seconds.  With ``path_sensitive`` the maximisation excludes
        statically infeasible CFG paths; the pruning counters land in
        :attr:`last_path_stats`.
        """
        check_analysable(program)
        engine = (PathSensitiveCostEngine if path_sensitive
                  else StructuralCostEngine)(
                      program, worst_cost(self.core, self.platform.memory))
        try:
            return self.result(program, function_name, engine.function_cost,
                               opp)
        finally:
            self.last_path_stats = engine.path_stats if path_sensitive else {}

    def result(self, program: Program, function_name: str,
               cycles_of: Callable[[str], float],
               opp: Optional[OperatingPoint] = None,
               closure: Optional[Iterable[str]] = None) -> WCETResult:
        """The bound of ``function_name``, priced at ``opp``.

        ``cycles_of(name)`` is a function's cycle cost, or raises its
        analysis error; ``per_function_cycles`` holds the entry's call
        closure (``closure``, by default :func:`call_closure`).
        """
        cycles = cycles_of(function_name)
        opp = opp or self.core.nominal_opp
        if closure is None:
            closure = call_closure(program, function_name)
        return WCETResult(
            function=function_name,
            cycles=cycles,
            time_s=self.core.time_for_cycles(cycles, opp),
            frequency_hz=opp.frequency_hz,
            per_function_cycles={name: cycles_of(name) for name in closure},
        )
