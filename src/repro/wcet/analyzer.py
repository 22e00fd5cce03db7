"""The WCET analyser (aiT stand-in).

Computes safe worst-case execution time bounds for tasks compiled to the IR,
using the same per-instruction timing tables as the simulator but always
charging the worst case (taken branches, maximum divider latency, flash wait
states unless code was placed in the scratchpad).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from repro.errors import AnalysisError
from repro.hw.core import Core
from repro.hw.dvfs import OperatingPoint
from repro.hw.platform import Platform
from repro.ir.cfg import Function, Program
from repro.ir.instructions import Instr, Opcode
from repro.wcet.paths import PathSensitiveCostEngine, PathStats
from repro.wcet.structural import StructuralCostEngine, entry_cost


@dataclass
class WCETResult:
    """Outcome of a WCET analysis for one entry function."""

    function: str
    cycles: float
    time_s: float
    frequency_hz: float
    per_function_cycles: Dict[str, float] = field(default_factory=dict)

    def scaled_to(self, frequency_hz: float) -> "WCETResult":
        """The same cycle bound expressed at a different clock frequency."""
        if frequency_hz <= 0:
            raise ValueError("frequency must be positive")
        return replace(self, time_s=self.cycles / frequency_hz,
                       frequency_hz=frequency_hz,
                       per_function_cycles=dict(self.per_function_cycles))


def check_analysable(program: Program) -> None:
    """Validate ``program`` and reject recursion, which no bound covers."""
    program.validate()
    if program.has_recursion():
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

    # -- cost model (mirrors the simulator, worst case) ------------------------
    def _instr_cycles(self, function: Function, instr: Instr) -> float:
        cls = instr.instruction_class
        cycles = float(self.core.max_cycles_for(cls))
        fetch_region = function.code_region or self.platform.memory.code_region
        cycles += self.platform.memory.fetch_wait_states(fetch_region)
        if instr.opcode is Opcode.LOAD:
            cycles += self.platform.memory.data_wait_states(write=False)
        elif instr.opcode is Opcode.STORE:
            cycles += self.platform.memory.data_wait_states(write=True)
        return cycles

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
                  else StructuralCostEngine)(program, self._instr_cycles)
        table, errors = engine.costs()
        self.last_path_stats = engine.path_stats if path_sensitive else {}
        return self.result(program, function_name, table, errors, opp)

    def result(self, program: Program, function_name: str,
               table: Dict[str, float], errors: Dict[str, Exception],
               opp: Optional[OperatingPoint] = None) -> WCETResult:
        """The bound of ``function_name`` from a table of cycle costs
        (:meth:`StructuralCostEngine.costs`), priced at ``opp``."""
        cycles = entry_cost(program, function_name, table, errors)
        opp = opp or self.core.nominal_opp
        return WCETResult(
            function=function_name,
            cycles=cycles,
            time_s=self.core.time_for_cycles(cycles, opp),
            frequency_hz=opp.frequency_hz,
            per_function_cycles=dict(table),
        )
