"""Static worst-case energy analysis (the EnergyAnalyser).

Mirrors the WCET analysis: a structural recursion over the region tree, with
per-instruction worst-case *energy* instead of cycles, plus the static
(leakage) contribution accumulated over the WCET-bounded execution time.  The
result is a worst-case energy consumption (WCEC) bound that the simulator can
never exceed with the same hardware tables — the property the contract system
relies on when discharging energy budgets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.energy.isa_model import IsaEnergyModel
from repro.hw.core import Core
from repro.hw.dvfs import OperatingPoint
from repro.hw.platform import Platform
from repro.ir.cfg import Function, Program
from repro.ir.instructions import Instr
from repro.wcet.analyzer import WCETAnalyzer, WCETResult
from repro.wcet.paths import PathSensitiveCostEngine
from repro.wcet.structural import StructuralCostEngine


@dataclass
class WCECResult:
    """Worst-case energy consumption bound for one entry function."""

    function: str
    dynamic_energy_j: float
    static_energy_j: float
    wcet_time_s: float
    frequency_hz: float

    @property
    def energy_j(self) -> float:
        return self.dynamic_energy_j + self.static_energy_j


class EnergyAnalyzer:
    """Static WCEC analysis on IR programs for a predictable core."""

    def __init__(self, platform: Platform, core: Optional[Core] = None,
                 model: Optional[IsaEnergyModel] = None):
        self.wcet = WCETAnalyzer(platform, core=core)
        self.platform = platform
        self.core = core = self.wcet.core
        self.model = model or IsaEnergyModel.from_core(
            core, memory_access_j=platform.memory.access_energy())

    # -- cost model -------------------------------------------------------------
    def _instr_energy(self, function: Function, instr: Instr,
                      opp: OperatingPoint) -> float:
        return self.model.instruction_energy(
            instr.instruction_class,
            opp=opp,
            with_overhead=True,
            is_memory_access=instr.is_memory_access,
        )

    # -- public API --------------------------------------------------------------
    def analyze(self, program: Program, function_name: str,
                opp: Optional[OperatingPoint] = None,
                path_sensitive: bool = False) -> WCECResult:
        """Compute the WCEC bound of ``function_name`` (including callees).

        With ``path_sensitive`` both the dynamic-energy maximisation and the
        WCET bound behind the static-leakage term exclude infeasible paths
        (see :mod:`repro.wcet.paths`).  ``opp`` defaults to the core's
        nominal point.
        """
        opp = opp or self.core.nominal_opp
        # The WCET analysis validates the program and rejects recursion.
        wcet_result = self.wcet.analyze(program, function_name, opp=opp,
                                        path_sensitive=path_sensitive)
        energy_cost = lambda fn, instr: self._instr_energy(fn, instr, opp)
        engine = (PathSensitiveCostEngine if path_sensitive
                  else StructuralCostEngine)(program, energy_cost)
        return self.result(function_name, engine.function_cost(function_name),
                           wcet_result, opp)

    def result(self, function_name: str, dynamic_j: float,
               wcet_result: WCETResult, opp: OperatingPoint) -> WCECResult:
        """The bound of ``function_name``: its dynamic energy plus the static
        leakage over ``wcet_result``'s time, at ``opp``."""
        return WCECResult(
            function=function_name,
            dynamic_energy_j=dynamic_j,
            static_energy_j=self.model.static_power(opp) * wcet_result.time_s,
            wcet_time_s=wcet_result.time_s,
            frequency_hz=opp.frequency_hz,
        )
