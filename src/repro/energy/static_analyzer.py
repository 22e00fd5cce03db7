"""Static worst-case energy analysis (the EnergyAnalyser).

Mirrors the WCET analysis: a structural recursion over the region tree, with
each instruction's worst-case dynamic *energy* instead of its cycles, plus the
static (leakage) contribution accumulated over the WCET-bounded execution
time.  Both worst cases come from one place,
:func:`~repro.hw.price.worst_price`, the maximum of the price the simulator
charges each instruction; so the result is a worst-case energy consumption
(WCEC) bound that no simulated run exceeds, at any operating point — the
property the contract system relies on when discharging energy budgets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.hw.core import Core
from repro.hw.dvfs import OperatingPoint
from repro.hw.platform import Platform
from repro.ir.cfg import Program
from repro.wcet.analyzer import WCETAnalyzer, WCETResult, worst_cost
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

    def __init__(self, platform: Platform, core: Optional[Core] = None):
        self.wcet = WCETAnalyzer(platform, core=core)
        self.platform = platform
        self.core = self.wcet.core

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
        engine = (PathSensitiveCostEngine if path_sensitive
                  else StructuralCostEngine)(
                      program, worst_cost(self.core, self.platform.memory, opp))
        return self.result(function_name, engine.function_cost(function_name),
                           wcet_result, opp)

    def result(self, function_name: str, dynamic_j: float,
               wcet_result: WCETResult, opp: OperatingPoint) -> WCECResult:
        """The bound of ``function_name``: its dynamic energy plus the static
        leakage over ``wcet_result``'s time, at ``opp``."""
        return WCECResult(
            function=function_name,
            dynamic_energy_j=dynamic_j,
            static_energy_j=self.core.static_power(opp) * wcet_result.time_s,
            wcet_time_s=wcet_result.time_s,
            frequency_hz=opp.frequency_hz,
        )
