"""Coarse-grained, component-based energy model for complex architectures.

Complex boards (Apalis TK1, Jetson TX2/Nano) cannot be modelled at the ISA
level.  Following the component-based approach of Seewald et al. (the basis of
PowProfiler), a system's power draw is decomposed into per-component
contributions — each CPU cluster, the GPU, and a constant board overhead —
where each active component contributes its active power for the time it is
busy and its idle power otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import AnalysisError
from repro.hw.core import ComplexCore
from repro.hw.dvfs import OperatingPoint
from repro.hw.platform import Platform


@dataclass
class ComponentLoad:
    """Work assigned to one component over an observation window."""

    component: str
    busy_time_s: float
    energy_j: float

    @property
    def utilisation(self) -> float:
        return self.busy_time_s


@dataclass
class ComponentEnergyModel:
    """Board-level energy estimation from per-component activity."""

    platform: Platform
    board_overhead_w: float = 0.5
    #: Optional per-core operating point overrides (core name -> OPP).
    operating_points: Dict[str, OperatingPoint] = field(default_factory=dict)

    def _core(self, name: str) -> ComplexCore:
        core = self.platform.core(name)
        if not isinstance(core, ComplexCore):
            raise AnalysisError(
                f"component model only applies to complex cores, {name!r} is "
                f"{type(core).__name__}")
        return core

    def _opp(self, name: str) -> Optional[OperatingPoint]:
        return self.operating_points.get(name)

    # -- per-task estimation ----------------------------------------------------
    def task_time(self, core_name: str, work_units: float,
                  kernel: Optional[str] = None) -> float:
        core = self._core(core_name)
        return core.execution_time(work_units, kernel, self._opp(core_name))

    def task_energy(self, core_name: str, work_units: float,
                    kernel: Optional[str] = None) -> float:
        """Energy attributable to running a task on a component (active - idle)."""
        core = self._core(core_name)
        opp = self._opp(core_name)
        time_s = core.execution_time(work_units, kernel, opp)
        return (core.active_power(opp) - core.idle_power(opp)) * time_s

    # -- window-level estimation ---------------------------------------------------
    def window_energy(self, loads: List[ComponentLoad], window_s: float) -> float:
        """Total board energy over a window with the given component activity.

        Every complex core contributes its idle power for the whole window;
        busy components add their task energy on top; a constant board
        overhead covers memory, IO and regulators.
        """
        if window_s <= 0:
            raise ValueError("window must have positive length")
        by_component: Dict[str, float] = {}
        for load in loads:
            if load.busy_time_s > window_s + 1e-9:
                raise AnalysisError(
                    f"component {load.component!r} busy for {load.busy_time_s}s "
                    f"in a {window_s}s window")
            by_component[load.component] = (
                by_component.get(load.component, 0.0) + load.energy_j)

        total = self.board_overhead_w * window_s
        for core in self.platform.complex_cores:
            total += core.idle_power(self._opp(core.name)) * window_s
            total += by_component.get(core.name, 0.0)
        return total

    def idle_power(self) -> float:
        """Board power with every component idle."""
        return self.board_overhead_w + sum(
            core.idle_power(self._opp(core.name))
            for core in self.platform.complex_cores)
