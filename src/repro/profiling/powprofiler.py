"""PowProfiler: measurement-based ETS characterisation of tasks."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.coordination.taskgraph import EtsProperties, Implementation
from repro.energy.component_model import ComponentEnergyModel
from repro.errors import ProfilingError
from repro.hw.core import ComplexCore
from repro.hw.dvfs import OperatingPoint
from repro.hw.platform import Platform
from repro.ir.cfg import Program
from repro.sim.machine import Simulator

#: Produces the argument list of one profiling run.
ArgsSampler = Callable[[random.Random], Sequence[int]]


@dataclass
class TaskProfile:
    """Statistical time/energy profile of one task."""

    task: str
    times_s: List[float] = field(default_factory=list)
    energies_j: List[float] = field(default_factory=list)
    wcet_margin: float = 1.2

    def __post_init__(self):
        if len(self.times_s) != len(self.energies_j):
            raise ProfilingError("times and energies must have equal length")

    # -- statistics ------------------------------------------------------------
    @property
    def runs(self) -> int:
        return len(self.times_s)

    @property
    def mean_time_s(self) -> float:
        return sum(self.times_s) / self.runs if self.runs else 0.0

    @property
    def max_time_s(self) -> float:
        return max(self.times_s) if self.times_s else 0.0

    @property
    def max_energy_j(self) -> float:
        return max(self.energies_j) if self.energies_j else 0.0

    def percentile_time_s(self, fraction: float) -> float:
        if not self.times_s:
            return 0.0
        ordered = sorted(self.times_s)
        index = min(int(math.ceil(fraction * len(ordered))) - 1, len(ordered) - 1)
        return ordered[max(index, 0)]

    @property
    def estimated_wcet_s(self) -> float:
        """Measured maximum inflated by a safety margin.

        Measurement-based WCET estimates are not safe bounds; the margin
        mirrors the engineering practice the paper describes for complex
        architectures.
        """
        return self.max_time_s * self.wcet_margin

    @property
    def estimated_energy_j(self) -> float:
        return self.max_energy_j * self.wcet_margin

    def to_properties(self, security_level: Optional[float] = None
                      ) -> EtsProperties:
        return EtsProperties(wcet_s=self.estimated_wcet_s,
                             energy_j=self.estimated_energy_j,
                             security_level=security_level)


class PowProfiler:
    """Measurement campaign driver."""

    def __init__(self, platform: Platform, noise_std: float = 0.05,
                 wcet_margin: float = 1.2, seed: int = 17):
        if noise_std < 0:
            raise ProfilingError("noise_std must be non-negative")
        self.platform = platform
        self.noise_std = noise_std
        self.wcet_margin = wcet_margin
        self.seed = seed

    def _noise(self, rng: random.Random) -> float:
        if self.noise_std == 0:
            return 1.0
        return max(rng.gauss(1.0, self.noise_std), 0.05)

    # -- predictable substrate (simulator) ------------------------------------------
    def profile_program(self, program: Program, function: str,
                        args_sampler: ArgsSampler, runs: int = 20,
                        task_name: Optional[str] = None) -> TaskProfile:
        """Run ``function`` repeatedly on the simulator and measure it."""
        if runs <= 0:
            raise ProfilingError("need at least one profiling run")
        rng = random.Random(self.seed)
        simulator = Simulator(program, self.platform)
        times: List[float] = []
        energies: List[float] = []
        for _ in range(runs):
            args = list(args_sampler(rng))
            result = simulator.run(function, args)
            times.append(result.time_s * self._noise(rng))
            energies.append(result.energy_j * self._noise(rng))
        return TaskProfile(task=task_name or function, times_s=times,
                           energies_j=energies, wcet_margin=self.wcet_margin)

    # -- complex substrate (component model) ------------------------------------------
    def profile_workload(self, task_name: str, core_name: str,
                         work_units: float, kernel: Optional[str] = None,
                         runs: int = 20, input_variation: float = 0.15,
                         opp: Optional[OperatingPoint] = None) -> TaskProfile:
        """Measure a coarse work-unit task on a complex core."""
        if runs <= 0:
            raise ProfilingError("need at least one profiling run")
        core = self.platform.core(core_name)
        if not isinstance(core, ComplexCore):
            raise ProfilingError(
                f"profile_workload expects a complex core, {core_name!r} is "
                f"{type(core).__name__}")
        model = ComponentEnergyModel(self.platform)
        if opp is not None:
            model.operating_points[core_name] = opp
        rng = random.Random(f"{self.seed}:{task_name}:{core_name}")
        times: List[float] = []
        energies: List[float] = []
        for _ in range(runs):
            variation = 1.0 + input_variation * (rng.random() - 0.5) * 2
            units = work_units * max(variation, 0.05)
            time_s = model.task_time(core_name, units, kernel) * self._noise(rng)
            energy_j = model.task_energy(core_name, units, kernel) * self._noise(rng)
            times.append(time_s)
            energies.append(energy_j)
        return TaskProfile(task=task_name, times_s=times, energies_j=energies,
                           wcet_margin=self.wcet_margin)

    # -- convenience: implementations for the coordination layer ------------------------
    def implementations_for(self, task_name: str, work_units: float,
                            kernel: Optional[str] = None,
                            cores: Optional[Sequence[str]] = None,
                            runs: int = 12,
                            security_level: Optional[float] = None
                            ) -> List[Implementation]:
        """Profile a task on every complex core (and operating point) given."""
        implementations: List[Implementation] = []
        core_names = list(cores) if cores is not None else [
            core.name for core in self.platform.complex_cores]
        for core_name in core_names:
            core = self.platform.core(core_name)
            if not isinstance(core, ComplexCore):
                continue
            for opp in core.operating_points:
                profile = self.profile_workload(
                    task_name, core_name, work_units, kernel=kernel, runs=runs,
                    opp=opp)
                implementations.append(Implementation(
                    core=core_name,
                    properties=profile.to_properties(security_level),
                    opp_label=opp.label,
                ))
        return implementations
