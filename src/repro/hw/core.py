"""Processing element models.

Three kinds of processing elements appear in the TeamPlay use cases:

* predictable in-order cores (Cortex-M0, LEON3) whose per-instruction cycle
  and energy costs can be tabulated at the ISA level (:class:`Core`),
* complex cores and GPUs (Apalis TK1, Jetson TX2/Nano) that are characterised
  only coarsely by throughput and active/idle power (:class:`ComplexCore`),
* fixed-function accelerators such as the camera pill's FPGA image
  co-processor (:class:`Accelerator`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import PlatformError
from repro.hw.dvfs import OperatingPoint

#: Instruction classes understood by the timing/energy tables.  The IR lowering
#: assigns exactly one of these to every instruction.
INSTRUCTION_CLASSES = (
    "alu",      # add/sub/logic/compare/move
    "mul",      # multiply
    "div",      # divide / modulo
    "load",     # memory read
    "store",    # memory write
    "branch",   # conditional branch (cost given for the taken case)
    "jump",     # unconditional jump
    "call",     # function call
    "ret",      # function return
    "select",   # conditional move (constant-time select)
    "nop",
)


class CoreKind(enum.Enum):
    """Broad category of a processing element."""

    CPU = "cpu"
    GPU = "gpu"
    FPGA = "fpga"


def _validate_table(name: str, table: Dict[str, float]) -> None:
    missing = [cls for cls in INSTRUCTION_CLASSES if cls not in table]
    if missing:
        raise PlatformError(f"{name} table is missing classes: {missing}")
    negative = [cls for cls, value in table.items() if value < 0]
    if negative:
        raise PlatformError(f"{name} table has negative entries: {negative}")


@dataclass
class Core:
    """An ISA-level model of a predictable, in-order core.

    ``cycle_table`` gives the base cycle cost of each instruction class,
    excluding memory wait states (the platform's memory system adds those).
    ``energy_table`` gives the dynamic energy per instruction, in joules, at
    the nominal operating point.  ``inter_class_overhead_j`` is the extra
    switching energy paid whenever two consecutive instructions belong to
    different classes — the dominant second-order effect in the Cortex-M0
    model of Georgiou et al. that the paper's EnergyAnalyser relies on.
    :func:`repro.hw.price.price` prices one instruction from these tables.
    """

    name: str
    cycle_table: Dict[str, int]
    energy_table: Dict[str, float]
    nominal_opp: OperatingPoint
    operating_points: List[OperatingPoint] = field(default_factory=list)
    inter_class_overhead_j: float = 0.0
    static_power_w: float = 0.0
    branch_not_taken_cycles: int = 1
    kind: CoreKind = CoreKind.CPU
    predictable: bool = True

    def __post_init__(self):
        _validate_table(f"{self.name} cycle", self.cycle_table)
        _validate_table(f"{self.name} energy", self.energy_table)
        if not self.operating_points:
            self.operating_points = [self.nominal_opp]
        if self.nominal_opp not in self.operating_points:
            self.operating_points = list(self.operating_points) + [self.nominal_opp]
        self.operating_points = sorted(set(self.operating_points),
                                       key=lambda opp: opp.frequency_hz)
        if self.inter_class_overhead_j < 0 or self.static_power_w < 0:
            raise PlatformError(f"core {self.name!r} has negative power parameters")

    # -- timing and leakage -------------------------------------------------
    def time_for_cycles(self, cycles: float,
                        opp: Optional[OperatingPoint] = None) -> float:
        opp = opp or self.nominal_opp
        return float(cycles) / opp.frequency_hz

    def static_power(self, opp: Optional[OperatingPoint] = None) -> float:
        opp = opp or self.nominal_opp
        return self.static_power_w * opp.static_power_scale(self.nominal_opp)

    def static_energy(self, time_s: float,
                      opp: Optional[OperatingPoint] = None) -> float:
        return self.static_power(opp) * time_s

    def opp_by_frequency(self, frequency_hz: float) -> OperatingPoint:
        for opp in self.operating_points:
            if abs(opp.frequency_hz - frequency_hz) < 1e-6:
                return opp
        raise PlatformError(
            f"core {self.name!r} has no operating point at {frequency_hz} Hz")


@dataclass
class ComplexCore:
    """Coarse model of a complex core cluster or GPU.

    Following the component-based energy modelling of Seewald et al. (used by
    PowProfiler), a complex processing element is characterised by its
    sustained throughput in abstract *work units per second* and by active and
    idle power draws, each per operating point.
    """

    name: str
    kind: CoreKind
    nominal_opp: OperatingPoint
    throughput_units_per_s: float
    active_power_w: float
    idle_power_w: float
    operating_points: List[OperatingPoint] = field(default_factory=list)
    #: Per-kernel speed-up factors relative to the generic throughput
    #: (e.g. convolutions run disproportionally fast on a GPU).
    kernel_affinity: Dict[str, float] = field(default_factory=dict)
    predictable: bool = False

    def __post_init__(self):
        if self.throughput_units_per_s <= 0:
            raise PlatformError(f"core {self.name!r} needs positive throughput")
        if self.active_power_w < self.idle_power_w:
            raise PlatformError(
                f"core {self.name!r}: active power below idle power")
        if not self.operating_points:
            self.operating_points = [self.nominal_opp]
        if self.nominal_opp not in self.operating_points:
            self.operating_points = list(self.operating_points) + [self.nominal_opp]
        self.operating_points = sorted(set(self.operating_points),
                                       key=lambda opp: opp.frequency_hz)

    def _freq_scale(self, opp: Optional[OperatingPoint]) -> float:
        opp = opp or self.nominal_opp
        return opp.frequency_hz / self.nominal_opp.frequency_hz

    def execution_time(self, work_units: float, kernel: Optional[str] = None,
                       opp: Optional[OperatingPoint] = None) -> float:
        """Seconds needed to execute ``work_units`` of ``kernel``."""
        if work_units < 0:
            raise ValueError("work units must be non-negative")
        affinity = self.kernel_affinity.get(kernel, 1.0) if kernel else 1.0
        throughput = self.throughput_units_per_s * affinity * self._freq_scale(opp)
        return work_units / throughput

    def active_power(self, opp: Optional[OperatingPoint] = None) -> float:
        opp = opp or self.nominal_opp
        scale = self._freq_scale(opp) * opp.dynamic_scale(self.nominal_opp)
        dynamic = (self.active_power_w - self.idle_power_w) * scale
        return self.idle_power(opp) + dynamic

    def idle_power(self, opp: Optional[OperatingPoint] = None) -> float:
        opp = opp or self.nominal_opp
        return self.idle_power_w * opp.static_power_scale(self.nominal_opp)

    def execution_energy(self, work_units: float, kernel: Optional[str] = None,
                         opp: Optional[OperatingPoint] = None) -> float:
        return self.active_power(opp) * self.execution_time(work_units, kernel, opp)


@dataclass
class Accelerator:
    """A fixed-function co-processor with a per-kernel cost table.

    ``kernels`` maps a kernel name to ``(seconds, joules)`` per unit of work;
    ``offload_overhead_s`` / ``offload_overhead_j`` model the cost of handing
    data over (e.g. SPI transfer to the camera pill's FPGA).
    """

    name: str
    kernels: Dict[str, Tuple[float, float]]
    offload_overhead_s: float = 0.0
    offload_overhead_j: float = 0.0
    idle_power_w: float = 0.0
    kind: CoreKind = CoreKind.FPGA

    def supports(self, kernel: str) -> bool:
        return kernel in self.kernels

    def execution_time(self, kernel: str, work_units: float = 1.0) -> float:
        if kernel not in self.kernels:
            raise PlatformError(f"accelerator {self.name!r} lacks kernel {kernel!r}")
        return self.offload_overhead_s + self.kernels[kernel][0] * work_units

    def execution_energy(self, kernel: str, work_units: float = 1.0) -> float:
        if kernel not in self.kernels:
            raise PlatformError(f"accelerator {self.name!r} lacks kernel {kernel!r}")
        return self.offload_overhead_j + self.kernels[kernel][1] * work_units
