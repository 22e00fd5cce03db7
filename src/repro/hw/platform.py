"""Board-level platform description.

A :class:`Platform` groups the processing elements, memory system and
(optionally) battery of one of the boards targeted by the TeamPlay use cases.
The toolchain selects between the predictable and complex workflows based on
:attr:`Platform.predictable`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.errors import PlatformError
from repro.hw.battery import Battery
from repro.hw.core import Accelerator, ComplexCore, Core
from repro.hw.memory import MemorySystem

ProcessingElement = Union[Core, ComplexCore, Accelerator]


@dataclass
class Platform:
    """A target board: processing elements + memory + optional battery."""

    name: str
    cores: List[ProcessingElement]
    memory: MemorySystem = field(default_factory=MemorySystem)
    battery: Optional[Battery] = None
    description: str = ""

    def __post_init__(self):
        if not self.cores:
            raise PlatformError(f"platform {self.name!r} needs at least one core")
        names = [core.name for core in self.cores]
        if len(set(names)) != len(names):
            raise PlatformError(f"platform {self.name!r} has duplicate core names")

    # -- lookup ---------------------------------------------------------------
    def core(self, name: str) -> ProcessingElement:
        for core in self.cores:
            if core.name == name:
                return core
        raise PlatformError(f"platform {self.name!r} has no core named {name!r}")

    @property
    def core_names(self) -> List[str]:
        return [core.name for core in self.cores]

    @property
    def predictable_cores(self) -> List[Core]:
        return [core for core in self.cores if isinstance(core, Core)]

    @property
    def complex_cores(self) -> List[ComplexCore]:
        return [core for core in self.cores if isinstance(core, ComplexCore)]

    @property
    def accelerators(self) -> List[Accelerator]:
        return [core for core in self.cores if isinstance(core, Accelerator)]

    @property
    def schedulable_cores(self) -> List[ProcessingElement]:
        """Cores the coordination layer can map tasks onto (not accelerators)."""
        return [core for core in self.cores if not isinstance(core, Accelerator)]

    @property
    def predictable(self) -> bool:
        """True when *all* schedulable cores admit static timing analysis."""
        schedulable = self.schedulable_cores
        return bool(schedulable) and all(isinstance(core, Core) for core in schedulable)

    # -- power ----------------------------------------------------------------
    def idle_power_w(self) -> float:
        """Board idle power: leakage of every core plus accelerator idle draw."""
        total = 0.0
        for core in self.cores:
            if isinstance(core, Core):
                total += core.static_power()
            elif isinstance(core, ComplexCore):
                total += core.idle_power()
            else:
                total += core.idle_power_w
        return total

    def summary(self) -> Dict[str, object]:
        """A plain-data description used in reports and glue-code headers."""
        return {
            "name": self.name,
            "predictable": self.predictable,
            "cores": [
                {
                    "name": core.name,
                    "kind": getattr(core, "kind").value
                    if hasattr(core, "kind") else "cpu",
                    "model": type(core).__name__,
                }
                for core in self.cores
            ],
            "has_battery": self.battery is not None,
            "scratchpad_bytes": self.memory.scratchpad_size(),
        }
