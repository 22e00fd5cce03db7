"""AST of the Contract Specification Language."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import CSLError
from repro.units import Quantity


@dataclass
class PlacementHint:
    """An allowed placement of a task version (``version fast on gpu;``)."""

    version: str
    cores: List[str] = field(default_factory=list)


@dataclass
class TaskContract:
    """Contractual requirements of one task."""

    name: str
    implements: Optional[str] = None
    period: Optional[Quantity] = None
    deadline: Optional[Quantity] = None
    time_budget: Optional[Quantity] = None
    energy_budget: Optional[Quantity] = None
    security_level: Optional[float] = None
    placements: List[PlacementHint] = field(default_factory=list)

    @property
    def entry_function(self) -> str:
        """The C function implementing this task (defaults to the task name)."""
        return self.implements or self.name

    def validate(self) -> None:
        if self.security_level is not None and not 0 <= self.security_level <= 1:
            raise CSLError(
                f"task {self.name!r}: security level must be in [0, 1]")
        for quantity, label in ((self.period, "period"),
                                (self.deadline, "deadline"),
                                (self.time_budget, "time budget")):
            if quantity is not None and quantity.dimension != "time":
                raise CSLError(f"task {self.name!r}: {label} must be a time")
        if self.energy_budget is not None and self.energy_budget.dimension != "energy":
            raise CSLError(f"task {self.name!r}: energy budget must be an energy")


@dataclass
class ContractSpec:
    """A full CSL contract: system-level budgets, tasks and the task graph."""

    system: str
    tasks: Dict[str, TaskContract] = field(default_factory=dict)
    edges: List[Tuple[str, str]] = field(default_factory=list)
    period: Optional[Quantity] = None
    deadline: Optional[Quantity] = None
    energy_budget: Optional[Quantity] = None
    time_budget: Optional[Quantity] = None
    security_level: Optional[float] = None

    def task(self, name: str) -> TaskContract:
        try:
            return self.tasks[name]
        except KeyError:
            raise CSLError(f"contract has no task {name!r}") from None

    def validate(self) -> None:
        if not self.tasks:
            raise CSLError(f"system {self.system!r} declares no tasks")
        for task in self.tasks.values():
            task.validate()
        for source, destination in self.edges:
            for name in (source, destination):
                if name not in self.tasks:
                    raise CSLError(
                        f"graph edge references unknown task {name!r}")
        if self.deadline is None and self.period is not None:
            # A purely periodic system is implicitly constrained by its period.
            self.deadline = self.period

    def deadline_s(self) -> Optional[float]:
        return self.deadline.value if self.deadline is not None else None

    def period_s(self) -> Optional[float]:
        return self.period.value if self.period is not None else None
