"""Task model of the coordination layer.

A :class:`Task` owns one or more :class:`TaskVersion`\\ s (alternative
algorithms or compiled variants of the same functionality); each version owns
one or more :class:`Implementation`\\ s (a concrete placement option: core,
optional operating point, and the ETS properties it would have there).  The
scheduler picks exactly one implementation per task.

A :class:`TaskGraph` adds precedence edges and the application-level period
and deadline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import SchedulingError
from repro.graph import topological_order


@dataclass(frozen=True)
class EtsProperties:
    """Energy, time and security of one task implementation."""

    wcet_s: float
    energy_j: float
    security_level: Optional[float] = None

    def __post_init__(self):
        if self.wcet_s < 0 or self.energy_j < 0:
            raise SchedulingError("ETS properties must be non-negative")
        if self.security_level is not None and not 0 <= self.security_level <= 1:
            raise SchedulingError("security level must be within [0, 1]")


@dataclass(frozen=True)
class Implementation:
    """A placement option: run this version on ``core`` (at ``opp_label``)."""

    core: str
    properties: EtsProperties
    opp_label: Optional[str] = None

    @property
    def wcet_s(self) -> float:
        return self.properties.wcet_s

    @property
    def energy_j(self) -> float:
        return self.properties.energy_j

    @property
    def security_level(self) -> Optional[float]:
        return self.properties.security_level

    def describe(self) -> str:
        suffix = f"@{self.opp_label}" if self.opp_label else ""
        return f"{self.core}{suffix}"


@dataclass
class TaskVersion:
    """One version of a task with its per-placement ETS properties."""

    name: str
    implementations: List[Implementation] = field(default_factory=list)

    def add(self, implementation: Implementation) -> "TaskVersion":
        self.implementations.append(implementation)
        return self


@dataclass
class Task:
    """A schedulable unit of the application."""

    name: str
    versions: List[TaskVersion] = field(default_factory=list)
    deadline_s: Optional[float] = None
    period_s: Optional[float] = None
    release_s: float = 0.0
    #: Minimum acceptable security level (from the CSL contract), if any.
    security_requirement: Optional[float] = None

    def __post_init__(self):
        if not self.versions:
            self.versions = []

    def candidates(self) -> List[Tuple[TaskVersion, Implementation]]:
        """Every (version, implementation) pair the scheduler may pick."""
        pairs = []
        for version in self.versions:
            for implementation in version.implementations:
                pairs.append((version, implementation))
        return pairs

    def candidates_on(self, core: str) -> List[Tuple[TaskVersion, Implementation]]:
        return [(v, i) for v, i in self.candidates() if i.core == core]

    def mean_wcet(self) -> float:
        """Average WCET over all implementations (used for priorities)."""
        wcets = [impl.wcet_s for _version, impl in self.candidates()]
        if not wcets:
            raise SchedulingError(f"task {self.name!r} has no implementations")
        return sum(wcets) / len(wcets)

    @staticmethod
    def single_version(name: str, implementations: Iterable[Implementation],
                       **kwargs) -> "Task":
        """Convenience constructor for tasks with a single version."""
        return Task(name=name,
                    versions=[TaskVersion("default", list(implementations))],
                    **kwargs)


@dataclass
class TaskGraph:
    """A DAG of tasks with an application-level period and deadline."""

    name: str
    tasks: Dict[str, Task] = field(default_factory=dict)
    edges: List[Tuple[str, str]] = field(default_factory=list)
    deadline_s: Optional[float] = None
    period_s: Optional[float] = None

    # -- construction -------------------------------------------------------
    def add_task(self, task: Task) -> Task:
        if task.name in self.tasks:
            raise SchedulingError(f"duplicate task {task.name!r}")
        self.tasks[task.name] = task
        return task

    def add_edge(self, source: str, destination: str) -> None:
        for name in (source, destination):
            if name not in self.tasks:
                raise SchedulingError(f"edge references unknown task {name!r}")
        if (source, destination) not in self.edges:
            self.edges.append((source, destination))

    # -- structure ----------------------------------------------------------
    def validate(self) -> None:
        if len(self.topological_order()) < len(self.tasks):
            raise SchedulingError(
                f"task graph {self.name!r} contains a dependency cycle")
        for task in self.tasks.values():
            if not task.candidates():
                raise SchedulingError(
                    f"task {task.name!r} has no implementation to schedule")

    def topological_order(self) -> List[str]:
        """Kahn order (see :func:`repro.graph.topological_order`); the
        list scheduler breaks ties by it.  Shorter than :attr:`tasks` when
        the edges form a cycle."""
        return topological_order(self.tasks, self.successors)

    def predecessors(self, task: str) -> List[str]:
        return [src for src, dst in self.edges if dst == task]

    def successors(self, task: str) -> List[str]:
        return [dst for src, dst in self.edges if src == task]

    def sources(self) -> List[str]:
        return [name for name in self.tasks if not self.predecessors(name)]

    def sinks(self) -> List[str]:
        return [name for name in self.tasks if not self.successors(name)]

    # -- priorities -------------------------------------------------------------
    def upward_ranks(self) -> Dict[str, float]:
        """HEFT-style upward ranks based on mean WCETs (no communication cost)."""
        self.validate()
        ranks: Dict[str, float] = {}
        for name in reversed(self.topological_order()):
            task = self.tasks[name]
            successor_rank = max((ranks[s] for s in self.successors(name)),
                                 default=0.0)
            ranks[name] = task.mean_wcet() + successor_rank
        return ranks

    def effective_deadline(self, task: str) -> Optional[float]:
        """The task's own deadline, or the application deadline."""
        own = self.tasks[task].deadline_s
        return own if own is not None else self.deadline_s
