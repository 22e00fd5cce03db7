"""Declarative scenario specifications.

A :class:`ScenarioSpec` captures everything the shared pipeline needs to
regenerate one baseline-vs-TeamPlay experiment: the annotated source (or
workload description), the CSL contract, the target platform, and one
:class:`BuildOptions` per side.  The :class:`~repro.scenarios.runner.
ScenarioRunner` interprets the spec; the spec itself holds no logic beyond
light resolution helpers, so adding a workload is pure data.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.compiler.config import CompilerConfig
from repro.coordination.schedulers import SCHEDULER_NAMES, Schedule
from repro.coordination.taskgraph import Implementation
from repro.csl.ast_nodes import ContractSpec
from repro.errors import TeamPlayError
from repro.hw.platform import Platform
from repro.hw.presets import platform_by_name
from repro.toolchain.complexflow import WorkloadTask
from repro.toolchain.report import ImprovementReport

#: The workflow flavours a scenario can run through: the two paper pipelines
#: (Figures 1 and 2) plus ``custom`` for experiments that are not
#: baseline-vs-TeamPlay builds (e.g. the E4 battery-aware mission or the E5
#: kernel-variant table) — a ``custom_run`` callable replaces the whole
#: pipeline and its output becomes ``result.detail``.
KINDS = ("predictable", "complex", "custom")

#: Energy-accounting models for a side's per-period energy:
#: ``task`` sums the schedule's task energy (optionally plus idle energy
#: scaled by the side's idle factor), ``software-power`` uses the complex
#: workflow's average software power times the period, and ``total`` charges
#: the full platform (task + idle) energy over the period.
ENERGY_MODELS = ("task", "software-power", "total")


class ScenarioSpecError(TeamPlayError):
    """Raised for malformed scenario specifications."""


@dataclass(frozen=True)
class BuildOptions:
    """How to build one side (baseline or TeamPlay) of a scenario.

    For the predictable workflow ``config`` pins a single compiler
    configuration; ``None`` searches the configuration space with
    ``optimizer`` over ``generations`` x ``population_size``.  The complex
    workflow ignores the compiler knobs and reads ``allow_gpu`` /
    ``power_down_unused`` instead.  ``custom`` replaces the whole build with
    a callable producing a :class:`Schedule` from the run context (used by
    the E6 hand-optimised mapping).
    """

    config: Optional[CompilerConfig] = None
    optimizer: str = "fpa"
    generations: int = 3
    population_size: int = 6
    #: Widen the search to the CSE, peephole and path-sensitive axes (10
    #: genes instead of 7).  Off by default so registered scenarios keep
    #: their bit-for-bit reproducible fixed-seed searches.
    extended_search: bool = False
    #: Run every WCET/WCEC analysis of this side path-sensitively (infeasible
    #: CFG paths excluded from the maximisation; see ``repro.wcet.paths``).
    #: Changes no generated code, only how tightly the worst case is bounded.
    path_sensitive: bool = False
    scheduler: str = "sequential"
    dvfs: bool = False
    glue_style: str = "posix"
    security_tasks: Sequence[str] = ()
    security_samples: int = 6
    extra_implementations: Optional[
        Callable[[Platform], Dict[str, List[Implementation]]]] = None
    allow_gpu: bool = True
    power_down_unused: bool = False
    custom: Optional[Callable[["RunContext"], Schedule]] = None

    @property
    def searches(self) -> bool:
        """Whether this side explores the configuration space."""
        return self.config is None and self.custom is None

    def with_(self, **changes) -> "BuildOptions":
        """A copy of these options with some fields replaced."""
        return replace(self, **changes)


@dataclass
class ScenarioSpec:
    """A declarative description of one baseline-vs-TeamPlay experiment."""

    name: str
    title: str
    kind: str
    platform: Union[str, Callable[[], Platform]]
    #: CSL contract text.  Required for the build pipelines; ``custom``
    #: scenarios may leave it empty (their run context then has no contract).
    csl: str = ""
    source: Optional[str] = None
    workload: Optional[Callable[[], Sequence[WorkloadTask]]] = None
    #: ``custom`` kind only: replaces the whole pipeline.  Receives the
    #: resolved :class:`RunContext` and returns the experiment's result
    #: object, stored as ``result.detail``.
    custom_run: Optional[Callable[["RunContext"], Any]] = None
    #: Optional JSON-ready summary of ``result.detail`` (used by
    #: :meth:`ScenarioResult.summary` when there is no improvement report).
    summarize: Optional[Callable[[Any], Dict[str, object]]] = None
    baseline: BuildOptions = field(default_factory=BuildOptions)
    teamplay: BuildOptions = field(default_factory=BuildOptions)
    description: str = ""
    #: Complex-workflow profiling settings (Figure 2's instrumented runs).
    profiling_runs: int = 8
    profiler_noise_std: float = 0.05
    profiler_seed: int = 5
    #: Energy accounting (see :data:`ENERGY_MODELS`).
    energy_model: str = "task"
    baseline_idle_factor: Optional[float] = None
    teamplay_idle_factor: Optional[float] = None
    #: Per-period energy charged identically to both sides (e.g. the radio
    #: or SpaceWire link carrying the same payload either way).
    shared_overhead_energy_j: Optional[
        Callable[[Platform, ContractSpec], float]] = None
    #: Name printed on the improvement report (defaults to ``title``).
    report_name: Optional[str] = None
    #: Paper-specific finishing touch: receives the generic
    #: :class:`ScenarioResult`, may refine ``result.report`` (e.g. dynamic
    #: validation) and returns the use case's comparison object, stored as
    #: ``result.detail``.
    postprocess: Optional[Callable[["ScenarioResult"], Any]] = None
    tags: Tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ScenarioSpecError(
                f"scenario {self.name!r}: unknown kind {self.kind!r}; "
                f"expected one of {KINDS}")
        if self.energy_model not in ENERGY_MODELS:
            raise ScenarioSpecError(
                f"scenario {self.name!r}: unknown energy model "
                f"{self.energy_model!r}; expected one of {ENERGY_MODELS}")
        if self.kind == "custom":
            if self.custom_run is None:
                raise ScenarioSpecError(
                    f"scenario {self.name!r}: custom scenarios need a "
                    f"``custom_run`` callable")
            return
        if self.custom_run is not None:
            raise ScenarioSpecError(
                f"scenario {self.name!r}: ``custom_run`` is only valid for "
                f"kind 'custom'")
        if not self.csl:
            raise ScenarioSpecError(
                f"scenario {self.name!r}: {self.kind} scenarios need a CSL "
                f"contract")
        if self.kind == "predictable" and self.source is None:
            raise ScenarioSpecError(
                f"scenario {self.name!r}: predictable scenarios need a "
                f"TeamPlay-C ``source``")
        if self.kind == "complex" and self.workload is None \
                and (self.baseline.custom is None
                     or self.teamplay.custom is None):
            raise ScenarioSpecError(
                f"scenario {self.name!r}: complex scenarios need a "
                f"``workload`` factory (unless both sides use custom "
                f"builders)")
        for side, options in (("baseline", self.baseline),
                              ("teamplay", self.teamplay)):
            if options.custom is None \
                    and options.scheduler not in SCHEDULER_NAMES:
                raise ScenarioSpecError(
                    f"scenario {self.name!r}: {side} names unknown scheduler "
                    f"{options.scheduler!r}; expected one of "
                    f"{SCHEDULER_NAMES}")

    def make_platform(self) -> Platform:
        """Instantiate the scenario's target platform."""
        if callable(self.platform):
            return self.platform()
        return platform_by_name(self.platform)

    @property
    def platform_name(self) -> str:
        if callable(self.platform):
            return getattr(self.platform, "__name__", "<factory>")
        return self.platform

    def with_(self, **changes) -> "ScenarioSpec":
        """A copy of this spec with some fields replaced (tiny variants)."""
        return replace(self, **changes)


@dataclass
class RunContext:
    """Resolved inputs of one scenario run, handed to custom builders."""

    spec: ScenarioSpec
    platform: Platform
    #: ``None`` for custom scenarios without a CSL contract.
    contract: Optional[ContractSpec]
    tasks: Optional[List[WorkloadTask]] = None
    generations: Optional[int] = None
    population_size: Optional[int] = None
    profiling_runs: int = 8
    #: Set by a custom run that builds through its own compiler driver
    #: (its ``pipeline_stats()``), so ``--profile`` accounts for its builds.
    pipeline_stats: Optional[Dict[str, Dict[str, object]]] = None

    @property
    def window_s(self) -> Optional[float]:
        """The accounting window: the period, or the deadline without one."""
        if self.contract is None:
            return None
        return self.contract.period_s() or self.contract.deadline_s()


@dataclass
class SideOutcome:
    """One side of a scenario comparison, in report-ready units."""

    build: Any
    schedule: Schedule
    time_s: float
    #: Per-period energy before the shared overhead is added.
    core_energy_j: float
    #: Per-period energy including the shared overhead (what the report uses).
    energy_j: float
    feasible: bool


@dataclass
class ScenarioResult:
    """Everything one scenario run produces.

    ``custom`` scenarios have no baseline/TeamPlay comparison: their
    ``baseline``/``teamplay``/``report`` stay ``None`` and the experiment's
    output lives in ``detail``.
    """

    spec: ScenarioSpec
    platform: Platform
    contract: Optional[ContractSpec] = None
    baseline: Optional[SideOutcome] = None
    teamplay: Optional[SideOutcome] = None
    report: Optional[ImprovementReport] = None
    #: The per-period energy charged identically to both sides.
    overhead_energy_j: float = 0.0
    #: Output of the spec's ``postprocess`` hook (the paper-specific
    #: comparison object) — or, for custom scenarios, of ``custom_run``.
    detail: Any = None
    #: Per-stage evaluation-cache counters of the run's toolchain
    #: (predictable workflow only; see ``PredictableToolchain.cache_stats``).
    cache_stats: Optional[Dict[str, Dict[str, int]]] = None
    #: Per-pass wall-time/invocation counters of the run's compilation
    #: pipeline (both build workflows; see ``PassManager.stats``).
    pipeline_stats: Optional[Dict[str, Dict[str, object]]] = None

    def summary(self) -> Dict[str, object]:
        """JSON-ready summary of the run (the CLI's output row)."""
        row: Dict[str, object] = {
            "name": self.spec.name,
            "title": self.spec.title,
            "kind": self.spec.kind,
            "platform": self.platform.name,
        }
        if self.report is not None:
            row.update({
                "baseline_time_s": self.report.baseline_time_s,
                "teamplay_time_s": self.report.teamplay_time_s,
                "baseline_energy_j": self.report.baseline_energy_j,
                "teamplay_energy_j": self.report.teamplay_energy_j,
                "performance_improvement_pct":
                    self.report.performance_improvement_pct,
                "energy_improvement_pct":
                    self.report.energy_improvement_pct,
                "deadline_s": self.report.deadline_s,
                "deadlines_met": self.report.deadlines_met,
            })
        elif self.spec.summarize is not None:
            row["detail"] = self.spec.summarize(self.detail)
        if self.cache_stats is not None:
            row["cache_stats"] = self.cache_stats
        if self.pipeline_stats is not None:
            row["pipeline_stats"] = self.pipeline_stats
        return row
