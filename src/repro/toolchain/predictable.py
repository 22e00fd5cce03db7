"""The TeamPlay workflow for predictable architectures (Figure 1).

Pipeline stages, mirroring the paper's figure:

1. the annotated C source and the CSL contract are parsed; the CSL layer
   extracts the code structure (tasks, POIs),
2. the multi-criteria optimising compiler explores its configuration space,
   calling the WCET analyser, the EnergyAnalyser and (optionally) the
   SecurityAnalyser for every candidate, and returns a Pareto front (the
   toolchain calls :class:`~repro.compiler.driver.MultiCriteriaCompiler`),
3. per-task ETS properties are derived for every core and operating point of
   the platform (the "ETS file"),
4. the coordination layer selects versions/placements/operating points and
   produces a static schedule plus the runtime glue code,
5. the contract system checks every budget and emits the certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.compiler.config import CompilerConfig
from repro.compiler.driver import MultiCriteriaCompiler
from repro.compiler.evaluate import Variant
# Unused here, kept importable: perfbench/tracing.py wraps this name.
from repro.compiler.fpa import pareto_front  # noqa: F401
from repro.contracts.checker import ContractChecker, TaskEvidence
from repro.contracts.certificate import Certificate
from repro.coordination.gluegen import generate_glue_code
from repro.coordination.schedulability import SchedulabilityReport, analyse_schedule
from repro.coordination.schedulers import (
    SCHEDULER_NAMES,
    Schedule,
    scheduler_by_name,
)
from repro.coordination.taskgraph import EtsProperties, Implementation, TaskGraph
from repro.csl.ast_nodes import ContractSpec
from repro.csl.extract import CodeStructure, build_task_graph, extract_structure
from repro.csl.parser import parse_csl
from repro.errors import TeamPlayError
from repro.frontend import ast_nodes as ast
from repro.hw.core import Core
from repro.hw.platform import Platform
from repro.security.analyzer import SecurityAnalyzer


@dataclass
class PredictableBuildResult:
    """Everything the Figure 1 workflow produces."""

    platform: str
    spec: ContractSpec
    structure: CodeStructure
    variant: Variant
    pareto_front: List[Variant]
    task_properties: Dict[str, Dict[str, float]]
    task_graph: TaskGraph
    schedule: Schedule
    schedulability: SchedulabilityReport
    glue_code: str
    certificate: Certificate
    security_reports: Dict[str, float] = field(default_factory=dict)

    @property
    def makespan_s(self) -> float:
        return self.schedule.makespan_s

    def energy_per_period_j(self, platform: Platform) -> float:
        window = self.spec.period_s() or self.spec.deadline_s()
        return self.schedule.total_energy_j(platform, window)


class PredictableToolchain:
    """Facade running the full predictable-architecture workflow."""

    def __init__(self, platform: Platform, core: Optional[Core] = None):
        if not platform.predictable_cores:
            raise TeamPlayError(
                f"platform {platform.name!r} has no predictable core; use the "
                f"complex-architecture workflow instead")
        self.platform = platform
        self.core = core or platform.predictable_cores[0]
        #: Stage 2 of Figure 1: the compiler owns the pipeline, the engines,
        #: their caches and the search for every build of this toolchain.
        self.compiler = MultiCriteriaCompiler(platform, core=self.core)

    def cache_stats(self) -> Dict[str, Dict[str, object]]:
        """The compiler's :meth:`~MultiCriteriaCompiler.cache_stats`."""
        return self.compiler.cache_stats()

    def pipeline_stats(self) -> Dict[str, Dict[str, object]]:
        """The compiler's :meth:`~MultiCriteriaCompiler.pipeline_stats`."""
        return self.compiler.pipeline_stats()

    # ------------------------------------------------------------------ build --
    def build(self, source: str, csl_text: str,
              compiler_config: Optional[CompilerConfig] = None,
              optimizer: str = "fpa",
              generations: int = 4,
              population_size: int = 8,
              scheduler: str = "energy-aware",
              dvfs: bool = True,
              glue_style: str = "posix",
              security_tasks: Sequence[str] = (),
              security_samples: int = 6,
              extra_implementations: Optional[
                  Dict[str, List[Implementation]]] = None,
              extended_search: bool = False,
              path_sensitive: bool = False,
              ) -> PredictableBuildResult:
        """Run the workflow end to end.

        ``compiler_config`` pins a single configuration (no search);
        ``scheduler`` selects the coordination strategy; ``dvfs`` controls
        whether lower operating points are offered to the scheduler;
        ``security_tasks`` lists tasks whose security level must be measured
        with the SecurityAnalyser; ``extra_implementations`` lets a use case
        add placement options outside the compiled code (e.g. an FPGA
        -offloaded version of a task); ``extended_search`` widens the
        search to the CSE/peephole/path-sensitive axes (default off, keeping
        fixed-seed searches bit-for-bit reproducible); ``path_sensitive``
        makes every WCET/WCEC analysis of the build exclude statically
        infeasible CFG paths (tighter bounds, same generated code — see
        :mod:`repro.wcet.paths`).
        """
        if scheduler not in SCHEDULER_NAMES:
            raise TeamPlayError(f"unknown scheduler {scheduler!r}")
        manager = self.compiler.pipeline.manager
        with manager.timed("csl-parse", stage="frontend"):
            spec = parse_csl(csl_text)
        module = self.compiler.pipeline.parse(source)

        # -- stage 2: multi-criteria compilation -----------------------------
        entries = self._task_entries(spec, module)
        if compiler_config is not None:
            if path_sensitive:
                compiler_config = compiler_config.with_(path_sensitive=True)
            selected = self.compiler.compile(module, entries, compiler_config)
            front = [selected]
        else:
            front = self.compiler.explore(
                module, entries, optimizer=optimizer,
                population_size=population_size, generations=generations,
                extended_space=extended_search,
                path_sensitive=path_sensitive).variants
            selected = min(front, key=lambda v: v.energy_j)

        # -- stage 1/3: structure extraction and ETS properties -----------------
        structure = extract_structure(spec, selected.program)
        security_reports = self._security_levels(selected, structure,
                                                 security_tasks,
                                                 security_samples)
        implementations = self._implementations(
            spec, structure, selected, dvfs, security_reports,
            extra_implementations or {})
        task_properties = self._task_properties(structure, selected,
                                                security_reports)

        # -- stage 4: coordination -----------------------------------------------
        task_graph = build_task_graph(spec, implementations)
        with manager.timed("schedule", stage="coordination"):
            schedule = scheduler_by_name(scheduler, self.platform).schedule(
                task_graph)
        schedulability = analyse_schedule(schedule, task_graph, self.platform)
        glue_code = generate_glue_code(schedule, task_graph, self.platform,
                                       style=glue_style)

        # -- stage 5: contracts ------------------------------------------------------
        evidence = self._evidence(schedule, security_reports)
        certificate = ContractChecker(self.platform).check(
            spec, evidence, schedule=schedule)

        return PredictableBuildResult(
            platform=self.platform.name,
            spec=spec,
            structure=structure,
            variant=selected,
            pareto_front=front,
            task_properties=task_properties,
            task_graph=task_graph,
            schedule=schedule,
            schedulability=schedulability,
            glue_code=glue_code,
            certificate=certificate,
            security_reports=security_reports,
        )

    # -------------------------------------------------------------- compilation --
    @staticmethod
    def _task_entries(spec: ContractSpec, module: ast.SourceModule) -> List[str]:
        """Every task's entry function, in contract order."""
        functions = set(module.function_names())
        entries: List[str] = []
        for name, contract in spec.tasks.items():
            entry = contract.entry_function
            if entry not in functions:
                # Fall back to a function annotated with task(<name>).
                candidates = [fn.name for fn in module.functions
                              if fn.pragmas.get("task") == name]
                if not candidates:
                    raise TeamPlayError(
                        f"task {name!r}: no entry function {entry!r} in source")
                entry = candidates[0]
            entries.append(entry)
        return entries

    # ------------------------------------------------------------ ETS properties --
    def _security_levels(self, variant: Variant, structure: CodeStructure,
                         security_tasks: Sequence[str],
                         samples: int) -> Dict[str, float]:
        levels: Dict[str, float] = {}
        if not security_tasks:
            return levels
        analyzer = SecurityAnalyzer(self.platform, core=self.core,
                                    samples_per_class=samples)
        for task in security_tasks:
            binding = structure.binding(task)
            if not binding.secret_params:
                continue
            report = analyzer.analyze_task(variant.program, binding.function,
                                           secret_classes=(3, 251))
            levels[task] = report.security_level
        return levels

    def _implementations(self, spec: ContractSpec, structure: CodeStructure,
                         variant: Variant, dvfs: bool,
                         security_reports: Dict[str, float],
                         extra: Dict[str, List[Implementation]]
                         ) -> Dict[str, List[Implementation]]:
        """Per-task implementations on every core (and OPP if DVFS enabled)."""
        implementations: Dict[str, List[Implementation]] = {}
        for task in spec.tasks:
            binding = structure.binding(task)
            options: List[Implementation] = []
            for core in self.platform.predictable_cores:
                opps = core.operating_points if dvfs else [core.nominal_opp]
                for opp in opps:
                    wcet = self.compiler.analysis.wcet(
                        variant.program, binding.function,
                        core=core, opp=opp,
                        path_sensitive=variant.config.path_sensitive)
                    wcec = self.compiler.analysis.wcec(
                        variant.program, binding.function,
                        core=core, opp=opp,
                        path_sensitive=variant.config.path_sensitive)
                    options.append(Implementation(
                        core=core.name,
                        properties=EtsProperties(
                            wcet_s=wcet.time_s,
                            energy_j=wcec.energy_j,
                            security_level=security_reports.get(task)),
                        opp_label=opp.label,
                    ))
            options.extend(extra.get(task, []))
            implementations[task] = options
        return implementations

    def _task_properties(self, structure: CodeStructure, variant: Variant,
                         security_reports: Dict[str, float]
                         ) -> Dict[str, Dict[str, float]]:
        """The ETS file: per-task properties at the nominal operating point."""
        properties: Dict[str, Dict[str, float]] = {}
        for task, binding in structure.bindings.items():
            wcet = self.compiler.analysis.wcet(
                variant.program, binding.function, core=self.core,
                path_sensitive=variant.config.path_sensitive)
            wcec = self.compiler.analysis.wcec(
                variant.program, binding.function, core=self.core,
                path_sensitive=variant.config.path_sensitive)
            properties[task] = {
                "function": binding.function,
                "wcet_cycles": wcet.cycles,
                "wcet_s": wcet.time_s,
                "energy_j": wcec.energy_j,
                "security": security_reports.get(task),
            }
        return properties

    # ------------------------------------------------------------------- contracts --
    @staticmethod
    def _evidence(schedule: Schedule,
                  security_reports: Dict[str, float]) -> Dict[str, TaskEvidence]:
        evidence: Dict[str, TaskEvidence] = {}
        for entry in schedule.entries:
            evidence[entry.task] = TaskEvidence(
                wcet_s=entry.implementation.wcet_s,
                energy_j=entry.implementation.energy_j,
                security_level=security_reports.get(entry.task),
            )
        return evidence
