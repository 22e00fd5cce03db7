"""The TeamPlay workflow for predictable architectures (Figure 1).

Pipeline stages, mirroring the paper's figure:

1. the annotated C source and the CSL contract are parsed; the CSL layer
   extracts the code structure (tasks, POIs),
2. the multi-criteria optimising compiler explores its configuration space,
   calling the WCET analyser, the EnergyAnalyser and (optionally) the
   SecurityAnalyser for every candidate, and returns a Pareto front,
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
from repro.compiler.engine import (
    AnalysisCache,
    BatchEvaluator,
    EvaluationEngine,
    LoweringCache,
    process_analysis_cache,
)
from repro.compiler.evaluate import Variant
from repro.compiler.fpa import FlowerPollinationOptimizer, pareto_front
from repro.compiler.nsga2 import Nsga2Optimizer
from repro.compiler.pipeline import CompilationPipeline
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
        #: One compilation pipeline per toolchain: frontend/CSL parsing and
        #: every engine build run through its registered pass list, so the
        #: whole workflow's per-pass timings land in :meth:`pipeline_stats`.
        self.pipeline = CompilationPipeline(platform)
        # Shared evaluation caches: builds on the same toolchain instance
        # (e.g. a baseline/TeamPlay comparison over one source) reuse parsed
        # modules, lowered IR and per-function analysis tables.  When the
        # process-wide cache is enabled (opt-in), analysis tables are
        # additionally shared with every other toolchain/driver targeting
        # this platform.
        shared_analysis = process_analysis_cache(platform)
        self._analysis = (shared_analysis if shared_analysis is not None
                          else AnalysisCache(platform))
        self._analysis_shared = shared_analysis is not None
        self._lowerings: Dict[int, LoweringCache] = {}
        self._engines: Dict[tuple, EvaluationEngine] = {}

    # ------------------------------------------------------------------ caches --
    def _parse_source(self, source: str) -> ast.SourceModule:
        return self.pipeline.parse(source)

    def _engine(self, module: ast.SourceModule,
                entries: Dict[str, str]) -> EvaluationEngine:
        """The shared aggregate evaluation engine for (module, task entries)."""
        key = (id(module), tuple(entries.items()))
        engine = self._engines.get(key)
        if engine is None:
            lowering = self._lowerings.setdefault(
                id(module), LoweringCache(manager=self.pipeline.manager))
            engine = EvaluationEngine(
                module, self.platform, list(entries.values()),
                core=self.core,
                analysis_cache=self._analysis,
                lowering_cache=lowering,
                pipeline=self.pipeline,
                aggregate=True,
            )
            self._engines[key] = engine
        return engine

    def cache_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-stage evaluation-cache counters of this toolchain's builds.

        ``variant``/``ir_stage`` counters are summed across the per-(module,
        entries) engines, ``lowering`` across the per-module lowering caches;
        ``analysis`` are the counters of the analysis cache the toolchain
        uses — cumulative process-wide numbers when the opt-in shared cache
        is enabled (``analysis["shared"]`` says which).
        """

        def summed(caches) -> Dict[str, int]:
            totals = {"entries": 0, "hits": 0, "misses": 0, "evictions": 0}
            for cache in caches:
                stats = cache.stats()
                for field_name in totals:
                    totals[field_name] += stats[field_name]
            return totals

        analysis = dict(self._analysis.stats())
        analysis["shared"] = self._analysis_shared
        return {
            "variant": summed(engine.variants for engine in
                              self._engines.values()),
            "lowering": summed(self._lowerings.values()),
            "ir_stage": summed(engine.ir_stage for engine in
                               self._engines.values()),
            "analysis": analysis,
        }

    def pipeline_stats(self) -> Dict[str, Dict[str, object]]:
        """Per-pass wall-time/invocation counters of this toolchain's builds
        (parse and CSL extraction included; see ``PassManager.stats``).

        When path-sensitive analyses ran, a synthetic ``path-feasibility``
        row reports the pruning counters (units analysed as invocations,
        enumeration wall time, paths enumerated/pruned and cap/irregular
        fallbacks) alongside the regular pass timings, so ``--profile`` and
        the service ``GET /stats`` expose how much pruning actually did.
        """
        stats = self.pipeline.stats()
        totals = self._analysis.path_stats()["totals"]
        if totals.get("units"):
            stats = dict(stats)
            stats["path-feasibility"] = {
                "stage": "analysis",
                "invocations": totals["units"],
                "wall_s": totals["wall_s"],
                "paths_enumerated": totals["paths_enumerated"],
                "paths_pruned": totals["paths_pruned"],
                "path_cap_fallbacks": totals["cap_fallbacks"],
                "path_irregular_fallbacks": totals["irregular_fallbacks"],
            }
        return stats

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
        configuration search to the CSE/peephole axes (default off, keeping
        fixed-seed searches bit-for-bit reproducible); ``path_sensitive``
        makes every WCET/WCEC analysis of the build exclude statically
        infeasible CFG paths (tighter bounds, same generated code — see
        :mod:`repro.wcet.paths`).
        """
        if scheduler not in SCHEDULER_NAMES:
            raise TeamPlayError(f"unknown scheduler {scheduler!r}")
        with self.pipeline.manager.timed("csl-parse", stage="frontend"):
            spec = parse_csl(csl_text)
        module = self._parse_source(source)

        # -- stage 2: multi-criteria compilation -----------------------------
        entries = self._task_entries(spec, module)
        engine = self._engine(module, entries)
        if compiler_config is not None:
            if path_sensitive:
                compiler_config = compiler_config.with_(path_sensitive=True)
            selected = engine.evaluate(compiler_config)
            front = [selected]
        else:
            front = self._explore(engine, optimizer, generations,
                                  population_size, extended_search,
                                  path_sensitive)
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
        with self.pipeline.manager.timed("schedule", stage="coordination"):
            schedule = self._schedule(task_graph, scheduler)
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
    def _task_entries(spec: ContractSpec, module: ast.SourceModule) -> Dict[str, str]:
        """task name -> entry function name."""
        functions = set(module.function_names())
        entries: Dict[str, str] = {}
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
            entries[name] = entry
        return entries

    def _explore(self, engine: EvaluationEngine, optimizer: str,
                 generations: int, population_size: int,
                 extended_search: bool = False,
                 path_sensitive: bool = False) -> List[Variant]:
        """Search the configuration space over the shared evaluation engine."""
        # Path sensitivity is an analysis mode, not a code-generation axis:
        # rather than widening the gene space the evaluator pins the flag on
        # every candidate before evaluation (and on the seeds, so cached
        # variants line up).
        transform = ((lambda config: config.with_(path_sensitive=True))
                     if path_sensitive else None)
        evaluator = BatchEvaluator(engine, config_transform=transform)
        seeds = [CompilerConfig.baseline(), CompilerConfig.performance()]
        if transform is not None:
            seeds = [transform(seed) for seed in seeds]
        if optimizer == "fpa":
            search = FlowerPollinationOptimizer(
                evaluator, population_size=population_size,
                generations=generations, extended_space=extended_search)
        elif optimizer == "nsga2":
            search = Nsga2Optimizer(evaluator, population_size=population_size,
                                    generations=generations,
                                    extended_space=extended_search)
        else:
            raise TeamPlayError(f"unknown optimizer {optimizer!r}")
        return pareto_front(search.optimize(initial_configs=seeds))

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
                    wcet = self._analysis.wcet(
                        variant.program, binding.function,
                        core=core, opp=opp,
                        path_sensitive=variant.config.path_sensitive)
                    wcec = self._analysis.wcec(
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
            wcet = self._analysis.wcet(
                variant.program, binding.function, core=self.core,
                path_sensitive=variant.config.path_sensitive)
            wcec = self._analysis.wcec(
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

    # ------------------------------------------------------------------ scheduling --
    def _schedule(self, graph: TaskGraph, scheduler: str) -> Schedule:
        return scheduler_by_name(scheduler, self.platform).schedule(graph)

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
