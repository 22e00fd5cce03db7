"""The multi-criteria compiler driver (the WCC facade).

Ties together the frontend, the optimisation passes, the static analysers and
the multi-objective search:

* :meth:`MultiCriteriaCompiler.compile` — one configuration, one variant,
* :meth:`MultiCriteriaCompiler.explore` — search the configuration space and
  return the Pareto front of variants,
* :meth:`MultiCriteriaCompiler.task_properties` — the per-task ETS properties
  file handed to the coordination layer and the contract system (the "ETS"
  arrow in Figure 1 of the paper).

All variant evaluation flows through one
:class:`~repro.compiler.engine.EvaluationEngine` per (module, entries,
security-context): repeated ``compile`` calls, search runs and the
exhaustive grid share the engine's variant/lowering/analysis caches, so
revisited configurations and sub-structure are never re-analysed.  A
sequence of entries selects the aggregate ``"<all tasks>"`` engine.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.compiler.config import CompilerConfig
from repro.compiler.engine import (
    AnalysisCache,
    BatchEvaluator,
    EvaluationEngine,
    BuildCache,
    process_analysis_cache,
)
from repro.compiler.engine.vectorized import pareto_front
from repro.compiler.evaluate import SecurityEvaluator, Variant
from repro.compiler.fpa import FlowerPollinationOptimizer
from repro.compiler.nsga2 import Nsga2Optimizer
from repro.compiler.pipeline import CompilationPipeline
from repro.counters import sum_counters
from repro.errors import CompilationError
from repro.frontend import ast_nodes as ast
from repro.hw.core import Core
from repro.hw.dvfs import OperatingPoint
from repro.hw.platform import Platform
from repro.security.analyzer import SecurityAnalyzer

#: One entry function, or a sequence of them for the aggregate engine.
Entries = Union[str, Sequence[str]]

#: The population searches :meth:`MultiCriteriaCompiler.explore` dispatches to.
_SEARCHES = {"fpa": FlowerPollinationOptimizer, "nsga2": Nsga2Optimizer}


@dataclass
class ParetoFront:
    """The set of non-dominated compiled variants found by a search."""

    variants: List[Variant] = field(default_factory=list)
    evaluations: int = 0
    optimizer: str = ""

    def __len__(self) -> int:
        return len(self.variants)

    def __iter__(self):
        return iter(self.variants)

    def best_by_time(self) -> Variant:
        return min(self.variants, key=lambda v: v.wcet_time_s)

    def best_by_energy(self) -> Variant:
        return min(self.variants, key=lambda v: v.energy_j)


class MultiCriteriaCompiler:
    """WCC-like compiler facade for a predictable platform."""

    def __init__(self, platform: Platform, core: Optional[Core] = None,
                 security_samples: int = 8):
        self.platform = platform
        self.core = core or next(iter(platform.predictable_cores), None)
        if self.core is None:
            raise CompilationError(
                f"platform {platform.name!r} has no predictable core; the "
                f"multi-criteria compiler targets predictable architectures")
        self.security_samples = security_samples
        #: One compilation pipeline per driver: every engine the driver
        #: creates compiles through this registered pass list, so per-pass
        #: wall-time/invocation counters aggregate across engines and are
        #: reported by :meth:`pipeline_stats`.
        self.pipeline = CompilationPipeline(platform)
        # Shared caches: the analysis cache is platform-wide, build
        # caches are per source module, the engines (and their variant
        # caches) per (module, entries, security context).  Parsing is cached
        # process-wide (through the pipeline's timed parse pass), and the
        # analysis cache is the platform's process-wide one inside a
        # ``shared_analysis_caches`` scope.
        shared_analysis = process_analysis_cache(platform)
        self.analysis = (shared_analysis if shared_analysis is not None
                         else AnalysisCache(platform))
        self._analysis_shared = shared_analysis is not None
        # Path work this thread already did on the (possibly shared) cache:
        # ``pipeline_stats`` reports only what the builds add on top.
        self._path_baseline = self.analysis.thread_path_totals()
        self._builds: Dict[int, BuildCache] = {}
        self._engines: Dict[Tuple, EvaluationEngine] = {}

    @property
    def opp(self) -> OperatingPoint:
        """The point variants are ranked at (others: :meth:`task_properties`)."""
        return self.core.nominal_opp

    # -- helpers -----------------------------------------------------------------
    def _as_module(self, source: Union[str, ast.SourceModule]
                   ) -> ast.SourceModule:
        if isinstance(source, ast.SourceModule):
            return source
        return self.pipeline.parse(source)

    def pipeline_stats(self) -> Dict[str, Dict[str, object]]:
        """Per-pass wall-time/invocation counters of this driver's builds
        (see ``PassManager.stats``).

        A synthetic ``path-feasibility`` row reports the pruning work these
        builds did (units enumerated as invocations, wall time, paths
        enumerated/pruned, cap/irregular fallbacks, and the units the unit
        memo answered as ``unit_hits``): what the analysis cache computed on
        this thread since the driver was built.  Shared-cache table hits
        charge nothing; no work, no row.
        """
        stats = self.pipeline.stats()
        done = {key: value - self._path_baseline[key] for key, value
                in self.analysis.thread_path_totals().items()}
        if done["units"] or done["unit_hits"]:
            stats = dict(stats)
            stats["path-feasibility"] = {
                "stage": "analysis",
                "invocations": done["units"],
                "wall_s": done["wall_s"],
                "paths_enumerated": done["paths_enumerated"],
                "paths_pruned": done["paths_pruned"],
                "path_cap_fallbacks": done["cap_fallbacks"],
                "path_irregular_fallbacks": done["irregular_fallbacks"],
                "unit_hits": done["unit_hits"],
            }
        return stats

    def cache_stats(self) -> Dict[str, Dict[str, object]]:
        """Per-stage evaluation-cache counters of this driver's builds.

        The engines' :meth:`~EvaluationEngine.stats` summed with
        :func:`~repro.counters.sum_counters` (the ``lowering`` and
        ``ir_stage`` rows of a build cache shared by several engines count
        once); ``analysis`` is the driver's
        analysis cache — cumulative process-wide numbers inside a
        ``shared_analysis_caches`` scope (``analysis["shared"]`` says
        which).
        """
        totals: Dict[str, Dict[str, object]] = {}
        builds = set()
        for engine in self._engines.values():
            stats = engine.stats()
            del stats["analysis"]
            if id(engine.builds) in builds:
                del stats["lowering"], stats["ir_stage"]
            builds.add(id(engine.builds))
            sum_counters(totals, stats)
        totals["analysis"] = dict(self.analysis.stats(),
                                  shared=self._analysis_shared)
        return totals

    def _security_evaluator(self, module: ast.SourceModule,
                            entry_function: str) -> Optional[SecurityEvaluator]:
        """A security scorer for ``entry_function`` if it has secret params."""
        try:
            function = module.function(entry_function)
        except KeyError:
            return None
        secrets = function.pragmas.get("secret")
        if not secrets:
            return None
        analyzer = SecurityAnalyzer(self.platform, core=self.core,
                                    samples_per_class=self.security_samples)

        def evaluate(program, name: str) -> float:
            rng = random.Random(99)
            classes = [rng.getrandbits(8) | 1 for _ in range(2)]
            report = analyzer.analyze_task(program, name, secret_classes=classes)
            return report.security_level

        return evaluate

    def _engine(self, module: ast.SourceModule, entries: Entries,
                evaluate_security: bool) -> EvaluationEngine:
        """The shared evaluation engine for (module, entries, security context).

        A sequence of entries selects the aggregate ``"<all tasks>"`` engine
        (summed ETS over the entries, no security objective).
        """
        aggregate = not isinstance(entries, str)
        entries = tuple(entries) if aggregate else (entries,)
        security_evaluator = (self._security_evaluator(module, entries[0])
                              if evaluate_security and not aggregate
                              else None)
        key = (id(module), entries, aggregate, security_evaluator is not None)
        engine = self._engines.get(key)
        if engine is None:
            builds = self._builds.setdefault(id(module), BuildCache())
            engine = EvaluationEngine(
                module, self.platform, list(entries),
                core=self.core,
                security_evaluator=security_evaluator,
                analysis_cache=self.analysis,
                build_cache=builds,
                pipeline=self.pipeline,
                aggregate=aggregate,
            )
            self._engines[key] = engine
        return engine

    # -- single-configuration compilation ---------------------------------------------
    def compile(self, source: Union[str, ast.SourceModule], entries: Entries,
                config: Optional[CompilerConfig] = None,
                evaluate_security: bool = False) -> Variant:
        """Compile under ``config`` (default: baseline) and analyse the result.

        ``entries`` is one entry function, or a sequence of them for the
        aggregate ``"<all tasks>"`` variant.

        The returned variant is served from the compiler's shared engine
        cache: repeated calls with an equal configuration return the *same*
        object.  Treat it (including ``program`` and ``pass_statistics``) as
        read-only; clone ``program`` (:meth:`~repro.ir.cfg.Program.clone`)
        before changing it.
        """
        module = self._as_module(source)
        config = config or CompilerConfig.baseline()
        engine = self._engine(module, entries, evaluate_security)
        return engine.evaluate(config)

    # -- multi-objective exploration ------------------------------------------------------
    def explore(self, source: Union[str, ast.SourceModule], entries: Entries,
                optimizer: str = "fpa",
                evaluate_security: bool = False,
                population_size: int = 10,
                generations: int = 6,
                seed: int = 7,
                seed_configs: Optional[Sequence[CompilerConfig]] = None,
                extended_space: bool = False,
                path_sensitive: bool = False
                ) -> ParetoFront:
        """Search the configuration space; returns the Pareto front.

        ``entries`` is as for :meth:`compile`.  ``extended_space`` lets
        FPA/NSGA-II explore the CSE, peephole and path-sensitive axes too
        (10 genes instead of 7); off by default so fixed-seed searches
        remain bit-for-bit reproducible.  ``path_sensitive`` analyses every
        candidate path-sensitively (tighter bounds, same code).
        """
        module = self._as_module(source)
        engine = self._engine(module, entries, evaluate_security)
        # Path sensitivity is an analysis mode, not a code-generation axis:
        # rather than widening the gene space the evaluator pins the flag on
        # every candidate before evaluation (and on the seeds, so cached
        # variants line up).
        pin = ((lambda config: config.with_(path_sensitive=True))
               if path_sensitive else None)
        evaluator = BatchEvaluator(engine, config_transform=pin)

        seeds = list(seed_configs or [CompilerConfig.baseline(),
                                      CompilerConfig.performance()])
        if pin is not None:
            seeds = [pin(config) for config in seeds]
        if optimizer == "exhaustive":
            return self._exhaustive(evaluator, extended_space)
        if optimizer not in _SEARCHES:
            raise CompilationError(f"unknown optimizer {optimizer!r}")
        search = _SEARCHES[optimizer](
            evaluator, population_size=population_size,
            generations=generations, seed=seed, extended_space=extended_space)
        variants = search.optimize(initial_configs=seeds)
        return ParetoFront(variants=variants, evaluations=search.evaluations,
                           optimizer=optimizer)

    def _exhaustive(self, evaluator,
                    extended_space: bool = False) -> ParetoFront:
        """Evaluate a representative grid of configurations exhaustively.

        With ``extended_space`` the grid additionally crosses the
        CSE/peephole axes (4x the evaluations; the staged caches absorb
        most of the repeat work).
        """
        variants = []
        evaluations = 0
        new_axes = ((False, True) if extended_space else (False,))
        for unroll in (0, 8, 16):
            for spm in (False, True):
                for strength in (False, True):
                    for inline in (False, True):
                        for cse in new_axes:
                            for peephole in new_axes:
                                config = CompilerConfig(
                                    constant_folding=True,
                                    unroll_limit=unroll,
                                    inline_simple_functions=inline,
                                    dead_code_elimination=True,
                                    strength_reduction=strength,
                                    spm_allocation=spm,
                                    enable_cse=cse,
                                    enable_peephole=peephole)
                                variants.append(evaluator(config))
                                evaluations += 1
        return ParetoFront(variants=pareto_front(variants),
                           evaluations=evaluations, optimizer="exhaustive")

    # -- ETS properties export ----------------------------------------------------------------
    def task_properties(self, variant: Variant,
                        opp: Optional[OperatingPoint] = None
                        ) -> Dict[str, Dict[str, float]]:
        """Per-task ETS properties of a compiled variant.

        Returns a mapping ``task name -> {wcet_s, wcet_cycles, energy_j,
        security}`` for every function annotated with a ``task`` pragma —
        the contents of the ETS file consumed by the coordination layer and
        the contract system, at ``opp`` (default :attr:`opp`).  Cycle bounds
        do not depend on the operating point, so a sweep analyses once.
        """
        opp = opp or self.opp
        properties: Dict[str, Dict[str, float]] = {}
        for task, function in variant.program.task_functions.items():
            wcet = self.analysis.wcet(
                variant.program, function.name, core=self.core, opp=opp,
                path_sensitive=variant.config.path_sensitive)
            wcec = self.analysis.wcec(
                variant.program, function.name, core=self.core, opp=opp,
                path_sensitive=variant.config.path_sensitive)
            properties[task] = {
                "function": function.name,
                "wcet_cycles": wcet.cycles,
                "wcet_s": wcet.time_s,
                "energy_j": wcec.energy_j,
                "security": variant.security_level,
                "frequency_hz": opp.frequency_hz,
            }
        return properties

    def export_ets(self, variant: Variant, path: str) -> None:
        """Write the ETS properties file as JSON (the Figure 1 artefact)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "platform": self.platform.name,
                "config": variant.config.describe(),
                "entry": variant.entry_function,
                "tasks": self.task_properties(variant),
            }, handle, indent=2)
