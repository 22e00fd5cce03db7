"""The evaluation engine: single entry point for variant evaluation.

An :class:`EvaluationEngine` binds one source module, one platform/core/OPP
and one optional security evaluator, and evaluates compiler configurations
against them through the staged caches of
:mod:`repro.compiler.engine.cache`:

* the variant cache short-circuits revisited configurations entirely,
* the lowering cache shares the lowered IR between configurations that
  differ only in IR-level flags, and the IR-stage cache the optimised IR
  between configurations that differ only in backend flags,
* the analysis cache shares per-function WCET/WCEC tables between every
  query against the same compiled program (multiple task entries, DVFS
  sweeps, per-core ETS derivation).

With ``entry_functions`` naming a single function the engine produces the
same variants as :func:`repro.compiler.evaluate.evaluate_config`; with
several it produces the aggregate all-tasks variants the predictable
toolchain optimises (sum of per-entry WCET/energy, entry ``"<all tasks>"``).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.compiler.config import CompilerConfig
from repro.compiler.engine.cache import (
    AnalysisCache,
    IrStageCache,
    LoweringCache,
    VariantCache,
)
from repro.compiler.evaluate import SecurityEvaluator, Variant
from repro.compiler.passes.spm import INSTRUCTION_BYTES
from repro.compiler.pipeline import ANALYSIS_PASS, CompilationPipeline
from repro.errors import CompilationError
from repro.frontend import ast_nodes as ast
from repro.hw.core import Core
from repro.hw.dvfs import OperatingPoint
from repro.hw.platform import Platform
from repro.ir.cfg import Program

#: Entry-function label of aggregate multi-task variants.
ALL_TASKS_ENTRY = "<all tasks>"


class EvaluationEngine:
    """Evaluates compiler configurations with shared analysis caching."""

    def __init__(self, module: ast.SourceModule, platform: Platform,
                 entry_functions: Sequence[str],
                 core: Optional[Core] = None,
                 opp: Optional[OperatingPoint] = None,
                 security_evaluator: Optional[SecurityEvaluator] = None,
                 analysis_cache: Optional[AnalysisCache] = None,
                 lowering_cache: Optional[LoweringCache] = None,
                 variant_cache: Optional[VariantCache] = None,
                 pipeline: Optional[CompilationPipeline] = None,
                 aggregate: bool = False):
        if not entry_functions:
            raise CompilationError("engine needs at least one entry function")
        self.module = module
        self.platform = platform
        self.entry_functions = list(entry_functions)
        #: Aggregate mode always produces "<all tasks>" variants (summed ETS
        #: over the entries, no security objective), matching the predictable
        #: toolchain's whole-application evaluation even for one task.
        self.aggregate = aggregate
        self.core = core
        self.opp = opp
        self.security_evaluator = security_evaluator
        #: The compile path: every stage the engine caches runs through the
        #: pipeline's registered pass list (drivers share one pipeline across
        #: their engines so per-pass timings aggregate per driver).
        self.pipeline = (pipeline if pipeline is not None
                         else CompilationPipeline(platform))
        # Caches can be shared across engines: the analysis cache is safe to
        # share platform-wide, the lowering/variant caches are per-module (and
        # per security context for the variant cache).  Compare against None
        # explicitly: the caches define __len__, so an empty shared cache is
        # falsy and `or` would silently discard it.  Engine-built caches are
        # keyed by the pipeline's pass list, so registering a new
        # configurable pass widens every stage key automatically.
        self.analysis = (analysis_cache if analysis_cache is not None
                         else AnalysisCache(platform))
        manager = self.pipeline.manager
        self.lowering = (lowering_cache if lowering_cache is not None
                         else LoweringCache(manager=manager))
        self.ir_stage = IrStageCache(manager=manager)
        self.variants = (variant_cache if variant_cache is not None
                         else VariantCache(manager=manager))

    # -- statistics ------------------------------------------------------------
    def stats(self) -> Dict[str, Dict[str, object]]:
        """Each cache stage's own ``stats()``, keyed by stage."""
        return {
            "variant": self.variants.stats(),
            "lowering": self.lowering.stats(),
            "ir_stage": self.ir_stage.stats(),
            "analysis": self.analysis.stats(),
        }

    # -- pipeline stages ---------------------------------------------------------
    def _build(self, config: CompilerConfig):
        """Lower and optimise through the staged caches.

        Stage order (each stage's cache key subsumes the previous one's):
        lowering (AST-stage key) → platform-independent IR passes (+ DCE/SR
        flags) → scratchpad allocation (per variant, runs last).
        """
        staged = self.ir_stage.get(config)
        if staged is None:
            lowered = self.lowering.get(config)
            if lowered is None:
                program, statistics = self._lower(config)
                self.lowering.put(config, program, statistics)
            else:
                program, statistics = lowered
            statistics.update(self.pipeline.ir_passes(program, config))
            self.ir_stage.put(config, program, statistics)
        else:
            program, statistics = staged
        statistics.update(self.pipeline.backend_passes(program, config))
        return program, statistics

    def _lower(self, config: CompilerConfig):
        """AST passes + lowering, sharing the pre-unroll module when possible."""
        pre = self.lowering.get_pre_unroll(config)
        if pre is None:
            working, statistics = self.pipeline.pre_unroll(self.module, config)
            self.lowering.put_pre_unroll(config, working, statistics)
        else:
            working, statistics = pre
            statistics = dict(statistics)
        # The cached pre-unroll module stays pristine: unrolling (and, for
        # hygiene, lowering) always operates on a private clone.
        working = ast.clone_module(working)
        return (self.pipeline.unroll_and_lower(working, config, statistics),
                statistics)

    def _analyse(self, config: CompilerConfig, program: Program,
                 statistics: Dict[str, int], name: Optional[str]) -> Variant:
        for entry in self.entry_functions:
            if entry not in program.functions:
                raise CompilationError(
                    f"entry function {entry!r} not found")
        total_cycles = 0.0
        total_time = 0.0
        total_energy = 0.0
        # One analysis invocation per newly built variant (cache-served
        # queries inside still count toward its wall time — that is the
        # stage's real cost as seen by the build).
        with self.pipeline.manager.timed(ANALYSIS_PASS):
            for entry in self.entry_functions:
                wcet = self.analysis.wcet(program, entry, core=self.core,
                                          opp=self.opp,
                                          path_sensitive=config.path_sensitive)
                wcec = self.analysis.wcec(program, entry, core=self.core,
                                          opp=self.opp,
                                          path_sensitive=config.path_sensitive)
                total_cycles += wcet.cycles
                total_time += wcet.time_s
                total_energy += wcec.energy_j

        single_entry = (self.entry_functions[0]
                        if len(self.entry_functions) == 1 and not self.aggregate
                        else None)
        security = None
        if single_entry is not None and self.security_evaluator is not None:
            security = self.security_evaluator(program, single_entry)

        return Variant(
            name=name or config.short_name(),
            config=config,
            program=program,
            entry_function=single_entry or ALL_TASKS_ENTRY,
            wcet_cycles=total_cycles,
            wcet_time_s=total_time,
            energy_j=total_energy,
            code_size_bytes=program.total_instructions * INSTRUCTION_BYTES,
            security_level=security,
            pass_statistics=statistics,
        )

    # -- public API -----------------------------------------------------------------
    def evaluate(self, config: CompilerConfig,
                 name: Optional[str] = None) -> Variant:
        """Evaluate one configuration (cached)."""
        cached = self.variants.get(config)
        if cached is not None:
            return cached
        program, statistics = self._build(config)
        variant = self._analyse(config, program, statistics, name)
        self.variants.put(config, variant)
        return variant

