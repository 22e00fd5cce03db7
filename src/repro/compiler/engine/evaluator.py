"""The evaluation engine: single entry point for variant evaluation.

An :class:`EvaluationEngine` binds one source module, one platform/core
and one optional security evaluator, and evaluates compiler configurations
against them through the staged caches of
:mod:`repro.compiler.engine.cache`:

* the variant cache short-circuits revisited configurations entirely; it
  is the one variant memo (the optimisers keep none of their own),
* the build cache holds each function after every step of its build
  chain (each AST pass, lowering, each IR pass), keyed by the pass and
  its input, so each pass runs once per distinct input (one that changed
  nothing hands its input on, one whose key says it cannot change the
  input does not run), a function is lowered once per distinct AST its
  chain reaches, and every variant's program is assembled from shared
  functions,
* the analysis cache shares per-function WCET/WCEC tables between every
  query against the same compiled program (multiple task entries, DVFS
  sweeps, per-core ETS derivation).

Variants are costed at the core's nominal operating point; time and energy
at another point are a query on the analysis cache, not another build.

With ``entry_functions`` naming a single function the engine produces the
same variants as the uncached ``evaluate_config`` reference kept with
the test oracles in ``tests/oracles.py``; with
several it produces the aggregate all-tasks variants the predictable
toolchain optimises (sum of per-entry WCET/energy, entry ``"<all tasks>"``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.compiler.config import CompilerConfig
from repro.compiler.engine.cache import AnalysisCache, BuildCache, VariantCache
from repro.compiler.evaluate import SecurityEvaluator, Variant
from repro.compiler.passes.spm import INSTRUCTION_BYTES
from repro.compiler.pipeline import ANALYSIS_PASS, CompilationPipeline, Pass
from repro.errors import CompilationError, TeamPlayError
from repro.frontend import ast_nodes as ast
from repro.hw.core import Core
from repro.hw.platform import Platform
from repro.ir.cfg import Program

#: Entry-function label of aggregate multi-task variants.
ALL_TASKS_ENTRY = "<all tasks>"

class EvaluationEngine:
    """Evaluates compiler configurations with shared analysis caching."""

    def __init__(self, module: ast.SourceModule, platform: Platform,
                 entry_functions: Sequence[str],
                 core: Optional[Core] = None,
                 security_evaluator: Optional[SecurityEvaluator] = None,
                 analysis_cache: Optional[AnalysisCache] = None,
                 build_cache: Optional[BuildCache] = None,
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
        self.security_evaluator = security_evaluator
        #: The compile path: every stage the engine caches runs through the
        #: pipeline's registered pass list (drivers share one pipeline across
        #: their engines so per-pass timings aggregate per driver).
        self.pipeline = (pipeline if pipeline is not None
                         else CompilationPipeline(platform))
        # The analysis cache is safe to share platform-wide and the build
        # cache per module; the variant cache is the engine's own (it is
        # per security context).  Compare against None explicitly: the
        # analysis cache defines __len__, so an empty shared cache is falsy
        # and `or` would silently discard it.  Every key comes from the
        # pipeline's pass list, so registering a new configurable pass
        # widens every key automatically.
        self.analysis = (analysis_cache if analysis_cache is not None
                         else AnalysisCache(platform))
        self.builds = (build_cache if build_cache is not None
                       else BuildCache())
        self.lowering = self.builds.lowering
        self.ir_stage = self.builds.ir_stage
        self.variants = VariantCache(self.pipeline.manager)
        #: Build units, made on first use: (identity, module).
        self._units: Optional[List[Tuple[Tuple, ast.SourceModule]]] = None

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
    def _build_units(self) -> List[Tuple[Tuple, ast.SourceModule]]:
        """The module's build units: one per function, identified by its
        name, each a module holding that function and the globals, whose
        externals name the other functions.  A name defined twice raises
        what lowering the whole module reports."""
        if self._units is None:
            module = self.module
            names = module.function_names()
            for index, name in enumerate(names):
                if name in names[:index]:
                    raise TeamPlayError(f"duplicate function {name!r}")
            self._units = [((function.name,), ast.SourceModule(
                [function], module.globals, module.source_name,
                externals=dict.fromkeys(
                    name for name in names if name != function.name)))
                           for function in module.functions]
        return self._units

    def _build(self, config: CompilerConfig):
        """Build every unit through the build cache, then assemble the
        variant's program and run the backend (scratchpad allocation) on
        it.

        Each unit is one chain of steps (see :meth:`_step`): its AST
        passes from its identity and parsed AST, then one lowering step
        (see :meth:`_lower`), then its IR passes.  The program is new,
        its functions are the cached units' own: the backend replaces a
        function it changes (see
        :func:`~repro.compiler.passes.spm.allocate_scratchpad`).  Counters
        are the steps' summed.
        """
        reported, declared = self.pipeline.manager.statistic_names(config)
        statistics = dict.fromkeys(reported, 0)

        def count(counters: Dict[str, int]) -> None:
            for name, value in counters.items():
                if name in statistics or name not in declared:
                    statistics[name] = statistics.get(name, 0) + value

        functions = {}
        # A module without functions assembles an empty program, which
        # then lacks every entry.
        lowered = Program(source_name=self.module.source_name)
        for identity, module in self._build_units():
            key, module, counters = self._chain(config, "ast", identity,
                                                module)
            count(counters)
            key, lowered, counters = self._lower(config, key, module)
            count(counters)
            _key, function, counters = self._chain(
                config, "ir", key, next(iter(lowered.functions.values())),
                lowered)
            count(counters)
            functions[function.name] = function
        program = Program(functions=functions,
                          global_arrays=dict(lowered.global_arrays),
                          metadata=dict(lowered.metadata),
                          source_name=lowered.source_name)
        statistics.update(self.pipeline.backend_passes(program, config))
        return program, statistics

    def _chain(self, config: CompilerConfig, stage: str, key: Tuple, unit,
               lowered: Optional[Program] = None,
               until: Optional[Pass] = None) -> Tuple:
        """``(key, unit, statistics)`` after the chain of ``stage``'s
        enabled passes (up to ``until``) from ``unit`` under ``key``, one
        :meth:`_step` each, with the steps' counters summed."""
        statistics: Dict[str, int] = {}
        for registered in self.pipeline.manager.steps(stage):
            if registered is until:
                break
            if registered.enabled(config):
                key, unit, counters = self._step(config, registered, key,
                                                 unit, lowered)
                for name, value in counters.items():
                    statistics[name] = statistics.get(name, 0) + value
        return key, unit, statistics

    def _step(self, config: CompilerConfig, registered: Pass, key: Tuple,
              unit, lowered: Optional[Program] = None) -> Tuple:
        """The entry ``(key, unit, statistics)`` of one step of a chain:
        ``registered`` run on ``unit`` (under ``key``), an IR function of
        ``lowered`` (an IR step) or, with no ``lowered``, a module holding
        one function (an AST step), running the pass on a miss.

        A pass whose key says it leaves the input as it is (a
        :meth:`~repro.compiler.pipeline.PassManager.step_key` that is
        ``key`` itself) hands the input on, and nothing runs.  Otherwise
        the pass runs on a copy: a clone of the function sharing its
        instructions and region tree (the IR passes are copy-on-write at
        instruction granularity and never edit a region tree) in a
        program with ``lowered``'s globals, or a clone
        of the module, holding the callee bodies a pass that
        ``reads_callees`` reads.  A pass that changed nothing hands on the
        input key and the input itself, so every later step, and every
        memo kept on the function, is shared with the configurations that
        skipped the pass; the entry keeps the pass's counters either way.
        "Changed" is read off the IR an IR pass ran on
        (:meth:`~repro.ir.cfg.Function.holds_ir_of`), and off an AST
        pass's counters: it changed the function iff a counter it
        reported grew (a pass with no ``statistic`` always changes).
        """
        ast_step = lowered is None
        source, callee_keys = unit, ()
        if registered.reads_callees is not None:
            source, callee_keys = self._with_callees(config, registered,
                                                     key, unit)
        step_key = self.pipeline.manager.step_key(
            config, registered, key, unit.functions[0] if ast_step else unit,
            self.builds.function_keys, callee_keys)
        if step_key is key:
            return key, unit, {}
        table = self.builds.tables[registered.stage]
        entry = table.get(step_key)
        if entry is not None:
            return entry
        if ast_step:
            output, statistics = self.pipeline.pre_unroll(source, config,
                                                          (registered,))
            changed = (registered.statistic is None
                       or any(statistics.values()))
        else:
            program = Program(
                functions={unit.name: unit.clone(share_instructions=True)},
                global_arrays=dict(lowered.global_arrays),
                metadata=dict(lowered.metadata),
                source_name=lowered.source_name)
            statistics = self.pipeline.ir_passes(program, config,
                                                 (registered,))
            output = next(iter(program.functions.values()))
            changed = not output.holds_ir_of(unit)
        if changed:
            return table.put(step_key, output, statistics)
        return table.put(step_key, unit, statistics, key)

    def _lower(self, config: CompilerConfig, key: Tuple,
               module: ast.SourceModule) -> Tuple:
        """The lowering step's entry ``(key, program, statistics)``: the
        enabled lowering passes run on ``module``, the AST the unit's
        chain reached under ``key``, keyed by their step keys in turn.
        Lowering only reads the AST, so it reads the shared module
        itself, and it always changes the unit (an AST to IR)."""
        manager = self.pipeline.manager
        passes = [p for p in manager.steps("lower") if p.enabled(config)]
        for registered in passes:
            key = manager.step_key(config, registered, key,
                                   module.functions[0],
                                   self.builds.function_keys)
        entry = self.lowering.get(key)
        if entry is None:
            statistics: Dict[str, int] = {}
            entry = self.lowering.put(key, self.pipeline.unroll_and_lower(
                module, config, statistics, passes), statistics)
        return entry

    def _with_callees(self, config: CompilerConfig, registered: Pass,
                      key: Tuple, source: ast.SourceModule
                      ) -> Tuple[ast.SourceModule, Tuple]:
        """``source`` (one function, under ``key``) with the bodies of
        the callees ``registered`` reads, each as its own AST chain
        reached the pass, and their keys."""
        function = source.functions[0]
        callees = self.builds.callees.get(key)
        if callees is None:
            units = {identity[0]: (identity, module) for identity, module
                     in self._build_units()}
            callees = self.builds.callees[key] = [
                units[name] for name in ast.called_functions(function)
                if name != function.name and name in units]
        externals = dict(source.externals)
        callee_keys = []
        for identity, module in callees:
            callee_key, callee, _statistics = self._chain(
                config, "ast", identity, module, until=registered)
            body = callee.functions[0]
            if registered.reads_callees(body):
                externals[body.name] = body
                callee_keys.append(callee_key)
        if not callee_keys:
            return source, ()
        return (ast.SourceModule(source.functions, source.globals,
                                 source.source_name, externals),
                tuple(callee_keys))

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
                                          path_sensitive=config.path_sensitive)
                wcec = self.analysis.wcec(program, entry, core=self.core,
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

