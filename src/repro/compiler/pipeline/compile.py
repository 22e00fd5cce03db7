"""The compilation pipeline: parse → AST passes → lower → IR → backend.

One :class:`CompilationPipeline` binds a platform and a
:class:`~repro.compiler.pipeline.manager.PassManager` and exposes the
compile path as *stage runs* over the registered pass list.  The evaluation
engine drives the stages through its caches (each stage method corresponds
to one cache boundary, keyed by the manager's stage keys).  The only
other build sequence, the uncached one-shot ``build_program`` that chains
the stages, is a test oracle in ``tests/oracles.py``.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.compiler.config import CompilerConfig
from repro.compiler.pipeline.manager import PassManager
from repro.compiler.pipeline.passes import PARSE_PASS, PassContext
from repro.frontend import ast_nodes as ast
from repro.frontend.parser import parse_cached
from repro.hw.platform import Platform
from repro.ir.cfg import Program

#: The pass whose position splits the AST stage into the shared pre-unroll
#: prefix and the per-unroll-limit suffix (the lowering cache's two tables).
_UNROLL_PASS = "unroll-loops"

#: Re-run after unrolling when both are enabled (unrolling exposes new
#: constant-index expressions; the counter accumulates over both rounds).
_FOLD_PASS = "constant-folding"


class CompilationPipeline:
    """Declarative compile path over a registered pass list."""

    def __init__(self, platform: Platform,
                 manager: Optional[PassManager] = None):
        self.platform = platform
        self.manager = manager if manager is not None else PassManager()

    # ------------------------------------------------------------ frontend --
    def parse(self, source: str,
              source_name: str = "<memory>") -> ast.SourceModule:
        """Parse (process-wide cached) under the ``parse`` pass's timer.

        The cache key carries this manager's frontend-stage identity, so a
        pipeline with a custom frontend pass never shares parse results
        with the stock one.  Returns a shared module instance — treat it as
        read-only; every stage below clones before mutating.
        """
        with self.manager.timed(PARSE_PASS):
            return parse_cached(source, source_name,
                                extra_key=self.manager.frontend_key())

    def _run_stage(self, stage: str, ctx: PassContext) -> None:
        """Run every registered (non-marker) pass of ``stage`` in order.

        Iterating the registered list — not a hard-coded name sequence — is
        what makes custom passes first-class: a pass registered on this
        pipeline's manager executes here exactly where its position in the
        list says, with no engine changes (see ``docs/passes.md``).
        """
        for registered in self.manager.passes(stage):
            if registered.apply is not None:
                self.manager.run(registered.name, ctx)

    # ----------------------------------------------------------- AST stage --
    def pre_unroll(self, module: ast.SourceModule, config: CompilerConfig
                   ) -> Tuple[ast.SourceModule, Dict[str, int]]:
        """Loop-bound inference plus the AST passes that run before unrolling.

        Of the stock passes only hardening, folding and inlining consume
        configuration here, so the result is shared between configurations
        differing in ``unroll_limit`` (the lowering cache's pre-unroll
        table) — a custom AST pass registered before ``unroll-loops`` joins
        this prefix (and should contribute its cache key accordingly).  The
        input module is never modified; the returned module is a fresh
        clone.
        """
        ctx = PassContext(config=config, platform=self.platform,
                          module=ast.clone_module(module))
        for registered in self.manager.passes("ast"):
            if registered.name == _UNROLL_PASS:
                break
            if registered.apply is not None:
                self.manager.run(registered.name, ctx)
        return ctx.module, ctx.statistics

    def unroll_and_lower(self, working: ast.SourceModule,
                         config: CompilerConfig,
                         statistics: Dict[str, int]) -> Program:
        """Unroll (mutating ``working`` in place) and lower to IR.

        Unrolling exposes constant-index expressions, so the folding pass
        runs a second round when both are enabled (its counter
        accumulates).  AST passes registered *after* ``unroll-loops`` run
        here, before lowering.
        """
        ctx = PassContext(config=config, platform=self.platform,
                          module=working, statistics=statistics)
        names = [p.name for p in self.manager.passes("ast")]
        post_unroll = (names.index(_UNROLL_PASS) + 1
                       if _UNROLL_PASS in names else len(names))
        if _UNROLL_PASS in names and self.manager.run(_UNROLL_PASS, ctx):
            if _FOLD_PASS in names:
                self.manager.run(_FOLD_PASS, ctx)
        for registered in self.manager.passes("ast")[post_unroll:]:
            if registered.apply is not None:
                self.manager.run(registered.name, ctx)
        self._run_stage("lower", ctx)
        return ctx.program

    # ------------------------------------------------------------ IR stage --
    def ir_passes(self, program: Program,
                  config: CompilerConfig) -> Dict[str, int]:
        """The platform-independent IR passes, mutating ``program`` in place.

        Stock order: CSE first (recomputations become copies while their
        producers are still live), DCE and strength reduction in their
        historical order, the peephole pass last so it can clean up the
        self-copies and foldable patterns the other three leave behind.
        Custom IR passes run at their registered position.
        """
        ctx = PassContext(config=config, platform=self.platform,
                          program=program)
        self._run_stage("ir", ctx)
        return ctx.statistics

    # ------------------------------------------------------------- backend --
    def backend_passes(self, program: Program,
                       config: CompilerConfig) -> Dict[str, int]:
        """The platform-dependent passes (scratchpad allocation, always last)."""
        ctx = PassContext(config=config, platform=self.platform,
                          program=program)
        self._run_stage("backend", ctx)
        return ctx.statistics

    # --------------------------------------------------------------- stats --
    def stats(self) -> Dict[str, Dict[str, object]]:
        """Per-pass wall-time/invocation counters (see ``PassManager.stats``)."""
        return self.manager.stats()
