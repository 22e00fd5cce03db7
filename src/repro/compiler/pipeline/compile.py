"""The compilation pipeline: parse → AST passes → lower → IR → backend.

One :class:`CompilationPipeline` binds a platform and a
:class:`~repro.compiler.pipeline.manager.PassManager` and exposes the
compile path as *stage runs* over the registered pass list.  The evaluation
engine builds each build unit (one function) as one chain of steps, each
AST pass, the lowering passes and each IR pass run through these methods,
and caches the unit after each step under the manager's
:meth:`~repro.compiler.pipeline.manager.PassManager.step_key`: a pass
that changed nothing hands its input on, and one whose key says it
leaves the function as it is does not run.  The only
other build sequence, the uncached one-shot ``build_program`` that chains
the stages on the whole module, is a test oracle in ``tests/oracles.py``.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.compiler.config import CompilerConfig
from repro.compiler.pipeline.manager import PassManager
from repro.compiler.pipeline.passes import (
    PARSE_PASS,
    UNROLL_PASS,
    Pass,
    PassContext,
)
from repro.frontend import ast_nodes as ast
from repro.frontend.parser import parse_cached
from repro.hw.platform import Platform
from repro.ir.cfg import Program


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

    def _run(self, passes, ctx: PassContext) -> None:
        """Run the enabled steps of ``passes`` in order through the
        manager.

        Iterating the manager's steps — not a hard-coded name sequence —
        is what makes custom passes first-class: a pass registered on this
        pipeline's manager executes here exactly where its position in the
        list says, with no engine changes (see ``docs/passes.md``).  The
        steps hold the folding round after unrolling too (see
        :meth:`~repro.compiler.pipeline.PassManager.steps`; its counter
        accumulates).
        """
        manager = self.manager
        for registered in passes:
            if registered.enabled(ctx.config):
                manager.run(registered.name, ctx)

    def _before_unroll(self) -> int:
        """How many AST passes run before unrolling."""
        names = [p.name for p in self.manager.steps("ast")]
        return names.index(UNROLL_PASS) if UNROLL_PASS in names else len(names)

    # ----------------------------------------------------------- AST stage --
    def pre_unroll(self, module: ast.SourceModule, config: CompilerConfig,
                   passes: Optional[Sequence[Pass]] = None,
                   statistics: Optional[Dict[str, int]] = None
                   ) -> Tuple[ast.SourceModule, Dict[str, int]]:
        """Loop-bound inference plus the AST passes that run before unrolling.

        A custom AST pass registered before ``unroll-loops`` joins them.
        ``passes`` runs only those AST steps, unrolling and the folding
        round after it included: the evaluation engine runs one step of a
        function's chain at a time.  The input module is never modified:
        the returned module is a fresh clone, and its counters extend a
        copy of ``statistics``.
        """
        ctx = PassContext(config=config, platform=self.platform,
                          module=ast.clone_module(module),
                          statistics=dict(statistics or {}))
        self._run(self.manager.steps("ast")[:self._before_unroll()]
                  if passes is None else passes, ctx)
        return ctx.module, ctx.statistics

    def unroll_and_lower(self, working: ast.SourceModule,
                         config: CompilerConfig,
                         statistics: Dict[str, int],
                         passes: Optional[Sequence[Pass]] = None) -> Program:
        """Unroll (mutating ``working`` in place) and lower to IR.

        The folding round after unrolling and AST passes registered
        *after* ``unroll-loops`` run here, before lowering.  ``passes``
        runs only those: the evaluation engine
        passes the lowering passes alone, on the AST its chain reached,
        which stays unmodified (lowering only reads it).  Counters go to
        ``statistics``.
        """
        ctx = PassContext(config=config, platform=self.platform,
                          module=working, statistics=statistics)
        self._run(self.manager.steps("ast")[self._before_unroll():]
                  + self.manager.steps("lower")
                  if passes is None else passes, ctx)
        return ctx.program

    # ------------------------------------------------------------ IR stage --
    def ir_passes(self, program: Program, config: CompilerConfig,
                  passes: Optional[Sequence[Pass]] = None
                  ) -> Dict[str, int]:
        """The platform-independent IR passes, mutating ``program`` in place.

        Stock order: CSE first (recomputations become copies while their
        producers are still live), DCE and strength reduction in their
        historical order, the peephole pass last so it can clean up the
        self-copies and foldable patterns the other three leave behind.
        Custom IR passes run at their registered position.  ``passes``
        runs only those (the evaluation engine runs one step of a
        function's chain at a time).
        """
        ctx = PassContext(config=config, platform=self.platform,
                          program=program)
        self._run(self.manager.steps("ir") if passes is None else passes,
                  ctx)
        return ctx.statistics

    # ------------------------------------------------------------- backend --
    def backend_passes(self, program: Program,
                       config: CompilerConfig) -> Dict[str, int]:
        """The platform-dependent passes (scratchpad allocation, always last)."""
        ctx = PassContext(config=config, platform=self.platform,
                          program=program)
        self._run([p for p in self.manager.passes("backend")
                   if p.apply is not None], ctx)
        return ctx.statistics

    # --------------------------------------------------------------- stats --
    def stats(self) -> Dict[str, Dict[str, object]]:
        """Per-pass wall-time/invocation counters (see ``PassManager.stats``)."""
        return self.manager.stats()
