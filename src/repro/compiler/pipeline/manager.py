"""The pass manager: registration, cache keys and per-pass counters.

One :class:`PassManager` owns the ordered pass list of a compilation
pipeline.  It answers three questions the compile path used to answer in
three different places:

* *which passes run, in what order* — :meth:`passes` /
  :meth:`register` and each stage's steps (:meth:`steps`), replacing
  the hand-sequenced call sites,
* *what keys the caches use* — :meth:`step_key` extends a function's
  key by one pass's contribution, narrowed to the fields that can change
  that function, at each step of its build chain, and
  :meth:`canonical_key` concatenates every registered contribution into
  the engine's ``VariantCache`` key.  They are the only key derivations.
  Registering a new configurable pass automatically widens every
  downstream key,
* *where the time goes* — every :meth:`run` and :meth:`timed` block feeds
  per-pass wall-time and invocation counters, reported through
  :meth:`stats` in the engine-cache ``stats()`` convention and surfaced by
  ``python -m repro.scenarios run --json`` and the service ``GET /stats``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Tuple

from repro.compiler.config import CompilerConfig
from repro.compiler.pipeline.passes import (
    FOLD_PASS,
    INLINE_PASS,
    STAGES,
    UNROLL_PASS,
    Pass,
    PassContext,
    _no_key,
    default_compile_passes,
    refold_after_unrolling,
)
from repro.errors import CompilationError


class PassManager:
    """Ordered registry of :class:`Pass` objects with timing counters."""

    def __init__(self, passes: Optional[Iterable[Pass]] = None):
        """``passes=None`` installs the stock compile pass list; pass an
        explicit (possibly empty) iterable for custom pipelines — e.g. the
        complex toolchain's profiling flow, which only uses :meth:`timed`.
        """
        self._install(list(
            default_compile_passes() if passes is None else passes))
        #: name -> [stage, invocations, wall-clock seconds]
        self._counters: Dict[str, List] = {}

    # ----------------------------------------------------------- registry --
    def _install(self, passes: List[Pass]) -> None:
        """Make ``passes`` the pass list, after checking it, and derive
        what depends on it: each stage's steps (the AST steps with the
        folding round after unrolling, see
        :func:`~repro.compiler.pipeline.passes.refold_after_unrolling`)
        and the canonical key plan.

        The plan holds only the ``cache_key`` callables with a real
        contribution: key derivation runs on every variant-cache get and
        put, the hottest path of a search.
        """
        ranks = [STAGES.index(p.stage) for p in passes]
        if ranks != sorted(ranks):
            raise CompilationError(
                "pass list is not in stage order: "
                + " -> ".join(f"{p.name}({p.stage})" for p in passes))
        names = [p.name for p in passes]
        if len(set(names)) != len(names):
            raise CompilationError(f"duplicate pass names in {names}")
        steps = {stage: tuple(p for p in passes
                              if p.stage == stage and p.apply is not None)
                 for stage in STAGES}
        ast_names = [p.name for p in steps["ast"]]
        unroll = (ast_names.index(UNROLL_PASS) if UNROLL_PASS in ast_names
                  else len(ast_names))
        inline = (min(ast_names.index(INLINE_PASS), unroll)
                  if INLINE_PASS in ast_names else unroll)
        misplaced = [p.name for p in passes if p.reads_callees is not None
                     and p.name not in ast_names[inline:unroll]]
        if misplaced:
            raise CompilationError(
                f"passes {misplaced} read callees outside the AST passes "
                f"from {INLINE_PASS!r} up to {UNROLL_PASS!r}")
        if FOLD_PASS in ast_names and unroll < len(ast_names):
            ast_steps = list(steps["ast"])
            ast_steps.insert(unroll + 1, refold_after_unrolling(
                ast_steps[ast_names.index(FOLD_PASS)], ast_steps[unroll]))
            steps["ast"] = tuple(ast_steps)
        self._passes = passes
        self._steps = steps
        self._canonical = tuple(p.cache_key for p in passes
                                if p.cache_key is not _no_key)

    def passes(self, stage: Optional[str] = None) -> List[Pass]:
        """The registered passes, optionally restricted to one stage."""
        if stage is None:
            return list(self._passes)
        return [p for p in self._passes if p.stage == stage]

    def pass_named(self, name: str) -> Pass:
        """The registered pass called ``name`` (:class:`CompilationError`
        for unknown names)."""
        for registered in self._passes:
            if registered.name == name:
                return registered
        raise CompilationError(f"no registered pass named {name!r}")

    def register(self, new_pass: Pass, *,
                 after: Optional[str] = None,
                 before: Optional[str] = None) -> None:
        """Insert a pass, by default at the end of its stage.

        ``after``/``before`` name an existing pass to anchor the insertion;
        the resulting list must still be in stage order, and a pass that
        ``reads_callees`` must land from inlining up to unrolling.  Cache keys
        widen automatically, so register passes before building engines:
        a build then never mixes entries made under two pass lists.
        """
        if after is not None and before is not None:
            raise CompilationError("pass either `after` or `before`, not both")
        passes = list(self._passes)
        if after is not None:
            index = passes.index(self.pass_named(after)) + 1
        elif before is not None:
            index = passes.index(self.pass_named(before))
        else:
            rank = STAGES.index(new_pass.stage)
            index = len(passes)
            for position, registered in enumerate(passes):
                if STAGES.index(registered.stage) > rank:
                    index = position
                    break
        passes.insert(index, new_pass)
        self._install(passes)

    def steps(self, stage: str) -> Tuple[Pass, ...]:
        """The steps of one stage, in order: its passes, markers left
        out, and in the AST stage the folding round right after
        unrolling (the folding pass once more, enabled when both are)."""
        try:
            return self._steps[stage]
        except KeyError:
            raise CompilationError(f"unknown stage {stage!r}; "
                                   f"expected one of {STAGES}") from None

    # --------------------------------------------------------- cache keys --
    def _part(self, config: CompilerConfig, registered: Pass, key: Tuple,
              function, memo: Dict[Tuple, Optional[Tuple]]
              ) -> Optional[Tuple]:
        """``registered``'s contribution to the step on ``function``
        under ``key``: its ``function_key`` on the function, or its
        ``cache_key``.  ``None`` says the pass leaves the function as it
        is (see :class:`~repro.compiler.pipeline.passes.Pass`).

        A ``function_key`` reads the configuration only through its pass's
        ``cache_key``, so ``memo`` (one per module: keys name functions)
        keeps each narrowed contribution per ``(pass, key, cache_key)``.
        """
        if registered.function_key is None:
            return registered.cache_key(config)
        memo_key = (registered.name, key, registered.cache_key(config))
        try:
            return memo[memo_key]
        except KeyError:
            part = memo[memo_key] = registered.function_key(config, function)
            return part

    def step_key(self, config: CompilerConfig, registered: Pass,
                 key: Tuple, function, memo: Dict[Tuple, Optional[Tuple]],
                 callee_keys: Tuple = ()) -> Tuple:
        """The key of one step of a function's build chain.

        The engine builds each function as one chain from its identity
        and parsed AST: one step per enabled AST pass, one lowering step
        (the lowering passes' keys in turn) and one step per enabled IR
        pass.  A step's key is its input's ``key``, the pass's name and
        the pass's contribution on the input ``function`` (see
        :meth:`_part`; ``memo`` keeps the narrowed ones).  A pass that
        ``reads_callees`` contributes ``callee_keys`` too: the keys of the
        callee bodies it reads, each the callee's own chain up to the
        pass.  A step whose pass changed nothing hands on its input key
        and input, so configurations that differ only in passes that
        changed nothing share every later step.  A pass whose
        contribution says it leaves the function as it is (``None``, or a
        callee reader that reads nothing) changes nothing by its own
        word: its step key is ``key`` itself, and the step does not run.
        """
        part = self._part(config, registered, key, function, memo)
        if registered.reads_callees is not None and part is not None:
            part = part + (callee_keys,) if callee_keys else None
        if part is None:
            return key
        return (key, registered.name) + part

    def canonical_key(self, config: CompilerConfig) -> Tuple:
        """The full-pipeline key (every registered pass's contribution)."""
        key: Tuple = ()
        for cache_key in self._canonical:
            key += cache_key(config)
        return key

    def statistic_names(self, config: CompilerConfig
                        ) -> Tuple[Tuple[str, ...], frozenset]:
        """The declared counters ``config`` reports, in pass order, and
        every declared counter of the AST, lowering and IR passes.

        A declared counter is reported iff its pass runs; a function
        shared with a configuration that ran a narrowed pass (one whose
        ``function_key`` leaves it out of that function's key) may carry
        the counter when ``config`` does not run the pass.
        """
        passes = [p for stage in ("ast", "lower", "ir")
                  for p in self._steps[stage] if p.statistic is not None]
        return (tuple(p.statistic for p in passes if p.enabled(config)),
                frozenset(p.statistic for p in passes))

    def frontend_key(self) -> Tuple[str, ...]:
        """Identity of the frontend stage, for the process-wide parse cache.

        The parse cache runs before any configuration exists, so the key is
        the *names* of the registered frontend-stage passes rather than
        config-dependent contributions: registering a custom frontend pass
        changes the key and retires every entry parsed without it — the
        same automatic widening the config-keyed caches get from
        :meth:`step_key`.
        """
        return tuple(p.name for p in self._passes if p.stage == "frontend")

    def pass_list_key(self) -> Tuple[Tuple[str, str], ...]:
        """Identity of the full registered pass list, as ``(stage, name)``.

        Namespaces the persistent analysis-cache tier
        (:mod:`repro.compiler.engine.persist`): registering or removing a
        pass changes every on-disk digest, retiring entries produced by a
        different pipeline — the cross-process analogue of the automatic key
        widening the in-memory caches get from :meth:`step_key`.
        """
        return tuple((p.stage, p.name) for p in self._passes)

    # ----------------------------------------------------------- execution --
    def run(self, name: str, ctx: PassContext) -> bool:
        """Apply the named pass to ``ctx`` if the config enables it.

        Returns whether the pass ran.  Disabled passes cost one predicate
        call and are not counted as invocations.
        """
        registered = self.pass_named(name)
        if registered.apply is None:
            raise CompilationError(
                f"pass {name!r} is a marker pass; time it with `timed()`")
        if not registered.enabled(ctx.config):
            return False
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = [registered.stage, 0, 0.0]
        started = time.perf_counter()
        registered.apply(ctx)
        counter[1] += 1
        counter[2] += time.perf_counter() - started
        return True

    @contextmanager
    def timed(self, name: str, stage: Optional[str] = None):
        """Count a block against pass ``name`` (marker passes, ad-hoc stages).

        ``stage`` defaults to the registered pass's stage and is required
        for names outside the pass list (e.g. the complex toolchain's
        ``profile`` stage).
        """
        if stage is None:
            stage = self.pass_named(name).stage
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = [stage, 0, 0.0]
        started = time.perf_counter()
        try:
            yield
        finally:
            counter[1] += 1
            counter[2] += time.perf_counter() - started

    # ------------------------------------------------------------- stats --
    def stats(self) -> Dict[str, Dict[str, object]]:
        """Per-pass counters: ``{name: {stage, invocations, wall_s}}``.

        Only passes that ran (or were timed) appear; a registered pass a
        search never enabled contributes no row.
        """
        return {
            name: {"stage": stage, "invocations": invocations,
                   "wall_s": wall_s}
            for name, (stage, invocations, wall_s)
            in self._counters.items()
        }

    def reset_stats(self) -> None:
        """Zero every per-pass counter (the pass list itself is untouched)."""
        self._counters.clear()

