"""The pass manager: registration, cache keys and per-pass counters.

One :class:`PassManager` owns the ordered pass list of a compilation
pipeline.  It answers three questions the compile path used to answer in
three different places:

* *which passes run, in what order* — :meth:`passes` /
  :meth:`register` and the build segments (:meth:`segment`), replacing
  the hand-sequenced call sites,
* *what keys the caches use* — :meth:`build_key` concatenates the
  registered passes' contributions into the key of one function after
  one build segment, narrowed to the fields that can change it (for the
  AST passes before inlining and the IR passes, one :meth:`step_key`
  per pass that ran), and
  :meth:`canonical_key` into the engine's ``VariantCache`` key.  They are
  the only key derivations.  Registering a new configurable pass
  automatically widens every downstream key,
* *where the time goes* — every :meth:`run` and :meth:`timed` block feeds
  per-pass wall-time and invocation counters, reported through
  :meth:`stats` in the engine-cache ``stats()`` convention and surfaced by
  ``python -m repro.scenarios run --json`` and the service ``GET /stats``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.compiler.config import CompilerConfig
from repro.compiler.pipeline.passes import (
    BUILD_SEGMENTS,
    CHAINED_SEGMENTS,
    INLINE_PASS,
    STAGES,
    UNROLL_PASS,
    Pass,
    PassContext,
    _no_key,
    default_compile_passes,
)
from repro.errors import CompilationError
from repro.frontend import ast_nodes as ast


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
        what depends on it: the build segments and the canonical key plan.

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
        segments = self._cut(passes)
        inline = {p.name for p in segments["inline"]}
        misplaced = [p.name for p in passes
                     if p.reads_callees is not None and p.name not in inline]
        if misplaced:
            raise CompilationError(
                f"passes {misplaced} read callees outside the 'inline' "
                f"build segment (from {INLINE_PASS!r} up to {UNROLL_PASS!r})")
        self._passes = passes
        self._segments = segments
        self._canonical = tuple(p.cache_key for p in passes
                                if p.cache_key is not _no_key)

    @staticmethod
    def _cut(passes: List[Pass]) -> Dict[str, Tuple[Pass, ...]]:
        """The build segments of ``passes`` (see :meth:`segment`)."""
        ast_passes = [p for p in passes
                      if p.stage == "ast" and p.apply is not None]
        names = [p.name for p in ast_passes]
        unroll = (names.index(UNROLL_PASS) if UNROLL_PASS in names
                  else len(names))
        inline = (min(names.index(INLINE_PASS), unroll)
                  if INLINE_PASS in names else unroll)
        staged = {stage: tuple(p for p in passes
                               if p.stage == stage and p.apply is not None)
                  for stage in ("lower", "ir")}
        return dict(ast=tuple(ast_passes[:inline]),
                    inline=tuple(ast_passes[inline:unroll]),
                    lower=tuple(ast_passes[unroll:]) + staged["lower"],
                    ir=staged["ir"])

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
        ``reads_callees`` must land in the ``inline`` segment.  Cache keys
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

    # ------------------------------------------------------ build segments --
    def segment(self, name: str) -> Tuple[Pass, ...]:
        """The passes (markers left out) of one build segment, in order.

        See :data:`~repro.compiler.pipeline.passes.BUILD_SEGMENTS`: the AST
        stage is cut before inlining and before unrolling, and the
        lowering stage joins the last AST segment.
        """
        try:
            return self._segments[name]
        except KeyError:
            raise CompilationError(f"unknown build segment {name!r}; "
                                   f"expected one of {BUILD_SEGMENTS}") from None

    # --------------------------------------------------------- cache keys --
    def _part(self, config: CompilerConfig, registered: Pass, base: Tuple,
              function, memo: Optional[Dict[Tuple, Optional[Tuple]]] = None
              ) -> Optional[Tuple]:
        """``registered``'s contribution to the key of ``function`` after
        ``base``: its ``function_key`` on the function, or its
        ``cache_key``.  ``None`` says the pass leaves the function as it
        is (see :class:`~repro.compiler.pipeline.passes.Pass`).

        A ``function_key`` reads the configuration only through its pass's
        ``cache_key``, so ``memo`` (one per module: ``base`` names
        functions) keeps each narrowed contribution per
        ``(pass, base, cache_key)``.
        """
        if registered.function_key is None:
            return registered.cache_key(config)
        if memo is None:
            return registered.function_key(config, function)
        memo_key = (registered.name, base, registered.cache_key(config))
        try:
            return memo[memo_key]
        except KeyError:
            part = memo[memo_key] = registered.function_key(config, function)
            return part

    def build_key(self, config: CompilerConfig, segment: str, base: Tuple,
                  function, callee_keys: Tuple = (),
                  memo: Optional[Dict[Tuple, Optional[Tuple]]] = None
                  ) -> Tuple:
        """The key of one function after ``segment``: ``base`` (its key
        after the segment before, or its identity before the first) plus
        the segment's contributions.

        ``function`` is the function as the segment receives it (AST, or
        IR for the ``ir`` segment).  Each pass contributes its
        ``function_key`` on it, or its ``cache_key`` (see :meth:`_part`;
        ``memo`` keeps the narrowed ones), and ``callee_keys`` (the keys
        of the callee bodies the segment's passes read, see
        :meth:`callee_reader`) join too.

        The ``ast`` and ``ir`` segments are chains of steps, one per
        enabled pass (see :meth:`step_key`): their key here is the chain's
        key when every step changes the function.
        """
        key = base
        if segment in CHAINED_SEGMENTS:
            for registered in self.segment(segment):
                if registered.enabled(config):
                    key = self.step_key(config, registered, key, function)
            return key
        for registered in self.segment(segment):
            key += self._part(config, registered, base, function, memo) or ()
        if callee_keys:
            key += (callee_keys,)
        return key

    def step_key(self, config: CompilerConfig, registered: Pass,
                 key: Tuple, function) -> Tuple:
        """The key of one pass's step in a function's pass chain.

        The engine runs the enabled passes of a chained segment (see
        :data:`~repro.compiler.pipeline.passes.CHAINED_SEGMENTS`) one step
        each, the ``ast`` chain from the function's identity and parsed
        AST, the ``ir`` chain from its ``lower`` key and lowered IR.  A
        step's key is its input's ``key``, the pass's name and the pass's
        contribution on the input ``function``.  A step whose pass changed
        nothing hands on its input key and input, so configurations that
        differ only in passes that changed nothing share every later step.
        A pass whose contribution says it leaves the function as it is
        (``None``) changes nothing by its own word: its step key is
        ``key`` itself, and the step does not run.
        """
        part = self._part(config, registered, key, function)
        if part is None:
            return key
        return (key, registered.name) + part

    def changing_passes(self, config: CompilerConfig, segment: str,
                        base: Tuple, function,
                        memo: Optional[Dict[Tuple, Optional[Tuple]]] = None
                        ) -> Tuple[Pass, ...]:
        """The enabled passes of ``segment`` that may change ``function``
        (after ``base``, as in :meth:`build_key`): those whose
        contribution is not ``None``."""
        return tuple(
            registered for registered in self.segment(segment)
            if registered.enabled(config) and self._part(
                config, registered, base, function, memo) is not None)

    def canonical_key(self, config: CompilerConfig) -> Tuple:
        """The full-pipeline key (every registered pass's contribution)."""
        key: Tuple = ()
        for cache_key in self._canonical:
            key += cache_key(config)
        return key

    def callee_reader(self, config: CompilerConfig
                      ) -> Optional[Callable[[ast.FunctionDef], bool]]:
        """Which callee bodies (as the ``ast`` segment left them) the
        enabled ``inline``-segment passes read when they build a caller,
        or ``None`` when none reads any."""
        readers = [p.reads_callees for p in self.segment("inline")
                   if p.reads_callees is not None and p.enabled(config)]
        if not readers:
            return None
        return lambda callee: any(read(callee) for read in readers)

    def statistic_names(self, config: CompilerConfig
                        ) -> Tuple[Tuple[str, ...], frozenset]:
        """The declared counters ``config`` reports, in pass order, and
        every declared counter of the build segments.

        A declared counter is reported iff its pass runs; a function
        shared with a configuration that ran a narrowed pass (one whose
        ``function_key`` leaves it out of that function's key) may carry
        the counter when ``config`` does not run the pass.
        """
        passes = [p for name in BUILD_SEGMENTS for p in self.segment(name)
                  if p.statistic is not None]
        return (tuple(p.statistic for p in passes if p.enabled(config)),
                frozenset(p.statistic for p in passes))

    def frontend_key(self) -> Tuple[str, ...]:
        """Identity of the frontend stage, for the process-wide parse cache.

        The parse cache runs before any configuration exists, so the key is
        the *names* of the registered frontend-stage passes rather than
        config-dependent contributions: registering a custom frontend pass
        changes the key and retires every entry parsed without it — the
        same automatic widening the config-keyed caches get from
        :meth:`build_key`.
        """
        return tuple(p.name for p in self._passes if p.stage == "frontend")

    def pass_list_key(self) -> Tuple[Tuple[str, str], ...]:
        """Identity of the full registered pass list, as ``(stage, name)``.

        Namespaces the persistent analysis-cache tier
        (:mod:`repro.compiler.engine.persist`): registering or removing a
        pass changes every on-disk digest, retiring entries produced by a
        different pipeline — the cross-process analogue of the automatic key
        widening the in-memory caches get from :meth:`build_key`.
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

