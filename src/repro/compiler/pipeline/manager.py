"""The pass manager: registration, stage-cache keys and per-pass counters.

One :class:`PassManager` owns the ordered pass list of a compilation
pipeline.  It answers three questions the compile path used to answer in
three different places:

* *which passes run, in what order* — :meth:`passes` /
  :meth:`register`, replacing the hand-sequenced call sites,
* *what keys the stage caches use* — :meth:`stage_key` /
  :meth:`key_before` / :meth:`canonical_key` concatenate the registered
  passes' cache-key contributions, so the engine's
  ``LoweringCache``/``IrStageCache``/``VariantCache`` are keyed by the pass
  list instead of ad-hoc field tuples (registering a new configurable pass
  automatically widens every downstream key),
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
    STAGES,
    Pass,
    PassContext,
    _no_key,
    default_compile_passes,
)
from repro.errors import CompilationError


class PassManager:
    """Ordered registry of :class:`Pass` objects with timing counters."""

    def __init__(self, passes: Optional[Iterable[Pass]] = None):
        """``passes=None`` installs the stock compile pass list; pass an
        explicit (possibly empty) iterable for custom pipelines — e.g. the
        complex toolchain's profiling flow, which only uses :meth:`timed`.
        """
        self._passes: List[Pass] = list(
            default_compile_passes() if passes is None else passes)
        self._check_stage_order(self._passes)
        #: name -> [stage, invocations, wall-clock seconds]
        self._counters: Dict[str, List] = {}
        #: Memoised key plans: query -> tuple of contributing cache_key
        #: callables.  Key derivation runs on every engine-cache get/put —
        #: the hottest path of a search — so the per-query pass walk
        #: (stage ranks, empty contributions) is done once per pass-list
        #: state, not per lookup.
        self._key_plans: Dict[Tuple[str, Optional[str]], Tuple] = {}

    # ----------------------------------------------------------- registry --
    @staticmethod
    def _check_stage_order(passes: List[Pass]) -> None:
        ranks = [STAGES.index(p.stage) for p in passes]
        if ranks != sorted(ranks):
            raise CompilationError(
                "pass list is not in stage order: "
                + " -> ".join(f"{p.name}({p.stage})" for p in passes))
        names = [p.name for p in passes]
        if len(set(names)) != len(names):
            raise CompilationError(f"duplicate pass names in {names}")

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
        the resulting list must still be in stage order.  Stage-cache keys
        widen automatically — any cache built from this manager *before*
        the registration keeps serving its old keys, so register passes
        before building engines.
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
        self._check_stage_order(passes)
        self._passes = passes
        self._key_plans.clear()

    # --------------------------------------------------------- cache keys --
    def _plan(self, query: Tuple[str, Optional[str]]) -> Tuple:
        """The contributing ``cache_key`` callables of one key query.

        Built once per pass-list state (``register`` invalidates): the plan
        holds only passes with a real contribution, so deriving a key costs
        one callable per *configurable* pass and nothing else.
        """
        plan = self._key_plans.get(query)
        if plan is not None:
            return plan
        kind, name = query
        if kind == "before":
            names = [p.name for p in self._passes]
            if name not in names:
                raise CompilationError(f"no registered pass named {name!r}")
            contributing = self._passes[:names.index(name)]
        elif kind == "stage":
            if name not in STAGES:
                raise CompilationError(f"unknown stage {name!r}")
            rank = STAGES.index(name)
            contributing = [p for p in self._passes
                            if STAGES.index(p.stage) <= rank]
        else:  # canonical
            contributing = self._passes
        plan = tuple(p.cache_key for p in contributing
                     if p.cache_key is not _no_key)
        self._key_plans[query] = plan
        return plan

    def key_before(self, config: CompilerConfig, pass_name: str) -> Tuple:
        """Concatenated cache-key contributions of passes before ``pass_name``."""
        key: Tuple = ()
        for cache_key in self._plan(("before", pass_name)):
            key += cache_key(config)
        return key

    def stage_key(self, config: CompilerConfig, through_stage: str) -> Tuple:
        """Concatenated contributions of every pass in stages <= ``through_stage``.

        This is the cache key of the program state *after* the named stage:
        two configurations with equal keys produce identical programs at
        that point of the pipeline.
        """
        key: Tuple = ()
        for cache_key in self._plan(("stage", through_stage)):
            key += cache_key(config)
        return key

    def canonical_key(self, config: CompilerConfig) -> Tuple:
        """The full-pipeline key (every registered pass's contribution)."""
        key: Tuple = ()
        for cache_key in self._plan(("canonical", None)):
            key += cache_key(config)
        return key

    def frontend_key(self) -> Tuple[str, ...]:
        """Identity of the frontend stage, for the process-wide parse cache.

        The parse cache runs before any configuration exists, so the key is
        the *names* of the registered frontend-stage passes rather than
        config-dependent contributions: registering a custom frontend pass
        changes the key and retires every entry parsed without it — the
        same automatic widening the config-keyed stage caches get from
        :meth:`stage_key`.
        """
        return tuple(p.name for p in self._passes if p.stage == "frontend")

    def pass_list_key(self) -> Tuple[Tuple[str, str], ...]:
        """Identity of the full registered pass list, as ``(stage, name)``.

        Namespaces the persistent analysis-cache tier
        (:mod:`repro.compiler.engine.persist`): registering or removing a
        pass changes every on-disk digest, retiring entries produced by a
        different pipeline — the cross-process analogue of the automatic key
        widening the in-memory stage caches get from :meth:`stage_key`.
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

