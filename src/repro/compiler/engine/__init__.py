"""Batched variant-evaluation engine with shared analysis caching.

This package is the single entry point for evaluating compiler
configurations during the multi-objective (energy/time/security) search.
The seed code rebuilt and re-analysed every candidate from scratch; the
engine memoises the pipeline at four stages so shared sub-structure is
computed once.  Every config key below comes from the pipeline's
``PassManager`` (``canonical_key`` / ``stage_key`` / ``key_before``):

``CompilerConfig`` ──┐
                     ▼
  [1] VariantCache ── canonical key ───────────────────────► Variant
                     │ miss
                     ▼
  [2] IrStageCache ── ``ir`` stage key (AST + IR flags, path mode)
                     │ hit: Program.clone() of the cached optimised IR
                     │ miss ▼
  [3] LoweringCache ─ ``lower`` stage key (harden/fold/inline/unroll),
                     │ plus a pre-unroll table keyed before ``unroll-loops``
                     │ hit: Program.clone() of the cached lowered IR
                     │ miss: clone module → AST passes → lower
                     ▼
      IR passes (CSE, DCE, strength reduction, peephole) on the clone
                     ▼
      backend pass (SPM allocation) on the private clone, per variant
                     ▼
  [4] AnalysisCache ─ structural program fingerprint
                     │ one StructuralCostEngine sweep fills the whole
                     │ per-function cycles/energy table per (core[, OPP]);
                     │ every further entry point, operating point or core
                     ▼ is a table lookup
              Variant (WCET, WCEC, security, code size)

Stages [2] and [3] mean configurations differing only in backend or
IR-level flags skip re-optimising or re-lowering; stage [4] means the
WCET/Energy analysers' per-function results are reused across every
variant sharing a program *and* across the coordination layer's
per-core/per-OPP ETS sweeps (cycle bounds are frequency-independent, so
DVFS sweeps reuse one cycles table).

:class:`BatchEvaluator` evaluates whole populations at once through the
engine, :meth:`EvaluationEngine.stats` reports each stage's counters, and
:mod:`~repro.compiler.engine.vectorized` supplies the numpy-vectorised
``non_dominated_sort`` / ``crowding_distance`` / ``pareto_front`` used by
both NSGA-II and the FPA optimiser (property-tested against the seed's
pure-Python implementations, which live under ``tests/`` as the oracle).
"""

from repro.compiler.engine.batch import BatchEvaluator
from repro.compiler.engine.cache import (
    PROCESS_CACHE_DEFAULT_MAX_ENTRIES,
    AnalysisCache,
    IrStageCache,
    LoweringCache,
    VariantCache,
    process_analysis_cache,
    process_analysis_cache_stats,
    process_cache_store,
    process_cache_store_stats,
    program_fingerprint,
    shared_analysis_caches,
)
from repro.compiler.engine.evaluator import ALL_TASKS_ENTRY, EvaluationEngine
from repro.compiler.engine.persist import (
    PersistentCacheStore,
    PersistError,
    key_digest,
    validate_cache_dir,
)
from repro.compiler.engine.vectorized import (
    crowding_distance,
    dominance_matrix,
    non_dominated_sort,
    objectives_matrix,
    pareto_front,
)

__all__ = [
    "ALL_TASKS_ENTRY",
    "AnalysisCache",
    "BatchEvaluator",
    "EvaluationEngine",
    "IrStageCache",
    "LoweringCache",
    "PROCESS_CACHE_DEFAULT_MAX_ENTRIES",
    "PersistError",
    "PersistentCacheStore",
    "VariantCache",
    "key_digest",
    "crowding_distance",
    "dominance_matrix",
    "non_dominated_sort",
    "objectives_matrix",
    "pareto_front",
    "process_analysis_cache",
    "process_analysis_cache_stats",
    "process_cache_store",
    "process_cache_store_stats",
    "program_fingerprint",
    "shared_analysis_caches",
    "validate_cache_dir",
]
