"""Batched variant-evaluation engine with shared analysis caching.

This package is the single entry point for evaluating compiler
configurations during the multi-objective (energy/time/security) search.
The seed code rebuilt and re-analysed every candidate from scratch; the
engine builds each function once per *effective* configuration (the
fields that can change it) and shares the analysis between every
variant with the same program.  Every key below comes from the
pipeline's ``PassManager`` (``canonical_key`` / ``step_key``):

``CompilerConfig`` ──┐
                     ▼
  [1] VariantCache ── canonical key ───────────────────────► Variant
                     │ miss
                     ▼
  [2] BuildCache ──── per function, one chain of steps from its name
                     │ and parsed AST, each keyed by (input key, pass,
                     │ its contribution) in its stage's table:
                     │   ast     one step per enabled AST pass (bound
                     │           inference, hardening on secret functions
                     │           only, folding, inlining keyed by the
                     │           callees it reads, unrolling keyed by the
                     │           largest unrolled bound and refolding),
                     │           run on a clone of the function
                     │   lower   one step: lowering the chain's AST,
                     │           uncloned (``lowering``)
                     │   ir      one step per enabled IR pass (CSE, DCE,
                     │           strength reduction, peephole), run on a
                     │           sharing clone (``ir_stage``)
                     │ a pass that changed nothing hands on its input
                     │ key and unit; one whose key says it cannot change
                     │ the unit does not run
                     │ (every AST, lowering and IR pass sees one function)
                     ▼
      assemble the variant's Program from the shared functions
                     ▼
      backend pass (SPM allocation) per variant, replacing what it places
      with the one placed copy kept on the function it copies
                     ▼
  [3] AnalysisCache ─ a query costs its entry's call closure; each
                     │ function's cost is memoised per (core[, OPP]) under
                     │ its fingerprint and its callees' costs, and each
                     │ program's table (keyed by its fingerprint) fills as
                     ▼ it is queried: a repeated query is a lookup
              Variant (WCET, WCEC, security, code size)

Stage [2] means a configuration re-lowers and re-optimises only the
functions it changes, and runs each pass once per distinct input;
stage [3] means the WCET/Energy analysers'
per-function results are reused across every variant sharing a function
*and* across the coordination layer's per-core/per-OPP ETS sweeps (cycle
bounds are frequency-independent, so DVFS sweeps reuse one cycles table).

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
    BuildCache,
    BuildTable,
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
    "BuildCache",
    "BuildTable",
    "EvaluationEngine",
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
