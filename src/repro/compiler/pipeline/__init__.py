"""Unified compilation pipeline: explicit passes, one manager, shared stats.

Before this package, the compile path was hand-sequenced in three places
(the multi-criteria driver, the predictable toolchain and the evaluation
engine), and stage-cache keys were ad-hoc tuples maintained next to each
call site.  The pipeline makes the path declarative:

``PassManager``
    the ordered registry of :class:`Pass` objects — name, stage, enablement
    predicate, cache-key contribution — plus per-pass wall-time/invocation
    counters (``stats()``, engine-cache convention) and the stage-key
    derivation the engine caches are keyed by.

``CompilationPipeline``
    binds a platform to a manager and runs the stages: ``parse`` →
    ``pre_unroll`` → ``unroll_and_lower`` → ``ir_passes`` →
    ``backend_passes`` (or ``build`` for the uncached chain).

Every pipeline consumer surfaces the same stats upward: toolchains expose
``pipeline_stats()``, the scenario runner attaches them to each
:class:`~repro.scenarios.spec.ScenarioResult`, ``python -m repro.scenarios
run --json`` prints them, and the evaluation service sums them across jobs
(:func:`repro.counters.sum_counters`) under ``GET /stats``.
"""

from repro.compiler.pipeline.compile import CompilationPipeline
from repro.compiler.pipeline.manager import PassManager
from repro.compiler.pipeline.passes import (
    ANALYSIS_PASS,
    PARSE_PASS,
    STAGES,
    Pass,
    PassContext,
    default_compile_passes,
)
from repro.compiler.pipeline.profile import profile_rows, render_profile

__all__ = [
    "ANALYSIS_PASS",
    "CompilationPipeline",
    "PARSE_PASS",
    "Pass",
    "PassContext",
    "PassManager",
    "STAGES",
    "default_compile_passes",
    "profile_rows",
    "render_profile",
]
