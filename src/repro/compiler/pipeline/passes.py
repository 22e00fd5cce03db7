"""Declarative pass objects of the compilation pipeline.

A :class:`Pass` is one named, registered step of the compile path: it knows
its pipeline *stage*, whether a given :class:`CompilerConfig` enables it,
which configuration fields it consumes (its *cache-key contribution* — the
basis of the engine's cache keys), and how to apply itself to a
:class:`PassContext`.  :func:`default_compile_passes` builds the stock pass
list, wiring the existing implementations in
:mod:`repro.compiler.passes`, :mod:`repro.frontend.lowering`,
:mod:`repro.security.transforms` and :mod:`repro.wcet.loopbounds` into the
declarative pipeline — the pass functions themselves are unchanged, so the
pipeline produces bit-for-bit the programs the hand-sequenced call sites
produced.

Two registered passes are *markers*: ``parse`` and ``analysis`` have no
``apply`` of their own — parsing happens before a module exists and the
WCET/WCEC queries run inside the evaluation engine's caches — but they are
declared in the pass list so the pipeline's stage ordering is complete and
their wall-time/invocation counters live in the same ``stats()`` table as
every other pass (their owners time them through
:meth:`PassManager.timed`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Optional, Tuple

from repro.compiler.config import CompilerConfig
from repro.compiler.passes.ast_passes import (
    fold_constants,
    folds_anything,
    inline_simple_functions,
    is_inlinable,
    largest_unrollable_bound,
    unroll_loops,
)
from repro.compiler.passes.ir_passes import (
    eliminate_common_subexpressions,
    eliminate_dead_code,
    peephole_optimize,
    strength_reduce,
)
from repro.compiler.passes.spm import allocate_scratchpad
from repro.frontend import ast_nodes as ast
from repro.frontend.lowering import lower_module
from repro.hw.platform import Platform
from repro.ir.cfg import Program
from repro.security.transforms import harden_secret_functions
from repro.wcet.loopbounds import infer_loop_bounds

#: Pipeline stages in execution order.  ``frontend`` covers parsing,
#: ``ast`` the source-level passes, ``lower`` the IR generation, ``ir`` the
#: platform-independent IR passes, ``backend`` the platform-dependent ones
#: (scratchpad allocation), ``analysis`` the static WCET/WCEC queries.
STAGES = ("frontend", "ast", "lower", "ir", "backend", "analysis")

#: The passes a callee-reading pass must lie between (see
#: :class:`Pass`), and the folding pass that re-runs after unrolling (see
#: :func:`refold_after_unrolling`).
INLINE_PASS = "inline-simple-functions"
UNROLL_PASS = "unroll-loops"
FOLD_PASS = "constant-folding"


def _always(config: CompilerConfig) -> bool:
    return True


def _no_key(config: CompilerConfig) -> Tuple:
    return ()


@dataclass
class PassContext:
    """Mutable state threaded through the passes of one build.

    AST-stage passes read and replace ``module``; the lowering pass fills
    ``program``; IR/backend passes mutate ``program`` in place.  Every pass
    records its counters under its statistic name in ``statistics`` (the
    dict that ends up as ``Variant.pass_statistics``).
    """

    config: CompilerConfig
    platform: Optional[Platform] = None
    module: Optional[ast.SourceModule] = None
    program: Optional[Program] = None
    statistics: Dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class Pass:
    """One named, registered step of the compilation pipeline.

    ``cache_key`` returns the tuple of configuration fields this pass
    consumes; the :class:`~repro.compiler.pipeline.manager.PassManager`
    concatenates the contributions of the registered pass list into the
    engine's cache keys, so registering a new configurable pass
    automatically widens the keys of every downstream cache stage.
    ``apply`` may be ``None`` for marker passes timed by their owner (see
    the module docstring).

    The engine builds one function at a time, as one chain of cached
    steps (see :meth:`~repro.compiler.pipeline.PassManager.step_key`):
    an AST, lowering or IR pass sees a module or program holding one
    function, and its counters are summed over functions; ``statistic``
    names the one it reports.  ``function_key`` narrows the pass's
    contribution to one function's step key, given the function as the
    step receives it (default: ``cache_key``), reading the configuration
    only through ``cache_key``; a ``function_key`` of ``None`` says the
    pass leaves that function as it is, so the engine does not run it
    there.  ``reads_callees`` marks a pass from inlining up to unrolling
    that also reads the bodies of the callees it accepts, each as its own
    chain reached the pass, and changes a function only by what it
    reads: their keys are its contribution, and with none read it does
    not run.

    An AST pass counts as having changed a function iff a counter it
    reported grew: such a pass must count every rewrite it makes (one
    with no ``statistic`` always counts as changed).
    """

    name: str
    stage: str
    apply: Optional[Callable[[PassContext], None]] = None
    enabled: Callable[[CompilerConfig], bool] = _always
    cache_key: Callable[[CompilerConfig], Tuple] = _no_key
    statistic: Optional[str] = None
    function_key: Optional[
        Callable[[CompilerConfig, ast.FunctionDef], Optional[Tuple]]] = None
    reads_callees: Optional[Callable[[ast.FunctionDef], bool]] = None

    def __post_init__(self):
        if self.stage not in STAGES:
            raise ValueError(
                f"pass {self.name!r}: unknown stage {self.stage!r}; "
                f"expected one of {STAGES}")


# ---------------------------------------------------------------------------
# Stock pass implementations (thin adapters over the existing pass functions)
# ---------------------------------------------------------------------------
def _infer_loop_bounds(ctx: PassContext) -> None:
    infer_loop_bounds(ctx.module)


def _harden_security(ctx: PassContext) -> None:
    ctx.statistics["hardened_branches"] = harden_secret_functions(
        ctx.module).transformed_count


def _fold_constants(ctx: PassContext) -> None:
    # Accumulates: the pass runs again after unrolling (see
    # `refold_after_unrolling`), and both rounds report one counter.
    ctx.statistics["constant_folds"] = (
        ctx.statistics.get("constant_folds", 0) + fold_constants(ctx.module))


def _inline_simple_functions(ctx: PassContext) -> None:
    ctx.statistics["inlined_calls"] = inline_simple_functions(ctx.module)


def _unroll_loops(ctx: PassContext) -> None:
    ctx.statistics["unrolled_loops"] = unroll_loops(
        ctx.module, ctx.config.unroll_limit)


def _lower_to_ir(ctx: PassContext) -> None:
    ctx.program = lower_module(ctx.module)


def _eliminate_common_subexpressions(ctx: PassContext) -> None:
    ctx.statistics["cse_replacements"] = (
        eliminate_common_subexpressions(ctx.program))


def _eliminate_dead_code(ctx: PassContext) -> None:
    ctx.statistics["dead_instructions"] = eliminate_dead_code(ctx.program)


def _strength_reduce(ctx: PassContext) -> None:
    ctx.statistics["strength_reductions"] = strength_reduce(ctx.program)


def _peephole_optimize(ctx: PassContext) -> None:
    ctx.statistics["peephole_rewrites"] = peephole_optimize(ctx.program)


def _allocate_scratchpad(ctx: PassContext) -> None:
    allocation = allocate_scratchpad(ctx.program, ctx.platform)
    ctx.statistics["spm_functions"] = len(allocation.placed_functions)


def _fold_function_key(config: CompilerConfig,
                       function: ast.FunctionDef) -> Optional[Tuple]:
    """``None`` when folding leaves ``function`` as it is."""
    return (config.constant_folding,) if folds_anything(function) else None


def _unroll_function_key(config: CompilerConfig,
                         function: ast.FunctionDef) -> Optional[Tuple]:
    """Limits that unroll the same loops of ``function`` give equal code:
    the largest bound a limit unrolls is the whole key, ``None`` when it
    unrolls no loop."""
    bound = largest_unrollable_bound(function, config.unroll_limit)
    return (bound,) if bound else None


def refold_after_unrolling(fold: Pass, unroll: Pass) -> Pass:
    """The folding round after unrolling, the one place that says it runs.

    Unrolling exposes constant-index expressions (and inlining may have
    left folds behind), so the folding pass runs again right after
    unrolling when both are enabled: the same pass, under the same name
    and key, as one more step of the AST chain, which the pass manager
    places after unrolling (see
    :meth:`~repro.compiler.pipeline.PassManager.steps`).  Like any fold
    step it does not run where nothing folds.
    """
    return replace(fold, enabled=lambda config: (fold.enabled(config)
                                                 and unroll.enabled(config)))


#: Names of the externally-driven marker passes.
PARSE_PASS = "parse"
ANALYSIS_PASS = "analysis"
PATH_FEASIBILITY_PASS = "path-feasibility"


def default_compile_passes() -> Tuple[Pass, ...]:
    """The stock pass list, in execution order.

    Loop-bound inference and the pre-unroll AST passes (hardening, folding,
    inlining), unrolling (followed by a second folding round when both are
    enabled, see :func:`refold_after_unrolling`), lowering, the
    platform-independent IR
    passes (CSE before DCE so downgraded copies can turn dead, strength
    reduction, peephole cleanups last), and scratchpad allocation after all
    of them.
    """
    return (
        Pass(PARSE_PASS, "frontend"),
        Pass("loop-bound-inference", "ast", _infer_loop_bounds),
        # Hardening rewrites only functions with a ``secret`` pragma, so
        # its flag enters no other function's build key.
        Pass("harden-security", "ast", _harden_security,
             enabled=lambda config: config.harden_security,
             cache_key=lambda config: (config.harden_security,),
             statistic="hardened_branches",
             function_key=lambda config, function: (
                 (config.harden_security,)
                 if function.pragmas.get("secret") else None)),
        Pass(FOLD_PASS, "ast", _fold_constants,
             enabled=lambda config: config.constant_folding,
             cache_key=lambda config: (config.constant_folding,),
             statistic="constant_folds",
             function_key=_fold_function_key),
        # Inlining changes only a function that calls an inlinable one:
        # the keys of the callee bodies it reads are its whole key.
        Pass(INLINE_PASS, "ast", _inline_simple_functions,
             enabled=lambda config: config.inline_simple_functions,
             cache_key=lambda config: (config.inline_simple_functions,),
             statistic="inlined_calls",
             function_key=lambda config, function: (),
             reads_callees=is_inlinable),
        Pass(UNROLL_PASS, "ast", _unroll_loops,
             enabled=lambda config: bool(config.unroll_limit),
             cache_key=lambda config: (config.unroll_limit,),
             statistic="unrolled_loops",
             function_key=_unroll_function_key),
        Pass("lower-to-ir", "lower", _lower_to_ir),
        Pass("common-subexpression-elimination", "ir",
             _eliminate_common_subexpressions,
             enabled=lambda config: config.enable_cse,
             cache_key=lambda config: (config.enable_cse,),
             statistic="cse_replacements"),
        Pass("dead-code-elimination", "ir", _eliminate_dead_code,
             enabled=lambda config: config.dead_code_elimination,
             cache_key=lambda config: (config.dead_code_elimination,),
             statistic="dead_instructions"),
        Pass("strength-reduction", "ir", _strength_reduce,
             enabled=lambda config: config.strength_reduction,
             cache_key=lambda config: (config.strength_reduction,),
             statistic="strength_reductions"),
        Pass("peephole", "ir", _peephole_optimize,
             enabled=lambda config: config.enable_peephole,
             cache_key=lambda config: (config.enable_peephole,),
             statistic="peephole_rewrites"),
        # Marker: path-sensitive analysis transforms nothing, so its flag
        # enters no build key; it widens the canonical key, so variants
        # analysed in different modes are distinct, and the analysis cache
        # keys path-sensitive tables apart (the engine runs the pruning
        # inside its analysis caches and reports counters through
        # `pipeline_stats()`).
        Pass(PATH_FEASIBILITY_PASS, "ir",
             enabled=lambda config: config.path_sensitive,
             cache_key=lambda config: (config.path_sensitive,)),
        Pass("spm-allocation", "backend", _allocate_scratchpad,
             enabled=lambda config: config.spm_allocation,
             cache_key=lambda config: (config.spm_allocation,)),
        Pass(ANALYSIS_PASS, "analysis"),
    )
