"""The multi-criteria optimising compiler (WCC stand-in).

The compiler applies source- and IR-level optimisations under the control of
a :class:`~repro.compiler.config.CompilerConfig`, evaluates each candidate
configuration with the static WCET, energy and (optionally) security
analysers, and searches the configuration space with multi-objective
optimisers — the Flower Pollination Algorithm used by WCC (Jadhav & Falk,
SCOPES'19) and an NSGA-II baseline — to produce a Pareto front of compiled
variants trading execution time, energy and security.

The compile path itself is declarative: :mod:`repro.compiler.pipeline`
registers every pass (parse → AST → lower → IR → backend → analysis) with a
:class:`~repro.compiler.pipeline.PassManager` that derives the engine's
cache keys from the pass list and reports per-pass wall-time/
invocation counters.  All evaluation is served by the batched engine in
:mod:`repro.compiler.engine`: variant, per-function build and analysis
caches plus numpy-vectorised Pareto machinery shared by both optimisers.
"""

from repro.compiler.config import CompilerConfig
from repro.compiler.evaluate import Variant
from repro.compiler.driver import MultiCriteriaCompiler, ParetoFront
from repro.compiler.engine import (
    AnalysisCache,
    BatchEvaluator,
    EvaluationEngine,
    VariantCache,
)
from repro.compiler.fpa import FlowerPollinationOptimizer
from repro.compiler.nsga2 import Nsga2Optimizer
from repro.compiler.pipeline import CompilationPipeline, Pass, PassManager

__all__ = [
    "AnalysisCache",
    "BatchEvaluator",
    "CompilationPipeline",
    "CompilerConfig",
    "EvaluationEngine",
    "FlowerPollinationOptimizer",
    "MultiCriteriaCompiler",
    "Nsga2Optimizer",
    "ParetoFront",
    "Pass",
    "PassManager",
    "Variant",
    "VariantCache",
]
