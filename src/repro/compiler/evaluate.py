"""Compiled variants and the uncached reference evaluation.

A *variant* is the result of compiling the application under one
:class:`CompilerConfig`: the lowered IR plus its statically analysed ETS
properties (WCET, worst-case energy, optional security level, code size).

The search evaluates variants through
:class:`~repro.compiler.engine.EvaluationEngine`, which memoises every
stage.  :func:`evaluate_config` is the uncached reference: one
:meth:`~repro.compiler.pipeline.CompilationPipeline.build` followed by the
stock WCET/energy analysers, against which the tests check the engine bit
for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.compiler.config import CompilerConfig
from repro.compiler.passes.spm import INSTRUCTION_BYTES
from repro.compiler.pipeline import CompilationPipeline
from repro.energy.static_analyzer import EnergyAnalyzer
from repro.errors import CompilationError
from repro.frontend import ast_nodes as ast
from repro.hw.core import Core
from repro.hw.platform import Platform
from repro.ir.cfg import Program
from repro.wcet.analyzer import WCETAnalyzer

#: Optional callback scoring the security level of a compiled program.
SecurityEvaluator = Callable[[Program, str], float]


@dataclass
class Variant:
    """A compiled program together with its analysed ETS properties."""

    name: str
    config: CompilerConfig
    program: Program
    entry_function: str
    wcet_cycles: float
    wcet_time_s: float
    energy_j: float
    code_size_bytes: int
    security_level: Optional[float] = None
    pass_statistics: Dict[str, int] = field(default_factory=dict)

    # -- multi-objective helpers -------------------------------------------------
    def objectives(self) -> Tuple[float, ...]:
        """Objective vector to *minimise*: (time, energy[, insecurity])."""
        values = [self.wcet_time_s, self.energy_j]
        if self.security_level is not None:
            values.append(1.0 - self.security_level)
        return tuple(values)

    def dominates(self, other: "Variant") -> bool:
        """Pareto dominance on the objective vector (all ≤, at least one <)."""
        mine, theirs = self.objectives(), other.objectives()
        if len(mine) != len(theirs):
            raise CompilationError(
                "cannot compare variants with different objective sets")
        return (all(a <= b for a, b in zip(mine, theirs))
                and any(a < b for a, b in zip(mine, theirs)))

    def summary(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "config": self.config.short_name(),
            "wcet_cycles": self.wcet_cycles,
            "wcet_ms": self.wcet_time_s * 1e3,
            "energy_uJ": self.energy_j * 1e6,
            "code_bytes": self.code_size_bytes,
            "security": self.security_level,
        }


def evaluate_config(module: ast.SourceModule, config: CompilerConfig,
                    platform: Platform, entry_function: str,
                    core: Optional[Core] = None,
                    security_evaluator: Optional[SecurityEvaluator] = None,
                    name: Optional[str] = None) -> Variant:
    """Compile ``module`` under ``config`` and statically analyse the result.

    Uncached: the build runs every stage of a fresh
    :class:`~repro.compiler.pipeline.CompilationPipeline` and the bounds
    come from the stock analysers, so this is the reference the evaluation
    engine's cached results are checked against.
    """
    program, statistics = CompilationPipeline(platform).build(module, config)
    if entry_function not in program.functions:
        raise CompilationError(f"entry function {entry_function!r} not found")

    wcet = WCETAnalyzer(platform, core=core).analyze(
        program, entry_function, path_sensitive=config.path_sensitive)
    wcec = EnergyAnalyzer(platform, core=core).analyze(
        program, entry_function, path_sensitive=config.path_sensitive)
    security = (security_evaluator(program, entry_function)
                if security_evaluator is not None else None)
    code_size = program.total_instructions * INSTRUCTION_BYTES

    return Variant(
        name=name or config.short_name(),
        config=config,
        program=program,
        entry_function=entry_function,
        wcet_cycles=wcet.cycles,
        wcet_time_s=wcet.time_s,
        energy_j=wcec.energy_j,
        code_size_bytes=code_size,
        security_level=security,
        pass_statistics=statistics,
    )
