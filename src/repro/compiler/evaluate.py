"""Compiled variants.

A *variant* is the result of compiling the application under one
:class:`CompilerConfig`: the lowered IR plus its statically analysed ETS
properties (WCET, worst-case energy, optional security level, code size).

The search evaluates variants through
:class:`~repro.compiler.engine.EvaluationEngine`, which memoises every
stage; the uncached reference it is checked against bit for bit
(``evaluate_config``) is kept with the test oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.compiler.config import CompilerConfig
from repro.errors import CompilationError
from repro.ir.cfg import Program

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
