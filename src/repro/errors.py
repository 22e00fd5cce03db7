"""Exception hierarchy for the TeamPlay reproduction toolchain.

Every subsystem raises a subclass of :class:`TeamPlayError` so callers can
catch toolchain-specific failures without masking genuine programming errors.
"""

from __future__ import annotations


class TeamPlayError(Exception):
    """Base class for all toolchain errors."""


class FrontendError(TeamPlayError):
    """Raised by the TeamPlay-C lexer/parser/lowering on malformed input."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"line {line}:{column}: {message}"
        super().__init__(message)


class CSLError(TeamPlayError):
    """Raised by the Contract Specification Language parser."""


class AnalysisError(TeamPlayError):
    """Raised by the WCET / energy / security analysers."""


class UnboundedLoopError(AnalysisError):
    """Raised when a loop has no statically known bound."""

    def __init__(self, function: str, detail: str = ""):
        self.function = function
        msg = f"loop without a static bound in '{function}'"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class SimulationError(TeamPlayError):
    """Raised by the instruction-set simulator."""


class CompilationError(TeamPlayError):
    """Raised by the multi-criteria optimising compiler."""


class SchedulingError(TeamPlayError):
    """Raised by the coordination layer when no feasible schedule exists."""


class PlatformError(TeamPlayError):
    """Raised for inconsistent hardware platform descriptions."""


class ProfilingError(TeamPlayError):
    """Raised by the dynamic profiler."""
