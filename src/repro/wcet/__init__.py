"""Worst-Case Execution Time (WCET) analysis.

This package reproduces the role of the aiT analyser in the TeamPlay
toolchain for predictable architectures: given the IR of a task and the
platform's timing model, it derives a safe upper bound on execution time.

* :mod:`repro.wcet.loopbounds` — loop-bound inference on the TeamPlay-C AST
  (counted ``for`` loops) complementing ``loopbound`` pragmas,
* :mod:`repro.wcet.structural` — the structural cost engine shared with the
  worst-case energy analysis,
* :mod:`repro.wcet.analyzer` — the user-facing :class:`WCETAnalyzer`.
"""

from repro.wcet.analyzer import WCETAnalyzer, WCETResult
from repro.wcet.loopbounds import infer_loop_bounds
from repro.wcet.structural import StructuralCostEngine

__all__ = [
    "StructuralCostEngine",
    "WCETAnalyzer",
    "WCETResult",
    "infer_loop_bounds",
]
