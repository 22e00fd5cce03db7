"""Fitted ISA-level energy models for predictable cores.

The model assigns a dynamic energy cost to each instruction class and a
static (leakage) power.  It is built from coefficients fitted to
measurements by :mod:`repro.energy.fitting`, which fold memory-access energy
and switching overhead into the per-class costs.  It is an *estimate*, not
a bound: the static analysers bound energy with the platform's own price
(:func:`repro.hw.price.worst_price`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from repro.errors import AnalysisError
from repro.hw.core import INSTRUCTION_CLASSES
from repro.hw.dvfs import OperatingPoint


@dataclass
class IsaEnergyModel:
    """Fitted energy characterisation of a predictable core.

    All energies are joules at the model's nominal operating point; scaling to
    other operating points follows the usual ``V^2`` rule for dynamic energy.
    """

    name: str
    per_class_j: Dict[str, float]
    static_power_w: float
    nominal_opp: OperatingPoint

    def __post_init__(self):
        missing = [cls for cls in INSTRUCTION_CLASSES if cls not in self.per_class_j]
        if missing:
            raise AnalysisError(f"energy model {self.name!r} missing classes {missing}")

    # -- constructors ---------------------------------------------------------
    @classmethod
    def from_coefficients(cls, name: str, coefficients: Mapping[str, float],
                          nominal_opp: OperatingPoint,
                          static_power_w: float = 0.0) -> "IsaEnergyModel":
        """Build a model from fitted per-class coefficients (negative ones
        clamp to zero)."""
        per_class = {cls: max(0.0, float(coefficients.get(cls, 0.0)))
                     for cls in INSTRUCTION_CLASSES}
        return cls(name=name, per_class_j=per_class,
                   static_power_w=static_power_w, nominal_opp=nominal_opp)

    # -- evaluation ---------------------------------------------------------------
    def estimate_from_counts(self, class_counts: Mapping[str, float],
                             opp: Optional[OperatingPoint] = None,
                             time_s: float = 0.0) -> float:
        """Energy estimate from instruction-class execution counts.

        This is the quantity the regression-based model fitting predicts; the
        optional ``time_s`` adds the static-energy contribution.
        """
        dynamic = sum(self.per_class_j.get(cls, 0.0) * count
                      for cls, count in class_counts.items())
        dynamic *= (opp or self.nominal_opp).dynamic_scale(self.nominal_opp)
        return dynamic + self.static_power(opp) * time_s

    def static_power(self, opp: Optional[OperatingPoint] = None) -> float:
        opp = opp or self.nominal_opp
        return self.static_power_w * opp.static_power_scale(self.nominal_opp)
