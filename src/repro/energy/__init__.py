"""Energy modelling and analysis.

This package covers the paper's "energy modelling challenge":

* :mod:`repro.energy.isa_model` — fitted ISA-level energy estimates for
  predictable cores (per-instruction-class costs), as in the Cortex-M0
  model of Georgiou et al.; the bounds price instructions with
  :mod:`repro.hw.price` instead,
* :mod:`repro.energy.measurements` — the data-collection step: synthetic
  measurement campaigns run on the simulator with measurement noise,
* :mod:`repro.energy.fitting` — regression-based model generation from the
  collected measurements, with accuracy metrics,
* :mod:`repro.energy.static_analyzer` — the EnergyAnalyser: static
  worst-case energy consumption (WCEC) bounds for tasks,
* :mod:`repro.energy.component_model` — coarse-grained, component-based
  models for complex architectures (the PowProfiler approach).
"""

from repro.energy.isa_model import IsaEnergyModel
from repro.energy.static_analyzer import EnergyAnalyzer, WCECResult
from repro.energy.fitting import FitReport, fit_isa_model
from repro.energy.measurements import MeasurementCampaign, MeasurementSample
from repro.energy.component_model import ComponentEnergyModel, ComponentLoad

__all__ = [
    "ComponentEnergyModel",
    "ComponentLoad",
    "EnergyAnalyzer",
    "FitReport",
    "IsaEnergyModel",
    "MeasurementCampaign",
    "MeasurementSample",
    "WCECResult",
    "fit_isa_model",
]
