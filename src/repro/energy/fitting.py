"""Regression-based energy model generation.

Given a measurement campaign (instruction-class counts and measured energy per
benchmark run), fit per-class energy coefficients by least squares.  This is
the configurable, cost-effective modelling methodology the paper calls for:
no micro-architectural detail is needed beyond the instruction classes, yet
the fitted model predicts whole-program energy accurately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import AnalysisError
from repro.energy.isa_model import IsaEnergyModel
from repro.energy.measurements import MeasurementCampaign
from repro.hw.core import INSTRUCTION_CLASSES
from repro.hw.dvfs import OperatingPoint


@dataclass
class FitReport:
    """Quality report of a fitted energy model."""

    model: IsaEnergyModel
    coefficients: Dict[str, float]
    mean_absolute_percentage_error: float
    max_absolute_percentage_error: float
    sample_count: int
    per_sample_error: List[float] = field(default_factory=list)


def _design_matrix(campaign: MeasurementCampaign,
                   classes: Sequence[str]) -> np.ndarray:
    matrix = np.zeros((len(campaign.samples), len(classes)))
    for row, sample in enumerate(campaign.samples):
        for col, cls in enumerate(classes):
            matrix[row, col] = sample.class_counts.get(cls, 0.0)
    return matrix


def fit_isa_model(campaign: MeasurementCampaign,
                  nominal_opp: OperatingPoint,
                  model_name: Optional[str] = None,
                  static_power_w: float = 0.0) -> FitReport:
    """Fit per-instruction-class coefficients by non-negative least squares.

    Plain least squares is solved first; any negative coefficient is clamped
    to zero and the remaining columns re-fitted, which is a simple but robust
    approximation of non-negative least squares adequate for the well-
    conditioned design matrices produced by the benchmark campaigns.
    """
    if len(campaign.samples) < 3:
        raise AnalysisError("need at least three samples to fit an energy model")

    classes = [cls for cls in INSTRUCTION_CLASSES
               if any(sample.class_counts.get(cls, 0.0) > 0
                      for sample in campaign.samples)]
    if not classes:
        raise AnalysisError("measurement campaign contains no instructions")

    matrix = _design_matrix(campaign, classes)
    target = np.array([sample.measured_energy_j for sample in campaign.samples])

    active = list(range(len(classes)))
    coefficients = np.zeros(len(classes))
    for _ in range(len(classes)):
        if not active:
            break
        sub = matrix[:, active]
        solution, *_ = np.linalg.lstsq(sub, target, rcond=None)
        negative = [active[i] for i, value in enumerate(solution) if value < 0]
        for index, value in zip(active, solution):
            coefficients[index] = max(value, 0.0)
        if not negative:
            break
        active = [i for i in active if i not in negative]

    coefficient_map = {cls: float(coefficients[i]) for i, cls in enumerate(classes)}
    model = IsaEnergyModel.from_coefficients(
        model_name or f"{campaign.platform_name}-fitted", coefficient_map,
        nominal_opp, static_power_w=static_power_w)

    errors = []
    for sample in campaign.samples:
        predicted = model.estimate_from_counts(sample.class_counts)
        truth = sample.true_energy_j
        if truth > 0:
            errors.append(abs(predicted - truth) / truth)
    if not errors:
        raise AnalysisError("cannot evaluate fit quality: zero-energy samples")

    return FitReport(
        model=model,
        coefficients=coefficient_map,
        mean_absolute_percentage_error=float(np.mean(errors)),
        max_absolute_percentage_error=float(np.max(errors)),
        sample_count=len(campaign.samples),
        per_sample_error=[float(e) for e in errors],
    )


def cross_validate(campaign: MeasurementCampaign,
                   nominal_opp: OperatingPoint,
                   folds: int = 3,
                   static_power_w: float = 0.0) -> List[float]:
    """Leave-out cross-validation; returns the per-fold MAPE values."""
    if folds < 2:
        raise ValueError("need at least two folds")
    samples = campaign.samples
    if len(samples) < folds:
        raise AnalysisError("not enough samples for the requested folds")
    errors: List[float] = []
    for fold in range(folds):
        train = MeasurementCampaign(
            campaign.platform_name,
            [s for i, s in enumerate(samples) if i % folds != fold])
        test = [s for i, s in enumerate(samples) if i % folds == fold]
        if len(train.samples) < 3 or not test:
            continue
        report = fit_isa_model(train, nominal_opp, static_power_w=static_power_w)
        fold_errors = []
        for sample in test:
            predicted = report.model.estimate_from_counts(sample.class_counts)
            if sample.true_energy_j > 0:
                fold_errors.append(
                    abs(predicted - sample.true_energy_j) / sample.true_energy_j)
        if fold_errors:
            errors.append(float(np.mean(fold_errors)))
    return errors
