"""Synthetic measurement campaigns.

On the physical boards, energy model generation starts with a data-collection
phase: instrumented benchmark kernels are executed while an external power
monitor samples the supply rails.  Our substitute runs the benchmark kernels
on the simulator, uses the reference hardware tables as "ground truth", and
perturbs the readings with multiplicative Gaussian noise to emulate a real
measurement chain.  The resulting samples are what the regression in
:mod:`repro.energy.fitting` consumes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.hw.core import Core
from repro.hw.platform import Platform
from repro.ir.cfg import Program
from repro.sim.machine import Simulator


@dataclass
class MeasurementSample:
    """One measured benchmark execution."""

    benchmark: str
    class_counts: Dict[str, float]
    measured_energy_j: float
    measured_time_s: float
    true_energy_j: float


@dataclass
class MeasurementCampaign:
    """A collection of measurement samples for model fitting."""

    platform_name: str
    samples: List[MeasurementSample] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.samples)


def _class_counts(events) -> Dict[str, float]:
    counts: Dict[str, float] = {}
    for event in events:
        counts[event.instruction_class] = counts.get(event.instruction_class, 0) + 1
    return counts


def run_campaign(program: Program, platform: Platform,
                 benchmarks: Sequence[Tuple[str, str, Sequence[int]]],
                 core: Optional[Core] = None,
                 noise_std: float = 0.03,
                 repetitions: int = 3,
                 seed: int = 0) -> MeasurementCampaign:
    """Execute ``benchmarks`` and collect noisy energy measurements.

    ``benchmarks`` is a sequence of ``(label, function_name, args)`` tuples.
    Each benchmark is executed ``repetitions`` times; every execution yields
    one sample whose measured energy is the simulator's energy perturbed by
    multiplicative Gaussian noise of relative standard deviation
    ``noise_std``.
    """
    if noise_std < 0:
        raise ValueError("noise_std must be non-negative")
    rng = random.Random(seed)
    campaign = MeasurementCampaign(platform_name=platform.name)
    simulator = Simulator(program, platform, core=core, record_trace=True)
    for label, function_name, args in benchmarks:
        for _ in range(repetitions):
            result = simulator.run(function_name, args)
            noise = rng.gauss(1.0, noise_std) if noise_std > 0 else 1.0
            campaign.samples.append(MeasurementSample(
                benchmark=label,
                class_counts=_class_counts(result.events),
                measured_energy_j=result.energy_j * max(noise, 0.0),
                measured_time_s=result.time_s,
                true_energy_j=result.energy_j,
            ))
    return campaign
