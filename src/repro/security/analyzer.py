"""The SecurityAnalyser: quantifying side-channel leakage of tasks.

A task is executed on the simulator for several *secret classes* (for example
key bit = 0 vs key bit = 1, or a set of candidate PINs), each with many random
public inputs.  Three observables are scored with the indiscernibility
metrics: execution time (cycles), total dynamic energy, and the power trace
(point-wise t-test).  The task's security level is the worst of the three —
an attacker only needs one channel.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import AnalysisError
from repro.hw.core import Core
from repro.hw.platform import Platform
from repro.ir.cfg import Program
from repro.security.metrics import (
    indiscernibility_score,
    leakage_from_t,
    trace_t_statistics,
)
from repro.sim.machine import Simulator

#: Builds the argument list for one run given (secret value, rng).
ArgumentBuilder = Callable[[int, random.Random], Sequence[int]]


@dataclass
class SecurityReport:
    """Leakage assessment of one task."""

    function: str
    secret_classes: List[int]
    samples_per_class: int
    timing_score: float
    energy_score: float
    trace_score: float
    observations: Dict[int, Dict[str, List[float]]] = field(default_factory=dict)

    @property
    def security_level(self) -> float:
        """Overall level in [0, 1]; 1 = indistinguishable on every channel."""
        return min(self.timing_score, self.energy_score, self.trace_score)

    @property
    def leaks(self) -> bool:
        return self.security_level < 0.8

    def summary(self) -> Dict[str, float]:
        return {
            "timing": self.timing_score,
            "energy": self.energy_score,
            "trace": self.trace_score,
            "level": self.security_level,
        }


class SecurityAnalyzer:
    """Executes tasks under different secrets and scores the observables."""

    def __init__(self, platform: Platform, core: Optional[Core] = None,
                 samples_per_class: int = 12,
                 trace_bucket_cycles: int = 32,
                 seed: int = 2023):
        self.platform = platform
        self.core = core
        self.samples_per_class = samples_per_class
        self.trace_bucket_cycles = trace_bucket_cycles
        self.seed = seed

    # -- main entry point --------------------------------------------------------
    def analyze(self, program: Program, function_name: str,
                secret_classes: Sequence[int],
                argument_builder: ArgumentBuilder,
                samples_per_class: Optional[int] = None) -> SecurityReport:
        """Score the leakage of ``function_name`` across ``secret_classes``."""
        if len(secret_classes) < 2:
            raise AnalysisError("need at least two secret classes to compare")
        samples = samples_per_class or self.samples_per_class
        simulator = Simulator(program, self.platform, core=self.core,
                              record_trace=True)

        timing: Dict[int, List[float]] = {}
        energy: Dict[int, List[float]] = {}
        traces: Dict[int, List[List[float]]] = {}
        observations: Dict[int, Dict[str, List[float]]] = {}

        for secret in secret_classes:
            # The same public-input sequence is replayed for every secret
            # class so that any distinguishability comes from the secret, not
            # from the sampling of the public inputs.
            rng = random.Random(self.seed)
            timing[secret] = []
            energy[secret] = []
            traces[secret] = []
            for _ in range(samples):
                args = list(argument_builder(secret, rng))
                result = simulator.run(function_name, args)
                timing[secret].append(float(result.cycles))
                energy[secret].append(result.dynamic_energy_j)
                traces[secret].append(
                    result.power_trace(self.trace_bucket_cycles))
            observations[secret] = {"cycles": timing[secret],
                                    "energy_j": energy[secret]}

        timing_score = indiscernibility_score(timing)
        energy_score = indiscernibility_score(energy)
        trace_score = self._trace_score(traces)

        return SecurityReport(
            function=function_name,
            secret_classes=list(secret_classes),
            samples_per_class=samples,
            timing_score=timing_score,
            energy_score=energy_score,
            trace_score=trace_score,
            observations=observations,
        )

    def analyze_task(self, program: Program, function_name: str,
                     secret_classes: Sequence[int] = (0, 1),
                     public_range: int = 1 << 16,
                     samples_per_class: Optional[int] = None) -> SecurityReport:
        """Analyse a task using its ``secret`` pragma to place the secret.

        Non-secret parameters receive uniformly random public values in
        ``[0, public_range)``; every parameter named in the function's
        ``secret`` pragma receives the class value under test.
        """
        function = program.function(function_name)
        if not function.secret_params:
            raise AnalysisError(
                f"function {function_name!r} has no secret parameters; "
                f"annotate it with '#pragma teamplay secret(...)'")
        secret_positions = [i for i, name in enumerate(function.params)
                            if name in function.secret_params]

        def build(secret: int, rng: random.Random) -> List[int]:
            args = [rng.randrange(public_range) for _ in function.params]
            for position in secret_positions:
                args[position] = secret
            return args

        return self.analyze(program, function_name, secret_classes, build,
                            samples_per_class)

    # -- helpers ---------------------------------------------------------------------
    def _trace_score(self, traces: Dict[int, List[List[float]]]) -> float:
        labels = list(traces)
        worst = 0.0
        for i, label_a in enumerate(labels):
            for label_b in labels[i + 1:]:
                stats = trace_t_statistics(traces[label_a], traces[label_b])
                if not stats:
                    continue
                worst = max(worst, max(leakage_from_t(t) for t in stats))
        return 1.0 - worst
