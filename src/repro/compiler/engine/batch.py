"""Population-at-a-time evaluation through the engine's caches.

:class:`BatchEvaluator` fronts an :class:`EvaluationEngine` for the
multi-objective optimisers: it evaluates a population of candidate
configurations serially through the engine and returns variants aligned
with the input population.  Configurations the engine keys identically are
evaluated once — the variant cache turns every repeat into a lookup.  The
evaluation service's process :class:`~repro.service.workers.WorkerPool` is
the one multi-process path: it parallelises whole jobs, not populations.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.compiler.config import CompilerConfig
from repro.compiler.engine.evaluator import EvaluationEngine
from repro.compiler.evaluate import Variant


class BatchEvaluator:
    """Evaluates whole populations of configurations at once."""

    def __init__(self, engine: EvaluationEngine,
                 config_transform: Optional[
                     Callable[[CompilerConfig], CompilerConfig]] = None):
        self.engine = engine
        #: Applied to every configuration before evaluation (so
        #: configurations the transform collapses are evaluated once).  Lets
        #: a driver pin evaluation-mode flags — e.g. forcing
        #: ``path_sensitive`` — without teaching the optimisers about them.
        self.config_transform = config_transform

    # -- call-compatible with the optimisers' per-config evaluator -------------
    def __call__(self, config: CompilerConfig) -> Variant:
        if self.config_transform is not None:
            config = self.config_transform(config)
        return self.engine.evaluate(config)

    def evaluate(self, configs: Sequence[CompilerConfig]) -> List[Variant]:
        """One variant per configuration, aligned with the input order."""
        if self.config_transform is not None:
            configs = [self.config_transform(config) for config in configs]
        return [self.engine.evaluate(config) for config in configs]
