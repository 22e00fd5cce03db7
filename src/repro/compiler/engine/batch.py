"""Population-at-a-time evaluation with optional process parallelism.

:class:`BatchEvaluator` fronts an :class:`EvaluationEngine` for the
multi-objective optimisers: it deduplicates a population of candidate
configurations, evaluates the missing ones — serially through the engine's
caches, or fanned out over a ``concurrent.futures`` process pool — and
returns variants aligned with the input population.

The parallel path is strictly opt-in and falls back to serial evaluation
whenever it cannot apply:

* a security evaluator is attached (closures don't pickle),
* the platform offers fewer than two workers,
* the pool cannot be created or a worker fails (restricted sandboxes).

Workers re-evaluate configurations from scratch (caches are per-process), so
parallel results are bit-for-bit identical to serial ones — a property the
test suite asserts.  On a multi-core host the pool wins on cold populations;
on warm caches the serial path is faster because almost everything hits.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.compiler.config import CompilerConfig
from repro.compiler.engine.evaluator import EvaluationEngine
from repro.compiler.evaluate import Variant

#: Payload handed to pool workers: everything needed to rebuild the pipeline.
_WorkerPayload = Tuple[object, object, Tuple[str, ...], Optional[str],
                       Optional[str], bool, CompilerConfig]


def _evaluate_in_worker(payload: _WorkerPayload) -> Variant:
    """Top-level worker entry point (must be picklable)."""
    module, platform, entries, core_name, opp_label, aggregate, config = payload
    core = None
    if core_name is not None:
        core = next(c for c in platform.cores if c.name == core_name)
    opp = None
    if core is not None and opp_label is not None:
        opp = next(o for o in core.operating_points if o.label == opp_label)
    engine = EvaluationEngine(module, platform, entries, core=core, opp=opp,
                              aggregate=aggregate)
    return engine.evaluate(config)


class BatchEvaluator:
    """Evaluates whole populations of configurations at once."""

    def __init__(self, engine: EvaluationEngine, parallel: bool = False,
                 max_workers: Optional[int] = None,
                 config_transform: Optional[
                     Callable[[CompilerConfig], CompilerConfig]] = None):
        self.engine = engine
        self.parallel = parallel
        self.max_workers = max_workers
        #: Applied to every configuration before evaluation (and before
        #: deduplication, so configurations the transform collapses are
        #: evaluated once).  Lets a driver pin evaluation-mode flags — e.g.
        #: forcing ``path_sensitive`` — without teaching the optimisers
        #: about them.
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
        # Deduplicate by the engine's own variant-cache key, so the batch
        # merges and splits configurations exactly as the engine caches do.
        variants = self.engine.variants
        pending: Dict[tuple, CompilerConfig] = {}
        for config in configs:
            key = variants.key(config)
            if key not in pending and not variants.has_key(key):
                pending[key] = config

        if pending and self.parallel and self._parallel_applicable():
            self._evaluate_parallel(list(pending.values()))
        return [self.engine.evaluate(config) for config in configs]

    # -- parallel path ---------------------------------------------------------
    def _parallel_applicable(self) -> bool:
        if self.engine.security_evaluator is not None:
            return False
        workers = self.max_workers or os.cpu_count() or 1
        return workers >= 2

    def _evaluate_parallel(self, configs: List[CompilerConfig]) -> None:
        """Fan pending configurations out over a process pool.

        Results are installed into the engine's variant cache; any failure
        leaves the cache untouched and the caller's serial pass fills the
        gaps (identical results, just slower).
        """
        engine = self.engine
        payloads = [
            (engine.module, engine.platform, tuple(engine.entry_functions),
             engine.core.name if engine.core is not None else None,
             engine.opp.label if engine.opp is not None else None,
             engine.aggregate, config)
            for config in configs
        ]
        try:
            import concurrent.futures
            with concurrent.futures.ProcessPoolExecutor(
                    max_workers=self.max_workers) as pool:
                variants = list(pool.map(_evaluate_in_worker, payloads))
        except Exception:
            return  # serial fallback picks the work up
        for config, variant in zip(configs, variants):
            if config not in engine.variants:
                engine.variants.put(config, variant)
