"""NSGA-II baseline for the compiler's multi-objective search.

Included as the comparison point for the Flower Pollination Algorithm: both
optimisers expose the same interface (an ``optimize`` method returning the
final Pareto archive of :class:`Variant` objects), so ablation benchmarks can
swap one for the other.

The non-dominated sorting and crowding-distance machinery re-exported here is
the numpy-vectorised implementation from
:mod:`repro.compiler.engine.vectorized` (one broadcasted objective-matrix
comparison instead of the seed's O(N²) Python double loop); population
evaluation is batched through the engine's
:class:`~repro.compiler.engine.batch.BatchEvaluator` when one is supplied
(serially, through the engine's staged caches).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.compiler.config import CompilerConfig
from repro.compiler.engine.batch import BatchEvaluator
from repro.compiler.engine.vectorized import (
    crowding_distance,
    non_dominated_sort,
    pareto_front,
)
from repro.compiler.evaluate import Variant

__all__ = ["Evaluator", "Nsga2Optimizer", "crowding_distance",
           "non_dominated_sort"]

Evaluator = Callable[[CompilerConfig], Variant]


@dataclass
class Nsga2Optimizer:
    """NSGA-II over the compiler configuration space."""

    evaluator: Union[Evaluator, BatchEvaluator]
    population_size: int = 12
    generations: int = 8
    mutation_probability: float = 0.2
    seed: int = 11
    #: Search the extended gene space (adds the CSE, peephole and
    #: path-sensitive axes); off by default so fixed-seed base-space runs
    #: stay bit-for-bit reproducible.
    extended_space: bool = False
    #: Per-run cache; ``evaluations`` counts unique configurations seen this
    #: run even when a shared engine cache made them lookups.
    _cache: Dict[CompilerConfig, Variant] = field(default_factory=dict, repr=False)
    evaluations: int = field(default=0, repr=False)

    def _evaluate(self, genes: Sequence[float]) -> Tuple[CompilerConfig, Variant]:
        config = CompilerConfig.from_genes(genes)
        if config not in self._cache:
            self._cache[config] = self.evaluator(config)
            self.evaluations += 1
        return config, self._cache[config]

    def _evaluate_population(self, population: Sequence[Sequence[float]]
                             ) -> List[Variant]:
        """Evaluate a whole generation at once (batched when possible)."""
        configs = [CompilerConfig.from_genes(genes) for genes in population]
        if isinstance(self.evaluator, BatchEvaluator):
            fresh = [c for c in dict.fromkeys(configs) if c not in self._cache]
            for config, variant in zip(fresh, self.evaluator.evaluate(fresh)):
                self._cache[config] = variant
                self.evaluations += 1
        return [self._evaluate(genes)[1] for genes in population]

    def _select(self, rng: random.Random, population: List[List[float]],
                ranks: Dict[int, int], crowding: Dict[int, float]) -> List[float]:
        a, b = rng.randrange(len(population)), rng.randrange(len(population))
        if ranks[a] != ranks[b]:
            return population[a] if ranks[a] < ranks[b] else population[b]
        return population[a] if crowding.get(a, 0) >= crowding.get(b, 0) else population[b]

    def optimize(self, initial_configs: Optional[Sequence[CompilerConfig]] = None
                 ) -> List[Variant]:
        rng = random.Random(self.seed)
        dims = CompilerConfig.gene_length(self.extended_space)

        population: List[List[float]] = [
            config.to_genes(self.extended_space)
            for config in (initial_configs or [])]
        while len(population) < self.population_size:
            population.append([rng.random() for _ in range(dims)])
        population = population[:self.population_size]

        archive: List[Variant] = []
        for _generation in range(self.generations):
            variants = self._evaluate_population(population)
            archive = pareto_front(archive + variants)

            fronts = non_dominated_sort(variants)
            ranks: Dict[int, int] = {}
            crowding: Dict[int, float] = {}
            for rank, front in enumerate(fronts):
                for index in front:
                    ranks[index] = rank
                crowding.update(crowding_distance(variants, front))

            offspring: List[List[float]] = []
            while len(offspring) < self.population_size:
                parent_a = self._select(rng, population, ranks, crowding)
                parent_b = self._select(rng, population, ranks, crowding)
                # Uniform crossover.
                child = [parent_a[d] if rng.random() < 0.5 else parent_b[d]
                         for d in range(dims)]
                # Gene-wise mutation.
                for d in range(dims):
                    if rng.random() < self.mutation_probability:
                        child[d] = rng.random()
                offspring.append(child)
            population = offspring

        final_variants = self._evaluate_population(population)
        return pareto_front(archive + final_variants)
