"""Multi-objective Flower Pollination Algorithm (FPA).

WCC's multi-objective compiler optimisation is based on the Flower
Pollination Algorithm (Jadhav & Falk, SCOPES'19).  Candidate configurations
are encoded as vectors in ``[0, 1]^N``; *global pollination* moves a solution
towards a Pareto-archive member along a Lévy flight, *local pollination*
mixes two random population members.  Non-dominated solutions are collected
in an archive which is the algorithm's result.

Pareto-front filtering is the numpy-vectorised implementation from
:mod:`repro.compiler.engine.vectorized` (re-exported here for backwards
compatibility); candidate evaluation goes through the evaluation engine's
:class:`~repro.compiler.engine.batch.BatchEvaluator`, which evaluates each
population serially through the engine's staged caches.  The engine's
variant cache is the one memo of evaluated configurations: every revisited
candidate, in this run or an earlier one on the same engine, is a lookup
there.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set

from repro.compiler.config import CompilerConfig
from repro.compiler.engine.batch import BatchEvaluator
from repro.compiler.engine.vectorized import pareto_front
from repro.compiler.evaluate import Variant

__all__ = ["FlowerPollinationOptimizer", "pareto_front"]


def _levy_step(rng: random.Random, beta: float = 1.5) -> float:
    """One-dimensional Lévy-distributed step (Mantegna's algorithm)."""
    sigma_u = (math.gamma(1 + beta) * math.sin(math.pi * beta / 2)
               / (math.gamma((1 + beta) / 2) * beta * 2 ** ((beta - 1) / 2))
               ) ** (1 / beta)
    u = rng.gauss(0.0, sigma_u)
    v = abs(rng.gauss(0.0, 1.0)) or 1e-12
    return u / (v ** (1 / beta))


@dataclass
class FlowerPollinationOptimizer:
    """Multi-objective FPA over the compiler configuration space."""

    evaluator: BatchEvaluator
    population_size: int = 10
    generations: int = 8
    switch_probability: float = 0.8
    seed: int = 7
    #: Search the extended gene space (adds the CSE, peephole and
    #: path-sensitive axes).  Off by default so fixed-seed base-space
    #: searches draw the exact random streams they always did and stay
    #: bit-for-bit reproducible.
    extended_space: bool = False
    #: The decoded configurations this run asked for.
    _seen: Set[CompilerConfig] = field(default_factory=set, repr=False)

    @property
    def evaluations(self) -> int:
        """Distinct configurations seen this run, even when the engine's
        variant cache made their evaluation a lookup."""
        return len(self._seen)

    def _evaluate(self, genes: Sequence[float]) -> Variant:
        config = CompilerConfig.from_genes(genes)
        self._seen.add(config)
        return self.evaluator(config)

    def _evaluate_population(self, population: Sequence[Sequence[float]]
                             ) -> List[Variant]:
        """Evaluate a whole population at once."""
        configs = [CompilerConfig.from_genes(genes) for genes in population]
        self._seen.update(configs)
        return self.evaluator.evaluate(configs)

    def optimize(self, initial_configs: Optional[Sequence[CompilerConfig]] = None
                 ) -> List[Variant]:
        """Run the search and return the final Pareto archive."""
        rng = random.Random(self.seed)
        dims = CompilerConfig.gene_length(self.extended_space)

        population: List[List[float]] = []
        for config in (initial_configs or []):
            population.append(config.to_genes(self.extended_space))
        while len(population) < self.population_size:
            population.append([rng.random() for _ in range(dims)])
        population = population[:self.population_size]

        variants = self._evaluate_population(population)
        archive = pareto_front(variants)

        for _generation in range(self.generations):
            for index, genes in enumerate(population):
                if rng.random() < self.switch_probability and archive:
                    # Global pollination towards a random archive member.
                    guide = rng.choice(archive).config.to_genes(
                        self.extended_space)
                    candidate = [
                        genes[d] + _levy_step(rng) * (guide[d] - genes[d])
                        for d in range(dims)
                    ]
                else:
                    # Local pollination between two population members.
                    a, b = rng.choice(population), rng.choice(population)
                    epsilon = rng.random()
                    candidate = [genes[d] + epsilon * (a[d] - b[d])
                                 for d in range(dims)]
                candidate = [min(max(value, 0.0), 1.0) for value in candidate]

                new_variant = self._evaluate(candidate)
                current_variant = self._evaluate(genes)
                if new_variant.dominates(current_variant) or rng.random() < 0.1:
                    population[index] = candidate
                archive = pareto_front(archive + [new_variant])
        return archive
