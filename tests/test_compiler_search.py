"""Tests for the compiler configuration encoding and multi-objective search."""

import json

import pytest

from repro.compiler.config import CompilerConfig, UNROLL_CHOICES
from repro.compiler.driver import MultiCriteriaCompiler
from repro.compiler.evaluate import Variant
from repro.compiler.fpa import FlowerPollinationOptimizer, pareto_front
from repro.compiler.nsga2 import Nsga2Optimizer, crowding_distance, non_dominated_sort
from repro.errors import CompilationError
from repro.hw.presets import apalis_tk1, nucleo_stm32f091rc

SOURCE = """
int data[32];
int helper(int x) { return x * 4 + 1; }

#pragma teamplay task(kernel)
int kernel(int gain) {
    int acc = 0;
    for (int i = 0; i < 32; i = i + 1) {
        acc = acc + data[i] * gain + helper(i);
    }
    return acc;
}
"""

#: Guard conditions on ``gain`` that no single call can satisfy together:
#: path-sensitive analysis prunes the infeasible combinations.
GUARDED_SOURCE = """
int samples[16];

#pragma teamplay task(t)
int task(int gain) {
    int acc = 0;
    for (int i = 0; i < 16; i = i + 1) {
        int value = samples[i];
        if (gain > 12) { acc = acc + value * gain; acc = acc + gain * 5; }
        if (gain < 4) { acc = acc - value * gain; acc = acc - (value >> 1) * 7; }
    }
    return acc;
}
"""


@pytest.fixture(scope="module")
def platform():
    return nucleo_stm32f091rc()


class TestConfig:
    def test_gene_round_trip(self):
        for config in (CompilerConfig.baseline(), CompilerConfig.performance(),
                       CompilerConfig.secure(),
                       CompilerConfig(unroll_limit=32, spm_allocation=True)):
            assert CompilerConfig.from_genes(config.to_genes()) == config

    def test_from_genes_clamps_out_of_range(self):
        config = CompilerConfig.from_genes([2.0, -1.0, 0.9, 0.1, 0.6, 0.2, 0.4])
        assert config.constant_folding is True
        assert config.unroll_limit == UNROLL_CHOICES[0]

    def test_gene_length_enforced(self):
        with pytest.raises(ValueError):
            CompilerConfig.from_genes([0.5, 0.5])

    def test_invalid_unroll_limit(self):
        with pytest.raises(ValueError):
            CompilerConfig(unroll_limit=5)

    def test_short_name_reflects_flags(self):
        assert CompilerConfig.baseline().short_name() == "cf+dce"
        assert "spm" in CompilerConfig.performance().short_name()
        empty = CompilerConfig(constant_folding=False, dead_code_elimination=False)
        assert empty.short_name() == "O0"


def _variant(name, time_s, energy_j, security=None):
    return Variant(name=name, config=CompilerConfig.baseline(), program=None,
                   entry_function="f", wcet_cycles=time_s * 1e6,
                   wcet_time_s=time_s, energy_j=energy_j, code_size_bytes=100,
                   security_level=security)


class TestParetoMachinery:
    def test_pareto_front_filters_dominated(self):
        variants = [_variant("a", 1.0, 1.0), _variant("b", 2.0, 2.0),
                    _variant("c", 0.5, 3.0)]
        front = pareto_front(variants)
        names = {v.name for v in front}
        assert names == {"a", "c"}

    def test_pareto_front_deduplicates_equal_points(self):
        variants = [_variant("a", 1.0, 1.0), _variant("b", 1.0, 1.0)]
        assert len(pareto_front(variants)) == 1

    def test_non_dominated_sort_ranks(self):
        variants = [_variant("a", 1.0, 1.0), _variant("b", 2.0, 2.0),
                    _variant("c", 3.0, 3.0)]
        fronts = non_dominated_sort(variants)
        assert fronts[0] == [0] and fronts[1] == [1] and fronts[2] == [2]

    def test_crowding_distance_boundary_points_infinite(self):
        variants = [_variant("a", 1.0, 3.0), _variant("b", 2.0, 2.0),
                    _variant("c", 3.0, 1.0)]
        distance = crowding_distance(variants, [0, 1, 2])
        assert distance[0] == float("inf") and distance[2] == float("inf")
        assert distance[1] < float("inf")

    def test_dominance_requires_same_objective_count(self):
        with pytest.raises(CompilationError):
            _variant("a", 1.0, 1.0).dominates(_variant("b", 1.0, 1.0, security=0.5))


class TestSearch:
    def test_fpa_finds_non_dominated_improvements(self, platform):
        compiler = MultiCriteriaCompiler(platform)
        front = compiler.explore(SOURCE, "kernel", optimizer="fpa",
                                 population_size=6, generations=3)
        assert len(front) >= 1
        assert front.evaluations > 0
        baseline = compiler.compile(SOURCE, "kernel", CompilerConfig.baseline())
        assert front.best_by_energy().energy_j <= baseline.energy_j
        assert front.best_by_time().wcet_time_s <= baseline.wcet_time_s

    def test_nsga2_is_a_working_alternative(self, platform):
        compiler = MultiCriteriaCompiler(platform)
        baseline = compiler.compile(SOURCE, "kernel", CompilerConfig.baseline())
        nsga = compiler.explore(SOURCE, "kernel", optimizer="nsga2",
                                population_size=6, generations=3)
        assert len(nsga) >= 1
        assert nsga.best_by_energy().energy_j <= baseline.energy_j
        assert nsga.best_by_time().wcet_time_s <= baseline.wcet_time_s

    def test_exhaustive_front_is_not_dominated_by_heuristics(self, platform):
        compiler = MultiCriteriaCompiler(platform)
        exhaustive = compiler.explore(SOURCE, "kernel", optimizer="exhaustive")
        fpa = compiler.explore(SOURCE, "kernel", optimizer="fpa",
                               population_size=6, generations=3)
        assert fpa.best_by_energy().energy_j >= exhaustive.best_by_energy().energy_j - 1e-12

    def test_unknown_optimizer_rejected(self, platform):
        with pytest.raises(CompilationError):
            MultiCriteriaCompiler(platform).explore(SOURCE, "kernel",
                                                    optimizer="simulated-annealing")

    def test_path_sensitive_search_pins_every_variant(self, platform):
        compiler = MultiCriteriaCompiler(platform)
        plain = compiler.explore(GUARDED_SOURCE, "task", optimizer="fpa",
                                 population_size=6, generations=2)
        pinned = compiler.explore(GUARDED_SOURCE, "task", optimizer="fpa",
                                  population_size=6, generations=2,
                                  path_sensitive=True)
        assert len(pinned) >= 1
        for variant in pinned:
            assert variant.config.path_sensitive
            structural = compiler.compile(
                GUARDED_SOURCE, "task",
                variant.config.with_(path_sensitive=False))
            assert variant.wcet_cycles <= structural.wcet_cycles
        assert pinned.best_by_time().wcet_cycles < \
            plain.best_by_time().wcet_cycles
        assert pinned.best_by_energy().energy_j <= \
            plain.best_by_energy().energy_j

    def test_entry_sequence_selects_the_aggregate_engine(self, platform):
        compiler = MultiCriteriaCompiler(platform)
        single = compiler.compile(SOURCE, "kernel")
        aggregate = compiler.compile(SOURCE, ["kernel"])
        assert single.entry_function == "kernel"
        assert aggregate.entry_function == "<all tasks>"
        assert aggregate.wcet_cycles == single.wcet_cycles
        assert compiler.compile(SOURCE, ("kernel",)) is aggregate
        front = compiler.explore(SOURCE, ["kernel"], optimizer="nsga2",
                                 population_size=6, generations=2)
        assert all(v.entry_function == "<all tasks>" for v in front)
        stats = compiler.cache_stats()
        # Both engines share the module's lowering cache: it counts once.
        engine = next(iter(compiler._engines.values()))
        assert stats["lowering"] == engine.lowering.stats()
        assert stats["analysis"]["shared"] is False

    def test_search_caches_repeated_configs(self, platform):
        compiler = MultiCriteriaCompiler(platform)

        calls = []

        def evaluator(config):
            calls.append(config)
            return compiler.compile(SOURCE, "kernel", config)

        optimizer = FlowerPollinationOptimizer(evaluator, population_size=6,
                                               generations=3)
        optimizer.optimize()
        assert optimizer.evaluations == len(calls)
        assert len(calls) <= 6 * 4 + 6  # far fewer than naive re-evaluation


class TestDriver:
    def test_compile_requires_predictable_platform(self):
        with pytest.raises(CompilationError):
            MultiCriteriaCompiler(apalis_tk1())

    def test_unknown_entry_rejected(self, platform):
        with pytest.raises(CompilationError):
            MultiCriteriaCompiler(platform).compile(SOURCE, "not_there")

    def test_task_properties_and_ets_export(self, platform, tmp_path):
        compiler = MultiCriteriaCompiler(platform)
        variant = compiler.compile(SOURCE, "kernel")
        properties = compiler.task_properties(variant)
        assert "kernel" in properties
        assert properties["kernel"]["wcet_s"] > 0
        path = tmp_path / "ets.json"
        compiler.export_ets(variant, str(path))
        data = json.loads(path.read_text())
        assert data["platform"] == platform.name
        assert "kernel" in data["tasks"]

    def test_security_evaluation_adds_objective(self, platform):
        source = """
        #pragma teamplay task(check) secret(key)
        int check(int key, int guess) {
            int r = 0;
            if (key == guess) { r = 1; }
            return r;
        }
        """
        compiler = MultiCriteriaCompiler(platform, security_samples=6)
        variant = compiler.compile(source, "check", evaluate_security=True)
        assert variant.security_level is not None
        assert len(variant.objectives()) == 3
