"""Tests for the batched variant-evaluation engine and its staged caches."""

import pytest
from hypothesis import given, settings, strategies as st

from oracles import evaluate_config
from test_pipeline import KEY_SOURCE, chain_keys
from repro.compiler.config import CompilerConfig
from repro.compiler.engine import (
    BatchEvaluator,
    EvaluationEngine,
    VariantCache,
    program_fingerprint,
)
from repro.compiler.fpa import FlowerPollinationOptimizer
from repro.compiler.nsga2 import Nsga2Optimizer
from repro.errors import CompilationError
from repro.compiler.pipeline import PassManager
from repro.frontend.parser import parse
from repro.hw.presets import nucleo_stm32f091rc

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

#: Mutually exclusive range guards on ``gain``: the structural bound charges
#: every guarded body each iteration, the path-sensitive one at most one.
GUARDED_SOURCE = """
int samples[8];

#pragma teamplay task(guarded)
int guarded(int gain) {
    int acc = 0;
    for (int i = 0; i < 8; i = i + 1) {
        int value = samples[i];
        if (gain > 12) {
            acc = acc + value * gain;
            acc = acc + gain * 5;
        }
        if (gain < 4) {
            acc = acc - value * gain;
            acc = acc - (value >> 1) * 7;
        }
        if (gain == 8) {
            acc = acc + value * 11;
        }
    }
    return acc;
}
"""

CONFIGS = [
    CompilerConfig.baseline(),
    CompilerConfig.performance(),
    CompilerConfig.secure(),
    CompilerConfig.baseline().with_(strength_reduction=True),
    CompilerConfig.baseline().with_(spm_allocation=True),
    CompilerConfig.baseline().with_(path_sensitive=True),
    CompilerConfig.performance().with_(path_sensitive=True),
]

MANAGER = PassManager()


@pytest.fixture(scope="module")
def platform():
    return nucleo_stm32f091rc()


@pytest.fixture(scope="module")
def module():
    return parse(SOURCE)


# Shared across hypothesis examples (function-scoped fixtures are not):
# revisited configurations exercise the engine's cache hits as well.
_PLATFORM = nucleo_stm32f091rc()
_GUARDED_MODULE = parse(GUARDED_SOURCE)
_GUARDED_ENGINE = EvaluationEngine(_GUARDED_MODULE, _PLATFORM, ["guarded"])


def engine_for(module, platform) -> EvaluationEngine:
    return EvaluationEngine(module, platform, ["kernel"])


def variant_key(variant):
    """Everything observable about a variant except the program object."""
    return (
        variant.name,
        variant.config,
        variant.entry_function,
        variant.wcet_cycles,
        variant.wcet_time_s,
        variant.energy_j,
        variant.code_size_bytes,
        variant.security_level,
        variant.pass_statistics,
        program_fingerprint(variant.program),
    )


class TestCanonicalKeys:
    def test_equal_configs_share_a_key_regardless_of_construction(self):
        key = MANAGER.canonical_key
        direct = CompilerConfig(constant_folding=True, unroll_limit=16,
                                inline_simple_functions=True,
                                dead_code_elimination=True,
                                strength_reduction=True, spm_allocation=True,
                                harden_security=False)
        assert key(direct) == key(CompilerConfig.performance())
        assert key(direct) == key(CompilerConfig.performance().with_())
        decoded = CompilerConfig.from_genes(direct.to_genes())
        assert key(decoded) == key(direct)

    def test_different_configs_have_different_keys(self):
        keys = {MANAGER.canonical_key(config) for config in CONFIGS}
        assert len(keys) == len(CONFIGS)

    def test_lowering_key_ignores_ir_level_flags(self):
        # Hardening enters only a secret function's key.
        kernel = next(function for function in parse(KEY_SOURCE).functions
                      if function.pragmas.get("secret"))

        def lowered(config):
            return chain_keys(MANAGER, config, kernel)["lower"]

        base = CompilerConfig.baseline()
        assert (lowered(base)
                == lowered(base.with_(strength_reduction=True))
                == lowered(base.with_(spm_allocation=True))
                == lowered(base.with_(dead_code_elimination=False))
                == lowered(base.with_(enable_cse=True, enable_peephole=True))
                == lowered(base.with_(path_sensitive=True)))
        assert lowered(base) != lowered(base.with_(unroll_limit=8))
        assert lowered(base) != lowered(base.with_(harden_security=True))


class TestVariantCache:
    def test_hits_across_generations(self, module, platform):
        engine = engine_for(module, platform)
        first = engine.evaluate(CompilerConfig.performance())
        # A structurally equal config built differently: same canonical key.
        revisited = engine.evaluate(
            CompilerConfig.from_genes(CompilerConfig.performance().to_genes()))
        assert revisited is first
        assert engine.variants.hits == 1
        assert engine.variants.misses == 1

    def test_optimisers_share_the_cache_across_runs(self, module, platform):
        engine = engine_for(module, platform)
        evaluator = BatchEvaluator(engine)
        seeds = [CompilerConfig.baseline(), CompilerConfig.performance()]
        FlowerPollinationOptimizer(evaluator, population_size=4,
                                   generations=2).optimize(initial_configs=seeds)
        evaluated_once = engine.variants.misses
        # A second search over the same engine revisits the cached seeds (at
        # least) without re-evaluating them.
        nsga = Nsga2Optimizer(evaluator, population_size=4, generations=2)
        nsga.optimize(initial_configs=seeds)
        assert nsga.evaluations > 0          # the optimiser saw fresh configs
        assert engine.variants.hits > 0      # ... and the engine served hits
        assert engine.variants.misses >= evaluated_once

    def test_standalone_cache_counts(self):
        cache = VariantCache(PassManager())
        assert cache.get(CompilerConfig.baseline()) is None
        cache.put(CompilerConfig.baseline(), "sentinel")
        assert cache.get(CompilerConfig.baseline().with_()) == "sentinel"
        assert (cache.hits, cache.misses) == (1, 1)


class TestBitForBitEquivalence:
    def test_cached_equals_uncached(self, module, platform):
        for source_module, entry in ((module, "kernel"),
                                     (_GUARDED_MODULE, "guarded")):
            engine = EvaluationEngine(source_module, platform, [entry])
            for config in CONFIGS:
                reference = evaluate_config(source_module, config, platform,
                                            entry)
                cold = engine.evaluate(config)
                warm = engine.evaluate(config)
                assert variant_key(reference) == variant_key(cold)
                assert warm is cold
        # The guarded kernel is only a drift check if pruning tightens it.
        base = CompilerConfig.baseline()
        assert (engine.evaluate(base.with_(path_sensitive=True)).wcet_cycles
                < engine.evaluate(base).wcet_cycles)

    @given(genes=st.lists(st.floats(0.0, 1.0), min_size=10, max_size=10))
    @settings(max_examples=25, deadline=None)
    def test_engine_matches_reference_over_the_gene_space(self, genes):
        config = CompilerConfig.from_genes(genes)
        reference = evaluate_config(_GUARDED_MODULE, config, _PLATFORM,
                                    "guarded")
        assert variant_key(_GUARDED_ENGINE.evaluate(config)) \
            == variant_key(reference)

    def test_batch_matches_sequential(self, module, platform):
        sequential = engine_for(module, platform)
        expected = [sequential.evaluate(config) for config in CONFIGS]
        batched = engine_for(module, platform)
        results = BatchEvaluator(batched).evaluate(CONFIGS)
        assert [variant_key(v) for v in results] \
            == [variant_key(v) for v in expected]

    def test_duplicate_configs_evaluated_once(self, module, platform):
        engine = engine_for(module, platform)
        config = CompilerConfig.baseline()
        results = BatchEvaluator(engine).evaluate([config, config.with_(), config])
        assert engine.variants.misses == 1
        assert results[0] is results[1] is results[2]


class TestEngineSafety:
    def test_cached_programs_are_independent(self, module, platform):
        """IR passes on one variant must not corrupt another's program."""
        engine = engine_for(module, platform)
        plain = engine.evaluate(CompilerConfig.baseline())
        reduced = engine.evaluate(
            CompilerConfig.baseline().with_(strength_reduction=True))
        assert program_fingerprint(plain.program) \
            != program_fingerprint(reduced.program)
        # Re-evaluating from a fresh engine reproduces the first result:
        # the cached lowered IR was not clobbered by the strength reduction.
        fresh = engine_for(module, platform).evaluate(CompilerConfig.baseline())
        assert variant_key(fresh) == variant_key(plain)

    def test_missing_entry_function_rejected(self, platform):
        engine = EvaluationEngine(parse("int f(int x) { return x; }"),
                                  platform, ["not_there"])
        with pytest.raises(CompilationError):
            engine.evaluate(CompilerConfig.baseline())

    def test_engine_requires_entries(self, module, platform):
        with pytest.raises(CompilationError):
            EvaluationEngine(module, platform, [])

    def test_aggregate_mode_produces_all_tasks_variant(self, module, platform):
        engine = EvaluationEngine(module, platform, ["kernel"], aggregate=True)
        variant = engine.evaluate(CompilerConfig.baseline())
        assert variant.entry_function == "<all tasks>"
        single = engine_for(module, platform).evaluate(CompilerConfig.baseline())
        assert variant.wcet_cycles == single.wcet_cycles
        assert variant.energy_j == single.energy_j
