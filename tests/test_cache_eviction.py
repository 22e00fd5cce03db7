"""Bounded-LRU eviction policy of the evaluation-engine caches.

Unbounded behaviour (``max_entries=None``, the default) is covered by
``tests/test_engine.py``; this module checks the opt-in caps: LRU order,
eviction counters, ``stats()`` reporting, exactness of recomputed entries
after eviction, and the opt-in process-wide analysis cache.
"""

import gc

import pytest

from repro.compiler.config import CompilerConfig
from repro.compiler.engine import (
    AnalysisCache,
    IrStageCache,
    LoweringCache,
    VariantCache,
    disable_process_analysis_cache,
    enable_process_analysis_cache,
    process_analysis_cache,
    process_analysis_cache_stats,
)
from repro.compiler.engine.cache import _Fingerprint
from repro.compiler.pipeline import PassManager
from repro.frontend import compile_source
from repro.hw.presets import gr712rc, nucleo_stm32f091rc

CONFIG_A = CompilerConfig.baseline()
CONFIG_B = CompilerConfig.baseline().with_(spm_allocation=True)
CONFIG_C = CompilerConfig.performance()

#: The caches take their keys from a pass manager (the stock one when none
#: is given); passing it explicitly keys these tests like the engine's caches.
MANAGER = PassManager()


class FakeProgram:
    """Stands in for an IR program: the caches only call ``clone``."""

    def __init__(self, label: str):
        self.label = label

    def clone(self, share_instructions: bool = False) -> "FakeProgram":
        return FakeProgram(self.label)


def _source(bound: int) -> str:
    return f"""
int data[{bound}];

#pragma teamplay task(work) poi(work)
int work(int gain) {{
    int acc = 0;
    for (int i = 0; i < {bound}; i = i + 1) {{
        acc = acc + data[i] * gain;
    }}
    return acc;
}}
"""


def _fingerprints_held(cache) -> int:
    """Distinct structural fingerprints reachable from ``cache``'s state."""
    found, seen, stack = set(), set(), list(vars(cache).values())
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, _Fingerprint):
            found.add(id(obj))
        elif isinstance(obj, (dict, list, tuple)):
            stack.extend(gc.get_referents(obj))
    return len(found)


class TestVariantCacheEviction:
    def test_lru_eviction_and_counters(self):
        cache = VariantCache(max_entries=2, manager=MANAGER)
        cache.put(CONFIG_A, "a")
        cache.put(CONFIG_B, "b")
        cache.put(CONFIG_C, "c")  # evicts A (least recently used)
        assert len(cache) == 2
        assert cache.evictions == 1
        assert CONFIG_A not in cache
        assert cache.get(CONFIG_B) == "b"
        assert cache.get(CONFIG_C) == "c"

    def test_get_refreshes_recency(self):
        cache = VariantCache(max_entries=2, manager=MANAGER)
        cache.put(CONFIG_A, "a")
        cache.put(CONFIG_B, "b")
        assert cache.get(CONFIG_A) == "a"  # A is now most recently used
        cache.put(CONFIG_C, "c")           # so B is evicted, not A
        assert cache.get(CONFIG_A) == "a"
        assert CONFIG_B not in cache

    def test_stats_reporting(self):
        cache = VariantCache(max_entries=1, manager=MANAGER)
        cache.put(CONFIG_A, "a")
        cache.get(CONFIG_A)
        cache.put(CONFIG_B, "b")
        stats = cache.stats()
        assert stats == {"entries": 1, "max_entries": 1, "hits": 1,
                         "misses": 2, "evictions": 1}

    def test_unbounded_by_default(self):
        cache = VariantCache()
        for config in (CONFIG_A, CONFIG_B, CONFIG_C):
            cache.put(config, config.short_name())
        assert len(cache) == 3
        assert cache.evictions == 0
        assert cache.stats()["max_entries"] is None

    def test_invalid_cap_rejected(self):
        with pytest.raises(ValueError, match="max_entries"):
            VariantCache(max_entries=0, manager=MANAGER)


class TestLoweringCacheEviction:
    def test_lowered_table_bounded(self):
        cache = LoweringCache(max_entries=1, manager=MANAGER)
        cache.put(CONFIG_A, FakeProgram("a"), {"n": 1})
        cache.put(CONFIG_C, FakeProgram("c"), {"n": 2})  # different AST key
        assert len(cache) == 1
        assert cache.evictions == 1
        assert cache.get(CONFIG_A) is None
        program, statistics = cache.get(CONFIG_C)
        assert program.label == "c"
        assert statistics == {"n": 2}

    def test_pre_unroll_table_bounded_independently(self):
        cache = LoweringCache(max_entries=1, manager=MANAGER)
        cache.put_pre_unroll(CONFIG_A, FakeProgram("a"), {})
        # CONFIG_C differs in inlining, i.e. a different pre-unroll key.
        cache.put_pre_unroll(CONFIG_C, FakeProgram("c"), {})
        assert cache.get_pre_unroll(CONFIG_A) is None
        assert cache.get_pre_unroll(CONFIG_C) is not None

    def test_stats_report_both_tables(self):
        cache = LoweringCache(max_entries=4, manager=MANAGER)
        cache.put(CONFIG_A, FakeProgram("a"), {})
        cache.put_pre_unroll(CONFIG_A, FakeProgram("a"), {})
        cache.put_pre_unroll(CONFIG_C, FakeProgram("c"), {})
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["pre_unroll_entries"] == 2


class TestIrStageCacheEviction:
    def test_bounded(self):
        cache = IrStageCache(max_entries=1, manager=MANAGER)
        cache.put(CONFIG_A, FakeProgram("a"), {})
        # Different DCE/SR flags change the IR-stage key.
        cache.put(CONFIG_A.with_(strength_reduction=True), FakeProgram("b"), {})
        assert len(cache) == 1
        assert cache.evictions == 1
        assert cache.get(CONFIG_A) is None


class TestAnalysisCacheEviction:
    def test_tables_bounded_and_exact_after_eviction(self):
        platform = nucleo_stm32f091rc()
        program_a = compile_source(_source(16))
        program_b = compile_source(_source(32))

        unbounded = AnalysisCache(platform)
        expected_a = unbounded.wcet(program_a, "work").cycles
        expected_b = unbounded.wcet(program_b, "work").cycles

        cache = AnalysisCache(platform, max_entries=1)
        assert cache.wcet(program_a, "work").cycles == expected_a
        assert cache.wcet(program_b, "work").cycles == expected_b  # evicts A
        assert cache.evictions == 1
        # Recomputing the evicted table yields bit-identical results.
        assert cache.wcet(program_a, "work").cycles == expected_a
        assert cache.evictions == 2
        assert cache.hits == 0
        assert cache.stats()["entries"] <= 2  # one cycle + one energy table

    def test_hits_within_cap(self):
        platform = nucleo_stm32f091rc()
        program = compile_source(_source(16))
        cache = AnalysisCache(platform, max_entries=4)
        first = cache.wcet(program, "work")
        second = cache.wcet(program, "work")
        assert cache.hits == 1
        assert cache.evictions == 0
        assert first.cycles == second.cycles

    def test_store_keeps_no_evicted_fingerprint_alive(self, tmp_path):
        # Each on-disk digest is memoised per structural fingerprint; a
        # long-running cache with a persistent store must not keep the
        # fingerprints of evicted programs alive through that memo.
        from repro.compiler.engine.persist import PersistentCacheStore

        cache = AnalysisCache(nucleo_stm32f091rc(), max_entries=2,
                              store=PersistentCacheStore(tmp_path))
        for bound in range(4, 12):
            cache.wcec(compile_source(_source(bound)), "work")
        assert cache.disk_misses >= 8  # eight distinct programs analysed
        assert cache.evictions == 2 * (8 - 2)
        assert _fingerprints_held(cache) <= 2


class TestProcessWideAnalysisCache:
    def test_disabled_by_default(self):
        assert process_analysis_cache(nucleo_stm32f091rc()) is None

    def test_enable_shares_per_platform_instance(self):
        enable_process_analysis_cache(max_entries=8)
        try:
            first = process_analysis_cache(nucleo_stm32f091rc())
            second = process_analysis_cache(nucleo_stm32f091rc())
            other = process_analysis_cache(gr712rc())
            assert first is second
            assert first is not other
            assert first.max_entries == 8
        finally:
            disable_process_analysis_cache()
        assert process_analysis_cache(nucleo_stm32f091rc()) is None

    def test_toolchains_share_enabled_cache(self):
        from repro.toolchain.predictable import PredictableToolchain

        enable_process_analysis_cache()
        try:
            one = PredictableToolchain(nucleo_stm32f091rc())
            two = PredictableToolchain(nucleo_stm32f091rc())
            assert one.compiler.analysis is two.compiler.analysis
            stats = process_analysis_cache_stats()
            assert "nucleo-stm32f091rc" in stats
        finally:
            disable_process_analysis_cache()
        # Back to per-instance caches once disabled.
        three = PredictableToolchain(nucleo_stm32f091rc())
        four = PredictableToolchain(nucleo_stm32f091rc())
        assert three.compiler.analysis is not four.compiler.analysis

    def test_engine_adopts_empty_shared_caches(self):
        # Empty caches are falsy (__len__ == 0); the engine must still adopt
        # them instead of silently building private ones.
        from repro.compiler.engine import EvaluationEngine
        from repro.frontend.parser import parse

        platform = nucleo_stm32f091rc()
        shared_analysis = AnalysisCache(platform)
        shared_lowering = LoweringCache()
        shared_variants = VariantCache()
        engine = EvaluationEngine(parse(_source(16)), platform, ["work"],
                                  analysis_cache=shared_analysis,
                                  lowering_cache=shared_lowering,
                                  variant_cache=shared_variants)
        assert engine.analysis is shared_analysis
        assert engine.lowering is shared_lowering
        assert engine.variants is shared_variants
        engine.evaluate(CONFIG_A)
        assert len(shared_variants) == 1
        assert shared_analysis.misses > 0

    def test_search_fills_shared_cache(self):
        # The --shared-cache payoff: a toolchain's engine-backed search must
        # land its analysis tables in the process-wide cache.
        from repro.toolchain.predictable import PredictableToolchain

        source = _source(16)
        csl = """
        system shared {
            period 10 ms;
            deadline 10 ms;
            task work { implements work; budget time 5 ms; budget energy 50 uJ; }
            graph { work; }
        }
        """
        enable_process_analysis_cache()
        try:
            toolchain = PredictableToolchain(nucleo_stm32f091rc())
            toolchain.build(source, csl, generations=1, population_size=2)
            stats = process_analysis_cache_stats()["nucleo-stm32f091rc"]
            assert stats["misses"] > 0
        finally:
            disable_process_analysis_cache()

    def test_same_name_different_platform_gets_no_shared_cache(self):
        enable_process_analysis_cache()
        try:
            stock = nucleo_stm32f091rc()
            cache = process_analysis_cache(stock)
            assert cache is not None
            lookalike = nucleo_stm32f091rc()
            lookalike.cores[0].cycle_table["div"] = 1  # different cost model
            assert process_analysis_cache(lookalike) is None
            # The stock platform keeps hitting the shared cache.
            assert process_analysis_cache(nucleo_stm32f091rc()) is cache
        finally:
            disable_process_analysis_cache()

    def test_engine_stats_report_evictions(self):
        from repro.compiler.engine import EvaluationEngine
        from repro.frontend.parser import parse

        platform = nucleo_stm32f091rc()
        engine = EvaluationEngine(parse(_source(16)), platform, ["work"],
                                  variant_cache=VariantCache(
                                      max_entries=1, manager=MANAGER))
        engine.evaluate(CONFIG_A)
        engine.evaluate(CONFIG_C)
        assert engine.stats()["variant"]["evictions"] == 1
        assert engine.variants.evictions == 1

    def test_shared_cache_results_match_private_cache(self):
        platform = nucleo_stm32f091rc()
        program = compile_source(_source(24))
        private = AnalysisCache(platform).wcet(program, "work")
        enable_process_analysis_cache()
        try:
            shared = process_analysis_cache(platform).wcet(program, "work")
        finally:
            disable_process_analysis_cache()
        assert shared.cycles == private.cycles
        assert shared.time_s == private.time_s
