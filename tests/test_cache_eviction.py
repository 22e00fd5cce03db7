"""Bounded-LRU eviction policy of the analysis cache.

Only the :class:`AnalysisCache` takes a ``max_entries`` cap; the variant
cache and the build tables are unbounded and live as long as the driver
that owns them (their ``stats()`` rows keep the shared shape, with
``max_entries`` ``None`` and no evictions).  This module checks the cap:
LRU order, eviction counters, ``stats()`` reporting, exactness of
recomputed entries after eviction, and the process-wide analysis caches
shared inside a ``shared_analysis_caches`` scope (its nesting and restore
rules included).
"""

import gc

import pytest

from repro.compiler.config import CompilerConfig
from repro.compiler.engine import (
    AnalysisCache,
    BuildCache,
    PersistError,
    VariantCache,
    process_analysis_cache,
    process_analysis_cache_stats,
    process_cache_store,
    shared_analysis_caches,
)
from repro.compiler.engine import cache as cache_module
from repro.compiler.engine.cache import _Fingerprint
from repro.compiler.pipeline import PassManager
from repro.frontend import compile_source
from repro.hw.presets import gr712rc, nucleo_stm32f091rc

CONFIG_A = CompilerConfig.baseline()
CONFIG_B = CompilerConfig.baseline().with_(spm_allocation=True)
CONFIG_C = CompilerConfig.performance()

#: The variant cache takes its keys from a pass manager, like the engine's.
MANAGER = PassManager()


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
    def test_stats_reporting(self):
        cache = VariantCache(MANAGER)
        cache.put(CONFIG_A, "a")
        cache.get(CONFIG_A)
        cache.put(CONFIG_B, "b")
        stats = cache.stats()
        assert stats == {"entries": 2, "max_entries": None, "hits": 1,
                         "misses": 2, "evictions": 0}

    def test_unbounded_by_default(self):
        cache = VariantCache(MANAGER)
        for config in (CONFIG_A, CONFIG_B, CONFIG_C):
            cache.put(config, config.short_name())
        assert len(cache) == 3
        assert cache.evictions == 0
        assert cache.stats()["max_entries"] is None


class TestBuildCache:
    def test_stats_report_both_tables(self):
        # The lowering and IR-stage rows are the build cache's ``lower``
        # and ``ir`` tables: a put is one unit build, a get a hit.
        cache = BuildCache()
        assert cache.lowering is cache.tables["lower"]
        assert cache.ir_stage is cache.tables["ir"]
        entry = cache.lowering.put(("work",), "lowered", {})
        assert cache.lowering.get(("work",)) is entry
        cache.ir_stage.put(("work", True), "optimised", {})
        cache.ir_stage.put(("work", False), "optimised", {})
        assert cache.lowering.stats() == {
            "entries": 1, "max_entries": None, "hits": 1, "misses": 1,
            "evictions": 0}
        assert cache.ir_stage.stats() == {
            "entries": 2, "max_entries": None, "hits": 0, "misses": 2,
            "evictions": 0}


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

    def test_enable_shares_per_platform_instance(self, monkeypatch):
        monkeypatch.setattr(cache_module,
                            "PROCESS_CACHE_DEFAULT_MAX_ENTRIES", 8)
        with shared_analysis_caches():
            first = process_analysis_cache(nucleo_stm32f091rc())
            second = process_analysis_cache(nucleo_stm32f091rc())
            other = process_analysis_cache(gr712rc())
            assert first is second
            assert first is not other
            assert first.max_entries == 8
        assert process_analysis_cache(nucleo_stm32f091rc()) is None

    def test_toolchains_share_enabled_cache(self):
        from repro.toolchain.predictable import PredictableToolchain

        with shared_analysis_caches():
            one = PredictableToolchain(nucleo_stm32f091rc())
            two = PredictableToolchain(nucleo_stm32f091rc())
            assert one.compiler.analysis is two.compiler.analysis
            stats = process_analysis_cache_stats()
            assert "nucleo-stm32f091rc" in stats
        # Back to per-instance caches outside the scope.
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
        shared_builds = BuildCache()
        engine = EvaluationEngine(parse(_source(16)), platform, ["work"],
                                  analysis_cache=shared_analysis,
                                  build_cache=shared_builds)
        assert engine.analysis is shared_analysis
        assert engine.builds is shared_builds
        assert engine.lowering is shared_builds.lowering
        engine.evaluate(CONFIG_A)
        assert len(shared_builds.lowering) == 1
        assert shared_analysis.misses > 0

    def test_search_fills_shared_cache(self):
        # The shared-cache payoff: a toolchain's engine-backed search must
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
        with shared_analysis_caches():
            toolchain = PredictableToolchain(nucleo_stm32f091rc())
            toolchain.build(source, csl, generations=1, population_size=2)
            stats = process_analysis_cache_stats()["nucleo-stm32f091rc"]
            assert stats["misses"] > 0

    def test_same_name_different_platform_gets_no_shared_cache(self):
        with shared_analysis_caches():
            stock = nucleo_stm32f091rc()
            cache = process_analysis_cache(stock)
            assert cache is not None
            lookalike = nucleo_stm32f091rc()
            lookalike.cores[0].cycle_table["div"] = 1  # different cost model
            assert process_analysis_cache(lookalike) is None
            # The stock platform keeps hitting the shared cache.
            assert process_analysis_cache(nucleo_stm32f091rc()) is cache

    def test_shared_cache_results_match_private_cache(self):
        platform = nucleo_stm32f091rc()
        program = compile_source(_source(24))
        private = AnalysisCache(platform).wcet(program, "work")
        with shared_analysis_caches():
            shared = process_analysis_cache(platform).wcet(program, "work")
        assert shared.cycles == private.cycles
        assert shared.time_s == private.time_s


class TestSharedAnalysisCacheScope:
    """The nesting and restore rules of ``shared_analysis_caches``."""

    def test_scope_restores_the_state_it_found(self, tmp_path):
        platform = nucleo_stm32f091rc()
        with shared_analysis_caches(tmp_path) as store:
            assert store is process_cache_store()
            assert store.directory == str(tmp_path)
            assert process_analysis_cache(platform).stats()["persistent"]
        assert process_analysis_cache(platform) is None
        assert process_cache_store() is None
        assert process_analysis_cache_stats() == {}

    def test_scope_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with shared_analysis_caches():
                assert process_analysis_cache(gr712rc()) is not None
                raise RuntimeError("boom")
        assert process_analysis_cache(gr712rc()) is None

    def test_nested_scope_without_directory_joins(self, tmp_path):
        platform = nucleo_stm32f091rc()
        program = compile_source(_source(16))
        with shared_analysis_caches(tmp_path) as outer_store:
            outer = process_analysis_cache(platform)
            with shared_analysis_caches() as store:
                assert store is outer_store
                assert process_analysis_cache(platform) is outer
                outer.wcet(program, "work")
            # Joining changed nothing on exit: same cache, its entry kept.
            assert process_analysis_cache(platform) is outer
            assert process_cache_store() is outer_store
            assert len(outer) == 1

    def test_nested_scope_with_the_attached_directory_joins(self, tmp_path):
        platform = nucleo_stm32f091rc()
        with shared_analysis_caches(tmp_path) as outer_store:
            outer = process_analysis_cache(platform)
            with shared_analysis_caches(str(tmp_path) + "/.") as store:
                assert store is outer_store
                assert process_analysis_cache(platform) is outer
            assert process_analysis_cache(platform) is outer

    def test_nested_scope_with_a_new_directory_restores_the_outer(
            self, tmp_path):
        platform = nucleo_stm32f091rc()
        program = compile_source(_source(16))
        with shared_analysis_caches():
            outer = process_analysis_cache(platform)
            outer.wcet(program, "work")
            with shared_analysis_caches(tmp_path / "inner") as store:
                inner = process_analysis_cache(platform)
                assert inner is not outer
                assert inner.stats()["persistent"]
                assert store.directory == str(tmp_path / "inner")
                assert len(inner) == 0
            assert process_cache_store() is None
            assert process_analysis_cache(platform) is outer
            assert len(outer) == 1
        assert process_analysis_cache(platform) is None

    def test_unusable_directory_raises_before_any_change(self, tmp_path):
        platform = nucleo_stm32f091rc()
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("")
        with pytest.raises(PersistError):
            with shared_analysis_caches(not_a_dir):
                pytest.fail("entered a scope on an unusable directory")
        assert process_analysis_cache(platform) is None
        with shared_analysis_caches(tmp_path / "ok") as store:
            outer = process_analysis_cache(platform)
            with pytest.raises(PersistError):
                with shared_analysis_caches(not_a_dir):
                    pytest.fail("entered a scope on an unusable directory")
            assert process_cache_store() is store
            assert process_analysis_cache(platform) is outer

    def test_scope_outliving_its_outer_keeps_its_caches(self, tmp_path):
        # Services close in any order: each scope removes only itself.
        platform = nucleo_stm32f091rc()
        outer = shared_analysis_caches()
        inner = shared_analysis_caches(tmp_path)
        joined = shared_analysis_caches()
        outer.__enter__()
        store = inner.__enter__()
        joined.__enter__()
        inner_cache = process_analysis_cache(platform)
        outer.__exit__(None, None, None)
        assert process_cache_store() is store
        assert process_analysis_cache(platform) is inner_cache
        inner.__exit__(None, None, None)
        # The scope that joined the inner one still shares its caches.
        assert process_cache_store() is store
        assert process_analysis_cache(platform) is inner_cache
        joined.__exit__(None, None, None)
        assert process_analysis_cache(platform) is None
        assert process_cache_store() is None
