"""One analysis core: the memoised costs against the unmemoised reference.

The stock analysers (:class:`WCETAnalyzer`, :class:`EnergyAnalyzer`) and the
evaluation engine's :class:`AnalysisCache` run the same two engine classes
(:class:`StructuralCostEngine`, :class:`PathSensitiveCostEngine`) and make
their results through the same two ``result`` methods.  The cache adds
per-instruction, per-block and per-function memos shared across programs;
the analysers add none and stay the reference.  These tests hold the two
doors to each other:

* every function's cycle and energy cost the cache computes equals a plain
  engine run on the analysers' cost functions (the worst-case price,
  ``worst_cost`` with a fresh memo; the whole-program table of
  ``tests/oracles.py``), bit for bit, for every embedded
  source across the IR pin's configurations (with and without scratchpad
  allocation), in both analysis modes, on every predictable core and
  operating point;
* ``analyze`` and the cache's ``wcet``/``wcec`` agree field for field;
* both doors reject platforms without a predictable core and recursion;
* lowering validates each function once.
"""

from __future__ import annotations

from dataclasses import asdict, replace

import pytest

from oracles import build_program, cache_costs, whole_program_costs
from test_compact_runs import SOURCE_PLATFORMS
from test_unroll_stamping import (
    IR_PIN_SOURCES,
    PLATFORM,
    dump_program,
    ir_pin_configs,
)

from repro.compiler.engine.cache import AnalysisCache, program_fingerprint
from repro.compiler.pipeline import CompilationPipeline
from repro.energy.static_analyzer import EnergyAnalyzer
from repro.errors import AnalysisError
from repro.frontend.lowering import compile_source, lower_module
from repro.frontend.parser import parse
from repro.hw.presets import apalis_tk1, nucleo_stm32f091rc
from repro.ir.cfg import Function
from repro.usecases.camera_pill import CAMERA_PILL_SOURCE
from repro.wcet.analyzer import WCETAnalyzer, worst_cost
from repro.wcet.paths import PathSensitiveCostEngine
from repro.wcet.structural import StructuralCostEngine

RECURSIVE = """
int fact(int n) {
    if (n <= 1) { return 1; }
    return n * fact(n - 1);
}
"""


def _exact(value):
    """``value`` with every float as hex and every error as its type and
    message, so ``==`` compares bits."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, Exception):
        return type(value).__name__, str(value)
    if isinstance(value, dict):
        return {key: _exact(item) for key, item in value.items()}
    if isinstance(value, tuple):
        return tuple(_exact(item) for item in value)
    return value


def _outcome(query, *args):
    """``query(*args)``'s fields, or the analysis error it raised."""
    try:
        return _exact(asdict(query(*args)))
    except AnalysisError as error:
        return _exact(error)


class TestMemoMatchesReference:
    @pytest.mark.parametrize("name,source", IR_PIN_SOURCES,
                             ids=[name for name, _ in IR_PIN_SOURCES])
    def test_embedded_sources(self, name, source):
        platform = SOURCE_PLATFORMS.get(name, PLATFORM)
        pipeline = CompilationPipeline(platform)
        # One cache for every configuration: its memos are shared across
        # programs, which is what the reference runs check.
        cache = AnalysisCache(platform)
        analyzers = [EnergyAnalyzer(platform, core=core)
                     for core in platform.predictable_cores]
        module = parse(source, name)
        seen = set()
        # Scratchpad allocation moves functions to another code region,
        # which both memos key on.
        for config in [replace(config, spm_allocation=spm)
                       for config in ir_pin_configs() for spm in (False, True)]:
            program, _ = build_program(pipeline, module, config)
            # Configurations often build the same IR; check each once.  The
            # IR text leaves out placement and the fingerprint operands, so
            # only programs equal in both are skipped.
            key = (dump_program(program.clone(share_instructions=True), {}),
                   program_fingerprint(program))
            if key in seen:
                continue
            seen.add(key)
            entries = list(program.task_functions.values()) or \
                list(program.functions.values())[:1]
            for energy in analyzers:
                core = energy.core
                for path_sensitive in (False, True):
                    engine = (PathSensitiveCostEngine if path_sensitive
                              else StructuralCostEngine)
                    reference = whole_program_costs(
                        engine(program, worst_cost(core, platform.memory)))
                    assert _exact(cache_costs(cache, program, core, None,
                                              path_sensitive)) == \
                        _exact(reference), (config, core.name)
                    for opp in core.operating_points:
                        reference = whole_program_costs(engine(
                            program, worst_cost(core, platform.memory, opp)))
                        assert _exact(cache_costs(cache, program, core, opp,
                                                  path_sensitive)) == \
                            _exact(reference), (config, core.name, opp.label)
                        for fn in entries:
                            query = (program, fn.name, opp, path_sensitive)
                            assert _outcome(energy.wcet.analyze, *query) == \
                                _outcome(cache.wcet, program, fn.name, core,
                                         opp, path_sensitive)
                            assert _outcome(energy.analyze, *query) == \
                                _outcome(cache.wcec, program, fn.name, core,
                                         opp, path_sensitive)

    def test_default_core_and_point_match(self):
        platform = nucleo_stm32f091rc()
        program = compile_source(CAMERA_PILL_SOURCE)
        cache = AnalysisCache(platform)
        for fn in program.task_functions.values():
            assert asdict(WCETAnalyzer(platform).analyze(program, fn.name)) \
                == asdict(cache.wcet(program, fn.name))
            assert asdict(EnergyAnalyzer(platform).analyze(program, fn.name)) \
                == asdict(cache.wcec(program, fn.name))


class TestPathSensitiveKey:
    #: One structural fingerprint for every ``BOUND``: only the compared
    #: constant, an operand, differs.
    SOURCE = """
    int g[4];
    int f(int x) {
        int acc = 0;
        if (x > 5) { acc = acc * 7 + g[1] * 3; g[2] = acc / 3; }
        if (x < BOUND) { acc = acc * 5 + g[0] * 9; g[3] = acc / 7; }
        return acc;
    }
    """

    def test_programs_differing_only_in_a_compared_constant(self):
        # With x < 3 the two branches exclude each other, with x < 7 they
        # do not; a cache keyed by the structural fingerprint alone served
        # the first program's bound for the second, below its worst case.
        platform = nucleo_stm32f091rc()
        cache = AnalysisCache(platform)
        first, second = (compile_source(self.SOURCE.replace("BOUND", bound))
                         for bound in ("3", "7"))
        assert program_fingerprint(first) == program_fingerprint(second)
        for program in (first, second):
            assert asdict(cache.wcet(program, "f", path_sensitive=True)) == \
                asdict(WCETAnalyzer(platform).analyze(
                    program, "f", path_sensitive=True))
            assert asdict(cache.wcec(program, "f", path_sensitive=True)) == \
                asdict(EnergyAnalyzer(platform).analyze(
                    program, "f", path_sensitive=True))
        assert cache.wcet(first, "f", path_sensitive=True).cycles < \
            cache.wcet(second, "f", path_sensitive=True).cycles
        # The default mode reads no operand: the second program hits.
        cache.wcet(first, "f")
        hits = cache.stats()["hits"]
        cache.wcet(second, "f")
        assert cache.stats()["hits"] == hits + 1


class TestBothDoorsReject:
    def test_platform_without_predictable_core(self):
        board = apalis_tk1()
        assert not board.predictable_cores
        program = compile_source("int f(int a) { return a + 1; }")
        with pytest.raises(AnalysisError, match="no predictable core"):
            WCETAnalyzer(board)
        with pytest.raises(AnalysisError, match="no predictable core"):
            EnergyAnalyzer(board)
        cache = AnalysisCache(board)
        with pytest.raises(AnalysisError, match="no predictable core"):
            cache.wcet(program, "f")
        with pytest.raises(AnalysisError, match="no predictable core"):
            cache.wcec(program, "f")

    @pytest.mark.parametrize("path_sensitive", [False, True])
    def test_recursion(self, path_sensitive):
        platform = nucleo_stm32f091rc()
        program = compile_source(RECURSIVE)
        queries = [WCETAnalyzer(platform).analyze,
                   EnergyAnalyzer(platform).analyze,
                   AnalysisCache(platform).wcet,
                   AnalysisCache(platform).wcec]
        for query in queries:
            with pytest.raises(AnalysisError,
                               match="programs with recursion are not "
                                     "analysable"):
                query(program, "fact", path_sensitive=path_sensitive)


class TestLoweringValidation:
    def test_each_function_is_validated_once(self, monkeypatch):
        calls = []
        original = Function.validate

        def counting_validate(self):
            calls.append(self.name)
            return original(self)

        monkeypatch.setattr(Function, "validate", counting_validate)
        program = lower_module(parse(CAMERA_PILL_SOURCE))
        assert sorted(calls) == sorted(program.functions)
        assert len(calls) == 6
