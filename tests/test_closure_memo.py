"""Costing on demand: each query costs its entry's call closure, and each
function's cost is memoised across programs under its fingerprint and its
callees' costs.

* **differential**: generated programs (the branchy and frontend-cursor
  generators, callers over inlinable callees and every embedded source)
  built across the 10-gene space through one engine, so variants share
  functions, and queried in a shuffled order on one shared cache (lazily
  filled tables, cross-program function hits): every ``wcet``/``wcec``
  equals the uncached analysers, field for field, floats by ``hex``, for
  every entry, core, operating point and both analysis modes;
* **validation**: each shared function is validated once, and an unknown
  callee or recursion anywhere in the program is rejected as
  :func:`~repro.wcet.analyzer.check_analysable` rejects it;
* **scratchpad allocation** counts what a one-per-instruction structural
  engine counts, each shared function once per distinct callee counts,
  and ranks a recursive program without a ``RecursionError``;
* **warm store**: a second ``scenarios run --all`` on a warm
  ``--cache-dir`` costs no function and appends no record.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict
from typing import List

from hypothesis import example, given, settings, strategies as st

from test_analysis_core import RECURSIVE, _exact
from test_function_builds import configs, sources

from repro.compiler.config import CompilerConfig
from repro.compiler.engine import AnalysisCache, EvaluationEngine
from repro.compiler.engine import cache as cache_module
from repro.compiler.engine.cache import program_fingerprint
from repro.compiler.passes.spm import _worst_case_fetches, allocate_scratchpad
from repro.energy.static_analyzer import EnergyAnalyzer
from repro.errors import TeamPlayError
from repro.frontend.lowering import compile_source
from repro.frontend.parser import parse
from repro.hw.presets import nucleo_stm32f091rc
from repro.ir.cfg import Function, Program
from repro.scenarios.__main__ import main as cli_main
from repro.usecases.camera_pill import CAMERA_PILL_SOURCE
from repro.wcet.analyzer import WCETAnalyzer, check_analysable
from repro.wcet.structural import StructuralCostEngine

PLATFORM = nucleo_stm32f091rc()

#: One reference analyser per predictable core.
_ANALYZERS = {core.name: EnergyAnalyzer(PLATFORM, core=core)
              for core in PLATFORM.predictable_cores}


def _outcome(query, *args):
    """``query(*args)``'s fields, or the error it raised."""
    try:
        return _exact(asdict(query(*args)))
    except TeamPlayError as error:
        return _exact(error)


def check_queries(cache: AnalysisCache, programs: List[Program],
                  rng: random.Random) -> None:
    """Every query of every program on ``cache``, in a shuffled order,
    equals the uncached analysers."""
    queries = [(program, entry, core, opp, path_sensitive)
               for program in programs for entry in program.functions
               for core in PLATFORM.predictable_cores
               for opp in core.operating_points
               for path_sensitive in (False, True)]
    rng.shuffle(queries)
    for program, entry, core, opp, path_sensitive in queries:
        energy = _ANALYZERS[core.name]
        query = (program, entry, opp, path_sensitive)
        assert _outcome(cache.wcet, program, entry, core, opp,
                        path_sensitive) == \
            _outcome(energy.wcet.analyze, *query), (entry, opp.label)
        assert _outcome(cache.wcec, program, entry, core, opp,
                        path_sensitive) == \
            _outcome(energy.analyze, *query), (entry, opp.label)


def build_variants(source: str, sequence: List[CompilerConfig]
                   ) -> List[Program]:
    """``sequence`` built through one engine on ``source`` (the programs
    share functions); configurations that do not build are left out."""
    try:
        module = parse(source)
    except TeamPlayError:
        return []
    engine = EvaluationEngine(module, PLATFORM, [module.functions[0].name])
    programs = []
    for config in sequence:
        try:
            programs.append(engine._build(config)[0])
        except TeamPlayError:
            continue
    return programs


_CALLER_OF_A_MULTIPLY = """
int leaf(int a) { return a * 4; }
int top(int a) {
    int acc = 0;
    for (int i = 0; i < 4; i = i + 1) { acc = acc + leaf(i); }
    return acc;
}
"""

_CALLER_OF_A_LOOP = """
int g[8];
int leaf(int a) {
    int acc = 0;
    for (int i = 0; i < 8; i = i + 1) { acc = acc + g[i] * a; }
    return acc;
}
int top(int a) { return leaf(a) + leaf(a + 1); }
"""

#: One cache for every drawn case: its memos carry across draws.
_SHARED = AnalysisCache(PLATFORM)


class TestMemoMatchesAnalysers:
    @given(source=sources, sequence=st.lists(configs, min_size=1,
                                             max_size=3),
           rng=st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    # Strength reduction turns the callee's multiplication into a shift
    # (same cycles, less energy) and leaves the caller as it is: a memo key
    # without the callee's cost would serve the caller's first energy for
    # the second program.
    @example(source=_CALLER_OF_A_MULTIPLY, sequence=[
        CompilerConfig(), CompilerConfig(strength_reduction=True)],
        rng=random.Random(0))
    def test_shuffled_queries_on_one_shared_cache(self, source, sequence,
                                                   rng):
        check_queries(_SHARED, build_variants(source, sequence), rng)

    def test_query_order_does_not_change_a_result(self):
        # A lazily filled table must not leak into per_function_cycles.
        program = compile_source(CAMERA_PILL_SOURCE)
        forward, backward = AnalysisCache(PLATFORM), AnalysisCache(PLATFORM)
        names = list(program.functions)
        for name in names:
            forward.wcet(program, name)
        for name in reversed(names):
            backward.wcet(program, name)
        for name in names:
            assert asdict(forward.wcet(program, name)) == \
                asdict(backward.wcet(program, name)) == \
                asdict(WCETAnalyzer(PLATFORM).analyze(program, name))


class TestValidation:
    def test_each_shared_function_is_validated_once(self, monkeypatch):
        engine = EvaluationEngine(parse(CAMERA_PILL_SOURCE), PLATFORM,
                                  ["frame_packet"])
        # Three programs (unrolling changes some functions, not all).
        programs = [engine._build(CompilerConfig(unroll_limit=limit))[0]
                    for limit in (8, 16, 32)]
        assert len({program_fingerprint(program)
                    for program in programs}) == 3
        calls = []
        original = Function.validate

        def counting_validate(self):
            calls.append(id(self))
            return original(self)

        monkeypatch.setattr(Function, "validate", counting_validate)
        cache = AnalysisCache(PLATFORM)
        for program in programs:
            for name in program.functions:
                cache.wcet(program, name)
        shared = {id(function) for program in programs
                  for function in program.functions.values()}
        assert sorted(calls) == sorted(shared)
        assert len(shared) < sum(len(program.functions)
                                 for program in programs)

    def test_unknown_callee_anywhere_is_rejected(self):
        program = compile_source(CAMERA_PILL_SOURCE)
        del program.functions["xtea_round"]
        with_error = []
        for query in (WCETAnalyzer(PLATFORM).analyze,
                      AnalysisCache(PLATFORM).wcet,
                      lambda program, name: check_analysable(program)):
            # ``capture_frame`` calls nothing: the error is the program's.
            try:
                query(program, "capture_frame")
            except TeamPlayError as error:
                with_error.append((type(error), str(error)))
        assert len(with_error) == 3 and len(set(with_error)) == 1
        assert "calls unknown function 'xtea_round'" in with_error[0][1]


class TestScratchpadFetches:
    SPM = CompilerConfig(unroll_limit=16, spm_allocation=True)

    def test_shared_functions_are_counted_once(self, monkeypatch):
        engine = EvaluationEngine(parse(CAMERA_PILL_SOURCE), PLATFORM,
                                  ["frame_packet"])
        first = engine._build(self.SPM)
        costed = []
        original = StructuralCostEngine.function_cost

        def counting(self, name):
            costed.append(name)
            return original(self, name)

        monkeypatch.setattr(StructuralCostEngine, "function_cost", counting)
        # The same functions again, placed again by a fresh allocation.
        second = engine._build(self.SPM.with_(path_sensitive=True))
        assert costed == []
        assert [(name, function.code_region) for name, function
                in first[0].functions.items()] == \
            [(name, function.code_region) for name, function
             in second[0].functions.items()]
        assert first[1]["spm_functions"] == second[1]["spm_functions"] > 0

    @given(source=sources, sequence=st.lists(configs, min_size=1,
                                             max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_counts_equal_a_plain_engine(self, source, sequence):
        def one_per_instruction(_function, _instr):
            return 1.0

        for program in build_variants(source, sequence):
            engine = StructuralCostEngine(program, one_per_instruction)
            expected = {}
            for name in program.functions:
                try:
                    expected[name] = engine.function_cost(name).hex()
                except TeamPlayError:
                    continue
            assert {name: count.hex() for name, count
                    in _worst_case_fetches(program).items()} == expected

    def test_a_shared_caller_is_recounted_when_its_callee_changes(self):
        # Unrolling rebuilds the callee and shares the loop-free caller.
        engine = EvaluationEngine(parse(_CALLER_OF_A_LOOP), PLATFORM, ["top"])
        programs = [engine._build(CompilerConfig(unroll_limit=limit))[0]
                    for limit in (0, 8)]
        first, second = (program.functions for program in programs)
        assert first["top"] is second["top"]
        assert first["leaf"] is not second["leaf"]
        for program in programs:
            # A clone's functions carry no memo: a fresh count.
            assert _worst_case_fetches(program) == \
                _worst_case_fetches(program.clone())
        assert _worst_case_fetches(programs[0])["top"] != \
            _worst_case_fetches(programs[1])["top"]

    def test_recursive_functions_are_left_unplaced(self):
        program = compile_source(RECURSIVE + """
        int leaf(int a) { return a + 1; }
        """)
        allocation = allocate_scratchpad(program, PLATFORM)
        assert allocation.placed_functions == ["leaf"]


class TestWarmStore:
    def test_second_sweep_costs_nothing_and_appends_nothing(
            self, tmp_path, monkeypatch, capsys):
        command = ["run", "--all", "--json", "--cache-dir", str(tmp_path)]
        assert cli_main(command) == 0
        cold = json.loads(capsys.readouterr().out)["cache_store"]
        assert cold["appends"] > 0
        computed = []
        original = cache_module._Scope.remember

        def counting(self, function, callees, outcome):
            computed.append(function.name)
            return original(self, function, callees, outcome)

        monkeypatch.setattr(cache_module._Scope, "remember", counting)
        assert cli_main(command) == 0
        warm = json.loads(capsys.readouterr().out)
        assert computed == []
        assert warm["cache_store"]["appends"] == 0
        assert warm["cache_store"]["entries"] == cold["entries"]
        combined = warm["analysis_cache"]["combined"]
        assert sum(row["disk_hits"] for row in combined.values()) > 0
        assert all(row["disk_misses"] == 0 for row in combined.values())
