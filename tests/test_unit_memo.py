"""The path-sensitive unit memo and the bound on the cross-program memos.

A unit of :class:`~repro.wcet.paths.PathSensitiveCostEngine` is enumerated
from the top state and its enumeration reads no cost, so its feasible
paths depend only on the unit's code;
:class:`~repro.compiler.engine.cache.AnalysisCache` shares them across
programs and across every cost scope (kind, cost model, operating point)
in one memo, keyed label-free and price-free on exactly what the
enumeration reads, and each scope prices the paths with its own block
costs.  These tests hold the memo to the memo-free engine:

* **soundness pins**: units that differ only in one compared constant or
  in their successor shape get entries and bounds of their own (a key
  missing either would serve a bound below a worst case, the bug class of
  the path-sensitive table key); a unit priced dearer in another scope
  shares its entry and still gets the dearer bound;
* **differential**: generated branchy programs built across the 10-gene
  configuration space, analysed through one shared cache per predictable
  preset, on every core, at every operating point and in both path modes,
  equal a memo-free engine run bit for bit (floats as ``hex``);
* **work counters**: a memo hit adds to ``unit_hits`` only, and a unit
  queried in every scope of a core is enumerated once;
* **bound**: the block-cost, unit and function memos stay within
  :data:`~repro.wcet.structural.MEMO_LIMIT` however many programs arrive;
* **compact blocks**: path analysis reads a block holding an unrolled run
  without materialising it.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from oracles import build_program, cache_costs, whole_program_costs
from test_bound_audit import PREDICTABLE_PRESETS
from test_path_feasibility import branchy_programs

from repro.compiler.config import (EXTENDED_GENE_LENGTH, UNROLL_CHOICES,
                                   CompilerConfig)
from repro.compiler.engine.cache import AnalysisCache
from repro.compiler.pipeline import CompilationPipeline
from repro.frontend.lowering import compile_source
from repro.frontend.parser import parse
from repro.hw import presets
from repro.hw.presets import nucleo_stm32f091rc
from repro.ir.cfg import Program
from repro.ir.instructions import Instr, Opcode
from repro.ir.runs import Run
from repro.wcet import structural
from repro.wcet.analyzer import worst_cost
from repro.wcet.paths import PathSensitiveCostEngine
from repro.wcet.structural import StructuralCostEngine

PLATFORM = nucleo_stm32f091rc()

#: Two ifs in one unit; with ``BOUND`` = 3 both-taken is infeasible.
CHAIN = """
int g[4];
int f(int x) {
    int acc = 0;
    if (x > 5) { acc = acc * 7 + g[1] * 3; g[2] = acc / 3; }
    if (x < BOUND) { acc = acc * 5 + g[0] * 9; g[3] = acc / 7; }
    return acc;
}
"""


def _hex_table(table):
    costs, errors = table
    return ({name: cost.hex() for name, cost in costs.items()},
            {name: str(error) for name, error in errors.items()})


def _cycles(fn, instr):
    return float(len(instr.srcs) + 1)


def _engine(program: Program, instr_cost=_cycles, memo=None):
    return PathSensitiveCostEngine(program, instr_cost, unit_memo=memo)


def _pinned(programs, costs, memo):
    """Each ``(program, cost)`` analysed on one shared ``memo`` equals its
    memo-free run; returns the bounds of ``f``."""
    bounds = []
    for program, instr_cost in zip(programs, costs):
        entries = len(memo)
        engine = _engine(program, instr_cost, memo)
        assert _hex_table(whole_program_costs(engine)) == \
            _hex_table(whole_program_costs(_engine(program, instr_cost)))
        assert engine.path_stats["f"].unit_hits == 0
        assert len(memo) == entries + 1
        bounds.append(engine.function_cost("f"))
    return bounds


class TestSoundnessPins:
    def test_a_compared_constant(self):
        programs = [compile_source(CHAIN.replace("BOUND", bound))
                    for bound in ("3", "7")]
        tight, loose = _pinned(programs, [_cycles] * 2, {})
        assert tight < loose

    def test_a_successor_shape(self):
        first = compile_source(CHAIN.replace("BOUND", "7"))
        second = first.clone()
        # Same blocks in the same discovery order, same instructions and
        # costs; one jump leaves the unit instead of reaching its last
        # block, so the paths through it end one block earlier.
        block = second.function("f").block("if.then.6")
        block.instrs[-1] = Instr(Opcode.JMP, true_target="elsewhere")
        longer, shorter = _pinned([first, second], [_cycles] * 2, {})
        assert shorter < longer

    def test_a_block_cost(self):
        # The feasible paths read no cost: the dearer scope hits the unit
        # the cheaper one enumerated, and prices its paths dearer.
        program = compile_source(CHAIN.replace("BOUND", "3"))

        def dearer_mul(fn, instr):
            return _cycles(fn, instr) + (5.0 if instr.opcode is Opcode.MUL
                                         else 0.0)

        memo = {}
        bounds = []
        for instr_cost, hits in ((_cycles, 0), (dearer_mul, 1)):
            engine = _engine(program, instr_cost, memo)
            assert _hex_table(whole_program_costs(engine)) == \
                _hex_table(whole_program_costs(_engine(program, instr_cost)))
            stats = engine.path_stats["f"]
            assert (stats.units, stats.unit_hits) == (1 - hits, hits)
            assert len(memo) == 1
            bounds.append(engine.function_cost("f"))
        cheap, dear = bounds
        assert cheap < dear

    def test_cores_and_operating_points_through_the_cache(self):
        # The cache scopes memos by core and operating point; every table
        # still equals its memo-free reference.
        cache = AnalysisCache(PLATFORM)
        program = compile_source(CHAIN.replace("BOUND", "3"))
        for core in PLATFORM.predictable_cores:
            assert _hex_table(cache_costs(cache, program, core, None, True)) \
                == _hex_table(whole_program_costs(
                    _engine(program, worst_cost(core, PLATFORM.memory))))
            for opp in core.operating_points:
                assert _hex_table(cache_costs(cache, program, core, opp,
                                              True)) \
                    == _hex_table(whole_program_costs(_engine(
                        program, worst_cost(core, PLATFORM.memory, opp))))


#: One cache per predictable preset for every drawn program: its memos
#: carry across draws, cores, operating points and path modes.
_SHARED = [AnalysisCache(presets.platform_by_name(name))
           for name in PREDICTABLE_PRESETS]

genes = st.lists(st.floats(min_value=0.0, max_value=1.0),
                 min_size=EXTENDED_GENE_LENGTH,
                 max_size=EXTENDED_GENE_LENGTH)


class TestMemoDifferential:
    @given(case=branchy_programs(), vector=genes)
    @settings(max_examples=40, deadline=None)
    def test_shared_memo_matches_memo_free_engine(self, case, vector):
        source, _ = case
        config = CompilerConfig.from_genes(vector)
        for cache in _SHARED:
            platform = cache.platform
            program, _ = build_program(CompilationPipeline(platform),
                                       parse(source), config)
            for core in platform.predictable_cores:
                for opp in (None, *core.operating_points):
                    instr_cost = worst_cost(core, platform.memory, opp)
                    for engine in (StructuralCostEngine, _engine):
                        assert _hex_table(cache_costs(
                            cache, program, core, opp,
                            engine is _engine)) == _hex_table(
                                whole_program_costs(engine(program,
                                                           instr_cost)))


class TestWorkCounters:
    def test_a_hit_adds_only_to_unit_hits(self):
        twice = CHAIN.replace("BOUND", "3") + \
            CHAIN.replace("BOUND", "3").replace("int g[4];", "") \
                 .replace("int f(", "int h(")
        program = compile_source(twice)
        engine = _engine(program, memo={})
        assert _hex_table(whole_program_costs(engine)) == \
            _hex_table(whole_program_costs(_engine(program)))
        first, second = engine.path_stats["f"], engine.path_stats["h"]
        assert (first.units, first.unit_hits) == (1, 0)
        assert first.paths_enumerated > 0
        assert (second.units, second.unit_hits) == (0, 1)
        assert second.paths_enumerated == second.paths_pruned == 0

    def test_cache_reports_hits_apart(self):
        cache = AnalysisCache(PLATFORM)
        chain = CHAIN.replace("BOUND", "3")
        programs = [compile_source(source) for source in
                    (chain, chain + chain.replace("int g[4];", "")
                     .replace("int f(", "int h("))]
        cache.wcet(programs[0], "f", path_sensitive=True)
        # Another program holding the same ``f`` and an ``h`` with the same
        # unit: ``f`` is a function-memo hit, which enumerates nothing, and
        # ``h``, another function, hits the unit memo.
        cache.wcet(programs[1], "f", path_sensitive=True)
        cache.wcet(programs[1], "h", path_sensitive=True)
        stats = cache.stats()
        assert (stats["path_units"], stats["path_unit_hits"]) == (1, 1)
        assert cache.path_stats()["totals"]["unit_hits"] == 1

    def test_one_enumeration_serves_every_scope(self):
        # ``f`` is one unit: cycles, then energy at every operating point,
        # each a function miss in a scope of its own, enumerate it once.
        cache = AnalysisCache(PLATFORM)
        program = compile_source(CHAIN.replace("BOUND", "3"))
        core = PLATFORM.predictable_cores[0]
        scopes = (None, *core.operating_points)
        for opp in scopes:
            assert _hex_table(cache_costs(cache, program, core, opp, True,
                                          ["f"])) \
                == _hex_table(whole_program_costs(_engine(
                    program, worst_cost(core, PLATFORM.memory, opp))))
        stats = cache.stats()
        assert len(scopes) > 2
        assert (stats["path_units"], stats["path_unit_hits"]) == \
            (1, len(scopes) - 1)
        alone = _engine(program)
        alone.function_cost("f")
        assert stats["paths_enumerated"] == \
            alone.path_stats["f"].paths_enumerated > 0


class TestMemoBound:
    def test_memos_stay_within_the_limit(self, monkeypatch):
        monkeypatch.setattr(structural, "MEMO_LIMIT", 6)
        cache = AnalysisCache(PLATFORM)
        core = PLATFORM.predictable_cores[0]
        for bound in range(20):
            # Distinct compared constants and block contents per program.
            source = CHAIN.replace("BOUND", str(bound)) \
                .replace("/ 7", f"/ 7 + {'g[0] + ' * (bound % 5)}1")
            program = compile_source(source)
            assert _hex_table(cache_costs(cache, program, core, None, True)) \
                == _hex_table(whole_program_costs(
                    _engine(program, worst_cost(core, PLATFORM.memory))))
            memos = [*cache._block_costs.values(),
                     cache._unit_outcomes,
                     *(scope.functions for scope in cache._scopes.values())]
            assert memos and all(len(memo) <= 6 for memo in memos)
        assert cache.stats()["path_units"] == 20


class TestCompactBlocks:
    SOURCE = """
int g[8];
int f(int x) {
    int acc = 0;
    if (x > 3) {
        for (int i = 0; i < 8; i = i + 1) { acc = acc + g[i] * 3; }
    }
    return acc;
}
"""

    def test_path_analysis_leaves_an_unrolled_branch_compact(self):
        config = CompilerConfig(unroll_limit=max(UNROLL_CHOICES))
        program, _ = build_program(CompilationPipeline(PLATFORM),
                                   parse(self.SOURCE), config)
        compact = [block for block in program.function("f").blocks.values()
                   if any(isinstance(part, Run) for part in block.parts)]
        assert compact
        flat = program.clone()
        for block in flat.function("f").blocks.values():
            block.instrs
        cache = AnalysisCache(PLATFORM)
        bound = cache.wcet(program, "f", path_sensitive=True)
        assert all(block.compact for block in compact)
        assert cache.stats()["path_units"] >= 1
        assert bound == AnalysisCache(PLATFORM).wcet(
            flat, "f", path_sensitive=True)
