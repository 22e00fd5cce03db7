"""Path-sensitive WCET: the differential bound-soundness harness.

The headline property of :mod:`repro.wcet.paths` is a sandwich:

    simulated worst case  ≤  path-sensitive bound  ≤  structural bound

checked here three ways:

* a **hypothesis differential harness** over hundreds of generated
  branch-heavy TeamPlay-C programs (if-chains whose conditions compare one
  input against constants and congruence classes — exactly the shape whose
  contradictory combinations the pruner should detect),
* **hand-built CFGs with known-infeasible paths** whose pruned bounds are
  pinned exactly (contradictory interval chains, congruence-disjoint
  branches),
* **degenerate flow** (self-loops, unreachable blocks, exponential
  if-chains under a tiny path cap): enumeration must terminate, never
  raise, fall back to the structural bound, and log the fallback.

A final property test covers the cache contract: two configurations
differing only in ``path_sensitive`` never share a variant or an analysis
table, and share every function build.
"""

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    acyclic_longest_feasible_path_cost,
    acyclic_longest_path_cost,
    feasible_longest_path_cost,
)
from test_pipeline import KEY_SOURCE, chain_keys
from repro.compiler.config import CompilerConfig
from repro.compiler.engine import EvaluationEngine
from repro.compiler.pipeline import PassManager
from repro.frontend.lowering import compile_source
from repro.frontend.parser import parse
from repro.hw.presets import nucleo_stm32f091rc
from repro.ir.cfg import BasicBlock, Function
from repro.ir.instructions import Imm, Opcode, Reg, binop, branch, jump, ret
from repro.sim.machine import Simulator
from repro.wcet.analyzer import WCETAnalyzer
from repro.wcet.paths import PathSensitiveCostEngine, PathStats
from repro.wcet.structural import StructuralCostEngine

PLATFORM = nucleo_stm32f091rc()


# ---------------------------------------------------------------------------
# Differential harness: generated branch-heavy programs
# ---------------------------------------------------------------------------
def _condition(kind: int, constant: int, modulus: int) -> str:
    """One branch condition over the single input ``x``."""
    return {
        0: f"x > {constant}",
        1: f"x < {constant}",
        2: f"x == {constant}",
        3: f"x % {modulus} == {constant % modulus}",
        4: f"x % 2",
    }[kind]


def _branchy_source(conds, weights, loop_bound) -> str:
    """A branch-heavy task: an if-chain over ``x`` inside a bounded loop.

    Each body has a different weight so distinct paths have distinct
    costs; everything accumulates into the returned value so dead-code
    elimination in other configurations cannot interfere.
    """
    body = []
    for index, (cond, weight) in enumerate(zip(conds, weights)):
        lines = "\n".join(
            f"            acc = acc + x * {weight + k} + i + {index};"
            for k in range(weight))
        body.append(f"        if ({cond}) {{\n{lines}\n        }}")
    chain = "\n".join(body)
    return f"""
int task(int x) {{
    int acc = 0;
    for (int i = 0; i < {loop_bound}; i = i + 1) {{
{chain}
    }}
    return acc;
}}
"""


condition_kinds = st.integers(min_value=0, max_value=4)
constants = st.integers(min_value=-6, max_value=6)
moduli = st.sampled_from([2, 3, 4, 5, 8])


@st.composite
def branchy_programs(draw):
    count = draw(st.integers(min_value=2, max_value=4))
    conds = [
        _condition(draw(condition_kinds), draw(constants), draw(moduli))
        for _ in range(count)
    ]
    weights = [draw(st.integers(min_value=1, max_value=3))
               for _ in range(count)]
    loop_bound = draw(st.integers(min_value=1, max_value=4))
    inputs = draw(st.lists(st.integers(min_value=-12, max_value=12),
                           min_size=1, max_size=4))
    return _branchy_source(conds, weights, loop_bound), inputs


class TestDifferentialHarness:
    @given(case=branchy_programs())
    @settings(max_examples=220, deadline=None)
    def test_simulation_pruned_and_structural_bounds_nest(self, case):
        source, inputs = case
        program = compile_source(source)
        analyzer = WCETAnalyzer(PLATFORM)
        structural = analyzer.analyze(program, "task")
        pruned = analyzer.analyze(program, "task", path_sensitive=True)

        assert pruned.cycles <= structural.cycles
        # Boundary inputs around every constant in the conditions stress
        # the interval endpoints the refinement narrows to.
        for x in set(inputs) | {-7, -1, 0, 1, 7}:
            observed = Simulator(program, PLATFORM).run("task", [x])
            assert observed.cycles <= pruned.cycles

    @given(case=branchy_programs())
    @settings(max_examples=40, deadline=None)
    def test_pruning_never_fails_open_loudly(self, case):
        """Counters account for every unit: fallbacks or enumerations."""
        source, _ = case
        program = compile_source(source)
        analyzer = WCETAnalyzer(PLATFORM)
        analyzer.analyze(program, "task", path_sensitive=True)
        stats = analyzer.last_path_stats["task"]
        assert stats.units >= 1
        assert (stats.paths_enumerated > 0
                or stats.cap_fallbacks + stats.irregular_fallbacks > 0)


# ---------------------------------------------------------------------------
# Hand-built CFGs: pinned pruning results
# ---------------------------------------------------------------------------
def _unit_cost(function, instr):
    return 1.0


def _add(reg="a"):
    return binop(Opcode.ADD, Reg(reg), Reg(reg), Imm(1))


def _contradictory_chain() -> Function:
    """``if (x > 5) {...}; if (x < 3) {...}`` — both-taken is infeasible."""
    function = Function(name="f", params=["x"], entry="entry")
    function.add_block(BasicBlock("entry", [
        binop(Opcode.CMPGT, Reg("t"), Reg("x"), Imm(5)),
        branch(Reg("t"), "then1", "join1")]))
    function.add_block(BasicBlock("then1", [_add(), _add(), _add(),
                                            jump("join1")]))
    function.add_block(BasicBlock("join1", [
        binop(Opcode.CMPLT, Reg("u"), Reg("x"), Imm(3)),
        branch(Reg("u"), "then2", "exitb")]))
    function.add_block(BasicBlock("then2", [_add(), _add(), _add(), _add(),
                                            _add(), jump("exitb")]))
    function.add_block(BasicBlock("exitb", [ret(Reg("a"))]))
    return function


def _congruence_disjoint() -> Function:
    """``if (x % 2 != 0) {...}; if (x % 4 == 0) {...}`` — CRT contradiction."""
    function = Function(name="g", params=["x"], entry="entry")
    function.add_block(BasicBlock("entry", [
        binop(Opcode.MOD, Reg("m1"), Reg("x"), Imm(2)),
        binop(Opcode.CMPNE, Reg("t"), Reg("m1"), Imm(0)),
        branch(Reg("t"), "then1", "join1")]))
    function.add_block(BasicBlock("then1", [_add(), _add(), jump("join1")]))
    function.add_block(BasicBlock("join1", [
        binop(Opcode.MOD, Reg("m2"), Reg("x"), Imm(4)),
        binop(Opcode.CMPEQ, Reg("u"), Reg("m2"), Imm(0)),
        branch(Reg("u"), "then2", "exitb")]))
    function.add_block(BasicBlock("then2", [_add(), _add(), _add(),
                                            jump("exitb")]))
    function.add_block(BasicBlock("exitb", [ret(Reg("a"))]))
    return function


class TestPinnedInfeasiblePaths:
    def test_contradictory_interval_chain_is_pruned_exactly(self):
        function = _contradictory_chain()
        stats = PathStats()
        best = feasible_longest_path_cost(function, _unit_cost, stats=stats)
        # Structural (= DAG-longest) walks both then-blocks: 2+4+2+6+1 = 15.
        # Feasible worst case takes only the heavier branch:   2+2+6+1 = 11.
        assert acyclic_longest_path_cost(function, _unit_cost) == 15.0
        assert best == 11.0
        assert stats.paths_enumerated == 3
        assert stats.paths_pruned == 1

    def test_congruence_disjoint_branches_are_pruned_exactly(self):
        function = _congruence_disjoint()
        stats = PathStats()
        best = feasible_longest_path_cost(function, _unit_cost, stats=stats)
        # x odd (first taken) contradicts x ≡ 0 (mod 4) (second taken):
        # structural walks both then-blocks (3+3+3+4+1 = 14), the feasible
        # worst case only the heavier one (3+3+4+1 = 11).
        assert acyclic_longest_path_cost(function, _unit_cost) == 14.0
        assert best == 11.0
        assert stats.paths_pruned == 1

    def test_ipet_feasible_variant_prunes_and_falls_back(self):
        function = _contradictory_chain()
        assert acyclic_longest_feasible_path_cost(function,
                                                  _unit_cost) == 11.0
        # With a cap of one path the enumeration gives up and the helper
        # silently returns the path-insensitive optimum.
        assert acyclic_longest_feasible_path_cost(
            function, _unit_cost, path_cap=1) == 15.0

    def test_source_level_contradiction_tightens_compiled_bound(self):
        """The pinned kernel of the issue: strict tightening, end to end."""
        program = compile_source("""
int task(int x) {
    int acc = 0;
    for (int i = 0; i < 16; i = i + 1) {
        if (x > 5) {
            acc = acc + x * 3 + i;
            acc = acc + x;
            acc = acc + i * 2;
        }
        if (x < 3) {
            acc = acc - x * 7 + i;
            acc = acc - x;
            acc = acc + i * 5;
        }
    }
    return acc;
}
""")
        analyzer = WCETAnalyzer(PLATFORM)
        structural = analyzer.analyze(program, "task")
        pruned = analyzer.analyze(program, "task", path_sensitive=True)
        assert pruned.cycles < structural.cycles
        stats = analyzer.last_path_stats["task"]
        assert stats.paths_pruned >= 1
        for x in range(-10, 20):
            observed = Simulator(program, PLATFORM).run("task", [x])
            assert observed.cycles <= pruned.cycles


# ---------------------------------------------------------------------------
# Degenerate flow: caps, cycles, unreachable blocks (the regression tests)
# ---------------------------------------------------------------------------
def _havoc_chain(length: int) -> Function:
    """``length`` independent unknown-condition ifs: 2**length paths."""
    function = Function(name="k", params=["x"], entry="b0")
    for index in range(length):
        next_label = f"b{index + 1}" if index + 1 < length else "exitb"
        function.add_block(BasicBlock(f"b{index}", [
            binop(Opcode.CMPGT, Reg(f"t{index}"), Reg(f"y{index}"), Imm(0)),
            branch(Reg(f"t{index}"), f"p{index}", f"q{index}")]))
        function.add_block(BasicBlock(f"p{index}", [_add(),
                                                    jump(next_label)]))
        function.add_block(BasicBlock(f"q{index}", [jump(next_label)]))
    function.add_block(BasicBlock("exitb", [ret(Reg("a"))]))
    return function


class TestDegenerateFlow:
    def test_path_cap_forces_clean_fallback(self):
        function = _havoc_chain(6)  # 64 paths
        stats = PathStats()
        best = feasible_longest_path_cost(function, _unit_cost,
                                          path_cap=16, stats=stats)
        assert best is None
        assert stats.cap_fallbacks == 1
        # An adequate budget enumerates all 64 and matches the DAG optimum
        # (no conditions are related, so nothing can be pruned).
        assert feasible_longest_path_cost(function, _unit_cost) == \
            acyclic_longest_path_cost(function, _unit_cost)

    def test_self_loop_terminates_with_irregular_fallback(self):
        function = Function(name="h", params=[], entry="entry")
        function.add_block(BasicBlock("entry", [jump("loop")]))
        function.add_block(BasicBlock("loop", [_add(), jump("loop")]))
        stats = PathStats()
        best = feasible_longest_path_cost(function, _unit_cost, stats=stats)
        assert best is None
        assert stats.irregular_fallbacks == 1
        assert stats.paths_enumerated == 0

    def test_unreachable_block_terminates_and_excludes_nothing_reached(self):
        function = Function(name="u", params=["x"], entry="entry")
        function.add_block(BasicBlock("entry", [jump("exitb")]))
        function.add_block(BasicBlock("orphan", [_add(), jump("exitb")]))
        function.add_block(BasicBlock("exitb", [ret(Reg("a"))]))
        stats = PathStats()
        best = feasible_longest_path_cost(function, _unit_cost, stats=stats)
        # The orphan block is simply never entered; enumeration terminates
        # with the one real path.
        assert best == 2.0
        assert stats.paths_enumerated == 1

    def test_engine_cap_fallback_matches_structural_bound(self):
        """Satellite regression: capped units keep the structural answer."""
        conds = " ".join(
            f"if (a{i} > 0) {{ acc = acc + a{i}; }}" for i in range(8))
        source = f"""
int task(int a0, int a1, int a2, int a3, int a4, int a5, int a6, int a7) {{
    int acc = 0;
    {conds}
    return acc;
}}
"""
        program = compile_source(source)
        structural = StructuralCostEngine(program, _unit_cost)
        capped = PathSensitiveCostEngine(program, _unit_cost, path_cap=4)
        assert capped.function_cost("task") == \
            structural.function_cost("task")
        stats = capped.path_stats["task"]
        assert stats.cap_fallbacks >= 1
        # With the default cap the 256 independent paths all enumerate and
        # (nothing being contradictory) still match the structural bound.
        relaxed = PathSensitiveCostEngine(program, _unit_cost)
        assert relaxed.function_cost("task") == \
            structural.function_cost("task")
        assert relaxed.path_stats["task"].cap_fallbacks == 0


# ---------------------------------------------------------------------------
# Satellite: cache keys must widen with the new flag
# ---------------------------------------------------------------------------
config_flags = st.booleans()


@st.composite
def base_configs(draw):
    return CompilerConfig(
        constant_folding=draw(config_flags),
        unroll_limit=draw(st.sampled_from([0, 4, 8])),
        inline_simple_functions=draw(config_flags),
        dead_code_elimination=draw(config_flags),
        strength_reduction=draw(config_flags),
        spm_allocation=draw(config_flags),
    )


class TestCacheKeyWidening:
    @given(config=base_configs())
    @settings(max_examples=30, deadline=None)
    def test_path_sensitive_flag_splits_cache_keys(self, config):
        manager = PassManager()
        flipped = config.with_(path_sensitive=True)
        assert manager.canonical_key(config) != manager.canonical_key(flipped)
        # The marker changes no code, so the flag enters no build key:
        # every function's key after every step is shared.
        for function in parse(KEY_SOURCE).functions:
            assert chain_keys(manager, config, function) \
                == chain_keys(manager, flipped, function)
        # Everything else equal, the keys differ only in that flag.
        differing = [a != b for a, b in zip(manager.canonical_key(config),
                                            manager.canonical_key(flipped))]
        assert differing.count(True) == 1

    def test_path_modes_share_code_not_bounds(self):
        # The path-feasibility marker changes no code: flipping only the
        # flag builds no function again, yet yields its own variant,
        # analysed from the analysis cache's separate "paths" tables.
        source = _branchy_source(["x > 2", "x % 3 == 1"], [1, 2], 3)
        engine = EvaluationEngine(parse(source), PLATFORM, ["task"])
        config = CompilerConfig()
        default = engine.evaluate(config)
        builds = {segment: table.misses
                  for segment, table in engine.builds.tables.items()}
        flipped = engine.evaluate(config.with_(path_sensitive=True))
        assert {segment: table.misses for segment, table
                in engine.builds.tables.items()} == builds
        assert engine.lowering.misses == engine.ir_stage.misses == 1
        assert flipped is not default
        assert flipped.config.path_sensitive
        assert engine.variants.misses == 2
        assert flipped.program.function("task") \
            is default.program.function("task")
        tables = list(engine.analysis._cycle_tables)
        assert [key[-1] == "paths" for key in tables] == [False, True]
        assert flipped.wcet_cycles <= default.wcet_cycles

    def test_gene_roundtrip_carries_the_flag(self):
        config = CompilerConfig(path_sensitive=True)
        genes = config.to_genes(extended=True)
        assert len(genes) == CompilerConfig.gene_length(extended=True)
        assert CompilerConfig.from_genes(genes).path_sensitive is True
        # Only the 7- and 10-gene spaces decode.
        with pytest.raises(ValueError, match="expected 7 or 10 genes"):
            CompilerConfig.from_genes(genes[:9])
