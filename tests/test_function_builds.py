"""Function-granular builds: the engine against the uncached oracle.

The evaluation engine builds each function once per *effective*
configuration (the fields that can change it) and assembles every
variant's program from shared functions.  Three checks hold it to the one
compile path:

* **Differential**: random configuration *sequences* over the whole
  10-gene space go through one engine per source, so later builds reuse
  the function entries of earlier ones.  Every program, its statistics,
  placements, annotations and metadata must equal ``build_program`` on a
  fresh pipeline (``tests/oracles.py``), and every earlier program must be
  unchanged at the end of the sequence.  Sources come from the branchy
  generator of ``tests/test_path_feasibility.py``, the frontend generator
  of ``tests/test_frontend_cursor.py``, a call-graph generator for
  inlining and hardening, and every embedded source.  A larger budget
  runs under ``bench`` (``benchmarks/test_bench_function_builds.py``).
* **Shared functions**: scratchpad allocation replaces the functions it
  places instead of changing them, so SPM-on and SPM-off variants of one
  engine never see each other's placements, and variants sharing a
  function share its placed copy.  Simulating a variant materialises no
  block: a function no enabled IR pass changed is the engine's lowered
  entry itself, which stays compact.
* The path modes share code but not bounds: see ``TestCacheKeyWidening``
  in ``tests/test_path_feasibility.py``.
"""

from __future__ import annotations

from typing import List

from hypothesis import example, given, settings, strategies as st

from oracles import build_program
from test_frontend_cursor import _program
from test_path_feasibility import branchy_programs
from test_unroll_stamping import IR_PIN_SOURCES, dump_program

from repro.compiler.config import UNROLL_CHOICES, CompilerConfig
from repro.compiler.engine import EvaluationEngine
from repro.compiler.engine.cache import _FUNCTION_FINGERPRINT_ATTR
from repro.compiler.pipeline import CompilationPipeline
from repro.errors import TeamPlayError
from repro.frontend.parser import parse
from repro.hw.presets import nucleo_stm32f091rc
from repro.sim.machine import Simulator
from repro.usecases.camera_pill import CAMERA_PILL_SOURCE

PLATFORM = nucleo_stm32f091rc()

#: Every gene of the extended search space.
configs = st.builds(
    CompilerConfig,
    constant_folding=st.booleans(),
    unroll_limit=st.sampled_from(UNROLL_CHOICES),
    inline_simple_functions=st.booleans(),
    dead_code_elimination=st.booleans(),
    strength_reduction=st.booleans(),
    spm_allocation=st.booleans(),
    harden_security=st.booleans(),
    enable_cse=st.booleans(),
    enable_peephole=st.booleans(),
    path_sensitive=st.booleans(),
)


@st.composite
def call_programs(draw):
    """Callers with counted loops over inlinable callees, some secret.

    Only earlier functions are called, so there is no recursion; the
    constant call arguments fold once inlined.
    """
    parts = ["int g[8];"]
    for index in range(draw(st.integers(2, 4))):
        name = f"f{index}"
        if index == 0 or draw(st.booleans()):
            scale = draw(st.integers(1, 9))
            body = f"return a * {scale} + b;"
        else:
            callee = f"f{draw(st.integers(0, index - 1))}"
            bound = draw(st.sampled_from((2, 4, 6, 8, 12, 20, 40)))
            # ``3`` leaves the caller nothing to fold before inlining.
            constant = draw(st.sampled_from(("1 + 2", "3")))
            body = (f"int acc = 0; "
                    f"for (int i = 0; i < {bound}; i = i + 1) {{ "
                    f"if (a > i) {{ acc = acc + {callee}(i, b) * 2; }} "
                    f"else {{ acc = acc - 1; }} g[i % 8] = acc; }} "
                    f"return acc + {callee}({constant}, a);")
            if draw(st.booleans()):
                parts.append("#pragma teamplay secret(a)\n")
        parts.append(f"int {name}(int a, int b) {{ {body} }}")
    return "\n".join(parts)


#: The generated sources, without the embedded ones.
generated_sources = st.one_of(
    branchy_programs().map(lambda case: case[0]),
    _program(),
    call_programs(),
)

sources = st.one_of(
    generated_sources,
    st.sampled_from([source for _name, source in IR_PIN_SOURCES]),
)


def _snapshot(program, statistics) -> tuple:
    """Everything a build decides: IR text, counters, placements,
    annotations, globals and metadata."""
    return (dump_program(program, statistics), dict(statistics),
            [(name, function.code_region, dict(function.annotations))
             for name, function in program.functions.items()],
            dict(program.global_arrays), dict(program.metadata))


def _outcome(build) -> tuple:
    """``build()``'s program and its snapshot, or the error it raised."""
    try:
        program, statistics = build()
    except TeamPlayError as error:
        return None, None, (type(error).__name__, str(error))
    return program, statistics, _snapshot(program, statistics)


def check_sequence(source: str, sequence: List[CompilerConfig]) -> None:
    """Build ``sequence`` through one engine on ``source``: each build
    equals a fresh oracle build, and leaves the earlier ones as they were.
    """
    try:
        module = parse(source)
    except TeamPlayError:
        return
    engine = EvaluationEngine(module, PLATFORM, [module.functions[0].name])
    built = []
    for config in sequence:
        expected = _outcome(lambda: build_program(
            CompilationPipeline(PLATFORM), module, config))
        program, statistics, snapshot = _outcome(
            lambda: engine._build(config))
        assert snapshot == expected[2], config
        if program is not None:
            built.append((program, statistics, snapshot))
    # Later builds shared the earlier programs' functions and changed none
    # of them.
    for program, statistics, snapshot in built:
        assert _snapshot(program, statistics) == snapshot


_CALLS = """int g[8];
int f0(int a, int b) { return a * 3 + b; }
#pragma teamplay secret(a)
int f1(int a, int b) { int acc = 0; for (int i = 0; i < 4; i = i + 1) {
  if (a > i) { acc = acc + f0(i, b) * 2; } else { acc = acc - 1; }
  g[i % 8] = acc; } return acc + f0(1 + 2, a); }
int f2(int a, int b) { int acc = 0; for (int i = 0; i < 40; i = i + 1) {
  if (a > i) { acc = acc + f0(i, b) * 2; } else { acc = acc - 1; }
  g[i % 8] = acc; } return acc + f0(1 + 2, a); }
"""


_FOLDS_AFTER_INLINING = """int g(int a) { return a * 3; }
int f(int x) { return g(2) + x; }"""


class TestEngineMatchesOracle:
    @given(source=sources, sequence=st.lists(configs, min_size=2,
                                             max_size=5))
    @settings(max_examples=150, deadline=None)
    # Regression pins for the narrowed keys: hardening shared by a
    # function without a secret pragma, inlining that reads a callee
    # (whose constant argument folds only after unrolling re-runs
    # folding), unroll limits that unroll the same loops.
    @example(source=_CALLS, sequence=[
        CompilerConfig(harden_security=False, inline_simple_functions=True,
                       unroll_limit=4),
        CompilerConfig(harden_security=True, inline_simple_functions=True,
                       unroll_limit=8),
        CompilerConfig(harden_security=True, inline_simple_functions=False,
                       unroll_limit=32, spm_allocation=True),
        CompilerConfig(harden_security=False, constant_folding=False,
                       unroll_limit=16, enable_cse=True)])
    # A caller with nothing to fold until inlining hands it ``2 * 3``:
    # folding on and off share its keys up to unrolling, whose refold
    # then tells them apart.
    @example(source=_FOLDS_AFTER_INLINING, sequence=[
        CompilerConfig(inline_simple_functions=True, unroll_limit=4),
        CompilerConfig(inline_simple_functions=True, unroll_limit=4,
                       constant_folding=False)])
    @example(source=_FOLDS_AFTER_INLINING, sequence=[
        CompilerConfig(inline_simple_functions=True, unroll_limit=4,
                       constant_folding=False),
        CompilerConfig(inline_simple_functions=True, unroll_limit=4)])
    # The same caller at unroll limits 0 and 4: unrolling unrolls no loop
    # and only its folding round changes the function, so the unroll
    # step must read "changed" off every counter it reports.
    @example(source=_FOLDS_AFTER_INLINING, sequence=[
        CompilerConfig(inline_simple_functions=True, unroll_limit=0),
        CompilerConfig(inline_simple_functions=True, unroll_limit=4)])
    # A name defined twice: one unit per function would build both and
    # keep one, where lowering the module reports the duplicate.
    @example(source="int f(int a) { return a; }\n"
                    "int f(int b) { return b + 1; }\n"
                    "int g(int x) { return f(x); }",
             sequence=[CompilerConfig(), CompilerConfig(
                 inline_simple_functions=True)])
    @example(source=CAMERA_PILL_SOURCE, sequence=[
        CompilerConfig(unroll_limit=16, spm_allocation=True),
        CompilerConfig(unroll_limit=32, spm_allocation=True,
                       path_sensitive=True),
        CompilerConfig(unroll_limit=8, enable_cse=True,
                       enable_peephole=True, strength_reduction=True)])
    def test_sequence_matches_fresh_builds(self, source, sequence):
        check_sequence(source, sequence)


class TestSharedFunctions:
    SPM_ON = CompilerConfig(unroll_limit=32, spm_allocation=True)
    SPM_OFF = SPM_ON.with_(spm_allocation=False)

    def _variants(self, first: CompilerConfig, second: CompilerConfig):
        engine = EvaluationEngine(parse(CAMERA_PILL_SOURCE), PLATFORM,
                                  ["frame_packet"])
        variant = engine.evaluate(first)
        snapshot = _snapshot(variant.program, variant.pass_statistics)
        later = engine.evaluate(second)
        return engine, variant, snapshot, later

    def test_spm_on_then_off_leaves_the_placements(self):
        _engine, on, snapshot, off = self._variants(self.SPM_ON,
                                                    self.SPM_OFF)
        assert _snapshot(on.program, on.pass_statistics) == snapshot
        assert any(function.code_region for function
                   in on.program.functions.values())
        assert not any(function.code_region for function
                       in off.program.functions.values())
        # The unplaced functions are the same objects in both variants.
        shared = [name for name, function in on.program.functions.items()
                  if function is off.program.functions[name]]
        assert shared and all(on.program.functions[name].code_region
                              is None for name in shared)

    def test_spm_off_then_on_leaves_the_unplaced_program(self):
        _engine, off, snapshot, on = self._variants(self.SPM_OFF,
                                                    self.SPM_ON)
        assert _snapshot(off.program, off.pass_statistics) == snapshot
        assert not any(function.code_region for function
                       in off.program.functions.values())
        assert any(function.code_region for function
                   in on.program.functions.values())

    def test_variants_whose_chains_meet_share_one_placed_copy(self):
        # The peephole pass changes nothing here, so both SPM-on chains
        # meet and both variants hold one placed copy per placed function;
        # the SPM-off variant holds the unplaced functions it copies.
        engine = EvaluationEngine(parse(CAMERA_PILL_SOURCE), PLATFORM,
                                  ["frame_packet"])
        on = engine.evaluate(self.SPM_ON)
        also_on = engine.evaluate(self.SPM_ON.with_(enable_peephole=True))
        off = engine.evaluate(self.SPM_OFF)
        assert also_on.pass_statistics["peephole_rewrites"] == 0
        placed = [name for name, function in on.program.functions.items()
                  if function.code_region]
        assert placed == ["capture_frame", "compress_frame", "xtea_round",
                          "encrypt_packet", "frame_packet"]
        for name, function in on.program.functions.items():
            assert also_on.program.functions[name] is function
            unplaced = off.program.functions[name]
            assert unplaced.code_region is None
            if name in placed:
                assert function is not unplaced
                assert function.blocks is unplaced.blocks
            else:
                assert function is unplaced
        # One fingerprint per distinct function: the six unplaced bodies
        # and the five placed copies.
        fingerprinted = {id(function) for variant in (on, also_on, off)
                         for function in variant.program.functions.values()
                         if _FUNCTION_FINGERPRINT_ATTR in vars(function)}
        assert len(fingerprinted) == 11

    def test_simulation_materialises_no_lowered_entry(self):
        engine = EvaluationEngine(parse(CAMERA_PILL_SOURCE), PLATFORM,
                                  ["frame_packet"])
        variant = engine.evaluate(self.SPM_OFF)
        lowered: List = [entry[1] for entry
                         in engine.builds.tables["lower"]._entries.values()]
        compact = [block for program in lowered
                   for function in program.functions.values()
                   for block in function.blocks.values() if block.compact]
        assert compact
        held = [block for function in variant.program.functions.values()
                for block in function.blocks.values() if block.compact]
        simulator = Simulator(variant.program, PLATFORM)
        for name, function in variant.program.functions.items():
            simulator.run(name, [3] * len(function.params))
        # The simulator reads its own flat copy of each compact block.
        assert held and all(block.compact for block in held)
        # A later build on the same lowered functions runs its IR passes
        # on compact blocks and counts what the oracle counts.
        config = self.SPM_OFF.with_(enable_cse=True, strength_reduction=True)
        later = engine.evaluate(config)
        assert all(block.compact for block in compact)
        assert engine.lowering.misses == len(lowered)
        _program, expected = build_program(CompilationPipeline(PLATFORM),
                                           parse(CAMERA_PILL_SOURCE), config)
        assert later.pass_statistics == expected

    def test_simulation_leaves_the_lowered_entry_compact(self):
        # No enabled IR pass changes ``filter_frame`` here, so the variant
        # holds the engine's lowered entry itself; simulating it once
        # flattened that entry for every later build.
        engine = EvaluationEngine(parse(CAMERA_PILL_SOURCE), PLATFORM,
                                  ["filter_frame"])
        variant = engine.evaluate(CompilerConfig(unroll_limit=32,
                                                 strength_reduction=False))
        lowered = [entry[1].functions["filter_frame"] for entry
                   in engine.builds.tables["lower"]._entries.values()
                   if "filter_frame" in entry[1].functions]
        assert variant.program.function("filter_frame") in lowered

        def compact():
            return [sum(block.compact for block in function.blocks.values())
                    for function in lowered]

        before = compact()
        assert sum(before) > 0
        result = Simulator(variant.program, PLATFORM).run("filter_frame", [3])
        assert compact() == before
        fresh, _ = build_program(CompilationPipeline(PLATFORM),
                                 parse(CAMERA_PILL_SOURCE),
                                 CompilerConfig(unroll_limit=32))
        assert result == Simulator(fresh, PLATFORM).run("filter_frame", [3])
