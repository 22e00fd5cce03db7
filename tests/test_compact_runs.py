"""Unrolled straight-line copies kept as one repeated run.

Lowering keeps an unrolled loop whose body is straight-line code as one
:class:`~repro.ir.runs.Run` inside its block, and the IR passes (DCE,
strength reduction, peephole), fingerprinting, validation and structural
costing work on the run's template.  Three checks hold that to the flat IR:

* **Compact-vs-flat differential**: every embedded source across the IR
  pin's configurations and the IR pass flags, and the generated programs of
  ``tests/test_unroll_stamping.py``, built once as shipped and once
  materialised right after lowering, then through the same passes.  The
  IR text, pass statistics, fingerprint and every cycle and energy table
  must be equal, bit for bit.
* **Laziness pin**: building and analysing the largest camera-pill variant
  materialises no block and keeps few instructions alive.
* **Value semantics**: a compact program pickles, and a clone's rewrite
  never reaches the original's runs.
"""

from __future__ import annotations

import gc
import hashlib
import pickle
from dataclasses import replace
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings

from oracles import build_program, cache_costs
from test_compiler_passes import _single_block_function
from test_frontend_cursor import _program
from test_unroll_stamping import (
    IR_PIN_SOURCES,
    PLATFORM,
    _unrollable_program,
    dump_program,
    ir_pin_configs,
)

from repro.compiler.config import UNROLL_CHOICES, CompilerConfig
from repro.compiler.driver import MultiCriteriaCompiler
from repro.compiler.engine.cache import AnalysisCache, program_fingerprint
from repro.compiler.passes.ir_passes import (
    _expression_key,
    _renamed_key,
    eliminate_common_subexpressions,
    strength_reduce,
)
from repro.compiler.pipeline import CompilationPipeline
from repro.errors import FrontendError
from repro.frontend.parser import parse
from repro.hw.platform import Platform
from repro.hw.presets import gr712rc
from repro.ir.cfg import Program
from repro.ir.instructions import Imm, Instr, Opcode, Reg
from repro.ir.runs import Run
from repro.usecases import camera_pill
from repro.usecases.camera_pill import CAMERA_PILL_SOURCE

#: The platform each embedded source is built for (default: ``PLATFORM``).
SOURCE_PLATFORMS: Dict[str, Platform] = {
    "camera-pill": camera_pill.platform(),
    "space": gr712rc(),
    "smart-meter": gr712rc(),
}

#: DCE, strength reduction and peephole each on or off, then all with CSE.
IR_FLAGS: Tuple[Dict[str, bool], ...] = tuple(
    dict(dead_code_elimination=dce, strength_reduction=sr,
         enable_peephole=peephole, enable_cse=False)
    for dce in (False, True) for sr in (False, True)
    for peephole in (False, True)) + (
    dict(dead_code_elimination=True, strength_reduction=True,
         enable_peephole=True, enable_cse=True),)


def _materialise(program: Program) -> Program:
    for function in program.functions.values():
        for block in function.blocks.values():
            block.instrs
    return program


def _layout(program: Program) -> Tuple:
    """Where the runs are: per block, each part's copy count (1: instr)."""
    return tuple((label, tuple(part.count if isinstance(part, Run) else 1
                               for part in block.parts))
                 for function in program.functions.values()
                 for label, block in function.blocks.items())


def _compact_blocks(program: Program) -> List[str]:
    return [label for function in program.functions.values()
            for label, block in function.blocks.items() if block.compact]


def _tables(cache: AnalysisCache, program: Program, platform: Platform):
    """Every cycle and energy table of ``program``, floats as hex."""
    out = []
    for core in platform.predictable_cores:
        for opp in [None, *core.operating_points]:
            table, errors = cache_costs(cache, program, core, opp, False)
            out.append((core.name, opp and opp.label,
                        {name: cost.hex() for name, cost in table.items()},
                        {name: str(error) for name, error in errors.items()}))
    return out


class _Differential:
    """Builds programs compact and flat and compares what passes make.

    Each side gets its own analysis cache, so no table or block cost is
    shared between the compact and the flat build.
    """

    def __init__(self, platform: Platform):
        self.platform = platform
        self.pipeline = CompilationPipeline(platform)
        self.compact_cache = AnalysisCache(platform)
        self.flat_cache = AnalysisCache(platform)
        self.seen = set()

    def check(self, program: Program, config: CompilerConfig) -> None:
        """``program`` is freshly lowered under ``config``; each distinct
        lowering (IR text and run layout) is checked once."""
        key = (hashlib.sha256(dump_program(program.clone(True), {})
                              .encode()).hexdigest(), _layout(program))
        if key in self.seen:
            return
        self.seen.add(key)
        flat = _materialise(program.clone(share_instructions=True))
        for flags in IR_FLAGS:
            ir_config = replace(config, **flags)
            compact = program.clone(share_instructions=True)
            expanded = flat.clone(share_instructions=True)
            compact_stats = self.pipeline.ir_passes(compact, ir_config)
            flat_stats = self.pipeline.ir_passes(expanded, ir_config)
            assert compact_stats == flat_stats, ir_config
            assert compact.total_instructions == expanded.total_instructions
            assert program_fingerprint(compact) == \
                program_fingerprint(expanded)
            assert _tables(self.compact_cache, compact, self.platform) == \
                _tables(self.flat_cache, expanded, self.platform)
            assert dump_program(compact, compact_stats) == \
                dump_program(expanded, flat_stats), ir_config


class TestCompactMatchesFlat:
    @pytest.mark.parametrize("name,source", IR_PIN_SOURCES,
                             ids=[name for name, _ in IR_PIN_SOURCES])
    def test_embedded_sources(self, name, source):
        differential = _Differential(SOURCE_PLATFORMS.get(name, PLATFORM))
        module = parse(source, name)
        for config in ir_pin_configs():
            working, statistics = differential.pipeline.pre_unroll(
                module, config)
            differential.check(differential.pipeline.unroll_and_lower(
                working, config, statistics), config)

    def test_unrolled_sources_have_runs(self):
        # The differential only means something if runs reach the passes.
        pipeline = CompilationPipeline(PLATFORM)
        config = CompilerConfig(unroll_limit=max(UNROLL_CHOICES))
        program, _ = build_program(pipeline, parse(CAMERA_PILL_SOURCE),
                                   config)
        assert "entry" in _compact_blocks(program)
        block = program.function("filter_frame").block("entry")
        runs = [part for part in block.parts if isinstance(part, Run)]
        assert len(runs) == 1 and runs[0].count == 32
        assert any(isinstance(part, Run) for part in runs[0].template())

    @given(source=_program())
    @settings(max_examples=20, deadline=None)
    def test_generated_programs(self, source):
        self._check_generated(source)

    @given(source=_unrollable_program())
    @settings(max_examples=30, deadline=None)
    def test_generated_unrollable_programs(self, source):
        self._check_generated(source)

    @staticmethod
    def _check_generated(source: str) -> None:
        try:
            module = parse(source)
        except FrontendError:
            return
        differential = _Differential(PLATFORM)
        for fold in (False, True):
            for unroll in UNROLL_CHOICES:
                config = CompilerConfig(constant_folding=fold,
                                        unroll_limit=unroll)
                try:
                    working, statistics = differential.pipeline.pre_unroll(
                        module, config)
                    program = differential.pipeline.unroll_and_lower(
                        working, config, statistics)
                except FrontendError:
                    continue
                differential.check(program, config)


def _live_instructions() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if obj.__class__ is Instr)


class TestLaziness:
    def test_build_and_analysis_materialise_nothing(self):
        self._check(enable_cse=False)

    def test_cse_build_and_analysis_materialise_nothing(self):
        self._check(enable_cse=True)

    @staticmethod
    def _check(enable_cse: bool) -> None:
        platform = camera_pill.platform()
        config = CompilerConfig(unroll_limit=max(UNROLL_CHOICES),
                                dead_code_elimination=True,
                                strength_reduction=True, spm_allocation=True,
                                enable_cse=enable_cse)
        pipeline = CompilationPipeline(platform)
        working, statistics = pipeline.pre_unroll(
            parse(CAMERA_PILL_SOURCE), config)
        lowered = pipeline.unroll_and_lower(working, config, statistics)
        expected = _compact_blocks(lowered)
        assert expected
        del lowered, working

        before = _live_instructions()
        compiler = MultiCriteriaCompiler(platform)
        variant = compiler.compile(CAMERA_PILL_SOURCE, "filter_frame", config)
        program = variant.program
        for function in program.task_functions.values():
            compiler.analysis.wcet(program, function.name, core=compiler.core)
            compiler.analysis.wcec(program, function.name, core=compiler.core)
        live = _live_instructions() - before

        assert _compact_blocks(program) == expected
        assert live < program.total_instructions / 10, \
            (live, program.total_instructions)


class TestCompactCse:
    """CSE rewrites a run copy by copy until the copies repeat, then keeps
    the rest as one run; the result equals CSE on the written-out copies."""

    #: ``a * b`` is computed by the first copy and reused by the others.
    INVARIANT = """
int g[16];
int f(int a, int b) {
    int acc = 0;
    for (int i = 0; i < COUNT; i = i + 1) { acc = acc + a * b + g[i]; }
    return acc;
}
"""

    @staticmethod
    def _cse_both(source: str, platform: Platform = PLATFORM) -> Program:
        """``source`` lowered at the largest unroll limit, CSE'd compact;
        checked against CSE of the written-out copies."""
        pipeline = CompilationPipeline(platform)
        config = CompilerConfig(unroll_limit=max(UNROLL_CHOICES))
        working, statistics = pipeline.pre_unroll(parse(source), config)
        program = pipeline.unroll_and_lower(working, config, statistics)
        flat = _materialise(program.clone(share_instructions=True))
        replaced = eliminate_common_subexpressions(program)
        assert replaced == eliminate_common_subexpressions(flat)
        assert replaced > 0
        assert dump_program(program.clone(share_instructions=True), {}) == \
            dump_program(flat, {})
        return program

    @staticmethod
    def _runs(program: Program, function: str) -> List[Run]:
        return [part for block in program.function(function).blocks.values()
                for part in block.parts if isinstance(part, Run)]

    def test_nested_runs_stay_compact(self):
        program = self._cse_both(CAMERA_PILL_SOURCE, camera_pill.platform())
        (outer,) = self._runs(program, "filter_frame")
        assert outer.count == 32
        inner = [part for part in outer.template() if isinstance(part, Run)]
        assert len(inner) == 1 and inner[0].count < 30

    def test_copies_before_the_repeat_are_written_out(self):
        # Copy 0 computes a * b, copy 1 reuses it, and from copy 2 on each
        # copy repeats copy 1: copy 0 written out, a run of 5 after it.
        program = self._cse_both(self.INVARIANT.replace("COUNT", "6"))
        (run,) = self._runs(program, "f")
        assert run.count == 5

    def test_a_run_that_never_repeats_is_written_out(self):
        # Two copies: the second differs from the first, and none follows.
        program = self._cse_both(self.INVARIANT.replace("COUNT", "2"))
        assert not self._runs(program, "f")

    def test_a_value_read_after_the_run_writes_out_its_last_copy(self):
        # Each copy recomputes x * a after x changes; the return reuses
        # the last copy's value, so that copy must not stay inside a run.
        program = self._cse_both("""
int f(int a) {
    int acc = 0;
    int x = 0;
    for (int i = 0; i < 4; i = i + 1) { x = x + 1; acc = acc + x * a; }
    return acc + x * a;
}
""")
        (run,) = self._runs(program, "f")
        assert run.count == 3
        block = next(block for block in program.function("f").blocks.values()
                     if run in block.parts)
        tail = block.parts[block.parts.index(run) + 1:]
        read = {reg.name for instr in tail for reg in instr.reads()}
        assert read & set(run.temps(run.count))

    def test_renaming_recanonicalises_commutative_operands(self):
        # t2 + t3 renamed to t9 + t10 sorts the other way round.
        add = Instr(Opcode.ADD, Reg("t4"), (Reg("t2"), Reg("t3")))
        rename = {"t2": Reg("t9"), "t3": Reg("t10"), "t4": Reg("t11")}
        renamed = Instr(Opcode.ADD, Reg("t11"), (Reg("t9"), Reg("t10")))
        assert _renamed_key(_expression_key(add), rename) == \
            _expression_key(renamed)
        assert _expression_key(renamed)[1] == (Reg("t10"), Reg("t9"))


class TestValueSemantics:
    @staticmethod
    def _build() -> Program:
        pipeline = CompilationPipeline(PLATFORM)
        config = CompilerConfig(unroll_limit=max(UNROLL_CHOICES))
        working, statistics = pipeline.pre_unroll(
            parse(CAMERA_PILL_SOURCE), config)
        return pipeline.unroll_and_lower(working, config, statistics)

    def test_pickle_round_trip_keeps_runs(self):
        program = self._build()
        copy = pickle.loads(pickle.dumps(program))
        assert _compact_blocks(copy) == _compact_blocks(program)
        assert program_fingerprint(copy) == program_fingerprint(program)
        assert copy.total_instructions == program.total_instructions
        assert dump_program(copy, {}) == dump_program(program, {})

    def test_clone_rewrite_leaves_the_original_template(self):
        program = self._build()
        reference = dump_program(program.clone(), {})
        block = program.function("filter_frame").block("entry")
        parts = list(block.parts)

        clone = program.clone(share_instructions=True)
        assert strength_reduce(clone) > 0
        assert clone.function("filter_frame").block("entry").compact

        # The original keeps its own runs, and their templates are intact.
        assert all(a is b for a, b in zip(block.parts, parts))
        assert dump_program(program, {}) == reference
        assert dump_program(clone, {}) != reference


class TestStrengthReduction:
    """Rewrites allocate only what they change; normalising is not counted."""

    def test_rewrites_normalisations_and_untouched_instructions(self):
        a, b = Reg("a"), Reg("b")
        cases = [  # (instruction, expected replacement or None, counted)
            (Instr(Opcode.MUL, Reg("t1"), (Imm(3), a), comment="c"),
             Instr(Opcode.MUL, Reg("t1"), (a, Imm(3)), comment="c"), False),
            (Instr(Opcode.MUL, Reg("t2"), (Imm(8), a)),
             Instr(Opcode.SHL, Reg("t2"), (a, Imm(3))), True),
            (Instr(Opcode.MUL, Reg("t3"), (a, Imm(1))),
             Instr(Opcode.MOV, Reg("t3"), (a,)), True),
            (Instr(Opcode.MUL, Reg("t4"), (a, Imm(0))),
             Instr(Opcode.MOV, Reg("t4"), (Imm(0),)), True),
            (Instr(Opcode.ADD, Reg("t5"), (Imm(0), a)),
             Instr(Opcode.MOV, Reg("t5"), (a,)), True),
            (Instr(Opcode.SHR, Reg("t6"), (a, Imm(0))),
             Instr(Opcode.MOV, Reg("t6"), (a,)), True),
            (Instr(Opcode.SUB, Reg("t7"), (Imm(0), a)), None, False),
            (Instr(Opcode.ADD, Reg("t8"), (Imm(2), Imm(0))),
             Instr(Opcode.MOV, Reg("t8"), (Imm(2),)), True),
            (Instr(Opcode.MUL, Reg("t9"), (a, b)), None, False),
            (Instr(Opcode.DIV, Reg("t10"), (a, Imm(1))), None, False),
        ]
        program = _single_block_function(*(case[0] for case in cases))
        assert strength_reduce(program) == sum(case[2] for case in cases)
        instrs = program.function("f").block("entry").instrs
        for (original, expected, _), instr in zip(cases, instrs):
            if expected is None:
                assert instr is original
            else:
                assert instr == expected and instr is not original
