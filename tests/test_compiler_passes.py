"""Tests for the compiler's optimisation passes (semantics preservation and effect)."""

import random

import pytest

from oracles import build_program, evaluate_config
from repro.compiler.config import CompilerConfig
from repro.compiler.passes.ast_passes import (
    fold_constants,
    inline_simple_functions,
    unroll_loops,
)
from repro.compiler.passes.ir_passes import (
    eliminate_common_subexpressions,
    eliminate_dead_code,
    peephole_optimize,
    strength_reduce,
)
from repro.compiler.passes.spm import allocate_scratchpad
from repro.compiler.pipeline import CompilationPipeline
from repro.frontend import ast_nodes as ast
from repro.frontend.lowering import compile_source, lower_module
from repro.frontend.parser import parse
from repro.hw.presets import nucleo_stm32f091rc
from repro.ir.instructions import Imm, Opcode, Reg
from repro.sim.machine import Simulator
from repro.wcet.loopbounds import infer_loop_bounds

SOURCE = """
int data[16];

int scale(int x) { return x * 8 + 4 / 2; }

int kernel(int gain) {
    int acc = 0;
    int unused = gain * 123;
    for (int i = 0; i < 16; i = i + 1) {
        acc = acc + data[i] * gain + scale(i) * 1 + 0;
    }
    if (acc > 64 * 4) { acc = acc - 16 * 2; }
    return acc;
}
"""


@pytest.fixture(scope="module")
def platform():
    return nucleo_stm32f091rc()


def _run_reference(gain, data):
    def scale(x):
        return x * 8 + 2
    acc = 0
    for i in range(16):
        acc += data[i] * gain + scale(i)
    if acc > 256:
        acc -= 32
    return acc


def _simulate(module_or_program, platform, gain, data):
    if isinstance(module_or_program, ast.SourceModule):
        program = lower_module(module_or_program)
    else:
        program = module_or_program
    return Simulator(program, platform).run("kernel", [gain],
                                            globals_init={"data": data}).return_value


class TestAstPasses:
    def test_constant_folding_counts_and_preserves_semantics(self, platform):
        module = parse(SOURCE)
        infer_loop_bounds(module)
        folds = fold_constants(module)
        assert folds >= 4
        data = list(range(16))
        assert _simulate(module, platform, 3, data) == _run_reference(3, data)

    def test_constant_folding_is_idempotent(self):
        module = parse(SOURCE)
        fold_constants(module)
        assert fold_constants(module) == 0

    def test_folding_keeps_division_by_zero(self):
        module = parse("int f(void) { return 1 / 0; }")
        fold_constants(module)
        expr = module.function("f").body[0].value
        assert isinstance(expr, ast.Binary)  # not folded away

    def test_unrolling_removes_loops_and_preserves_semantics(self, platform):
        module = parse(SOURCE)
        infer_loop_bounds(module)
        unrolled = unroll_loops(module, limit=16)
        assert unrolled == 1
        assert not any(isinstance(s, ast.For)
                       for s in ast.walk_stmts(module.function("kernel").body))
        data = [random.Random(1).randrange(100) for _ in range(16)]
        assert _simulate(module, platform, 5, data) == _run_reference(5, data)

    def test_unrolling_respects_limit(self):
        module = parse(SOURCE)
        infer_loop_bounds(module)
        assert unroll_loops(module, limit=8) == 0
        assert unroll_loops(module, limit=0) == 0

    def test_inlining_simple_functions(self, platform):
        module = parse(SOURCE)
        infer_loop_bounds(module)
        inlined = inline_simple_functions(module)
        assert inlined >= 1
        assert not any(isinstance(node, ast.Call)
                       for stmt in ast.walk_stmts(module.function("kernel").body)
                       for expr in ast.stmt_expressions(stmt)
                       for node in ast.walk_expr(expr))
        data = list(range(16))
        assert _simulate(module, platform, 2, data) == _run_reference(2, data)

    def test_functions_with_loops_not_inlined(self):
        module = parse("""
        int looped(int n) {
            int s = 0;
            for (int i = 0; i < 4; i = i + 1) { s = s + n; }
            return s;
        }
        int caller(int a) { return looped(a); }
        """)
        assert inline_simple_functions(module) == 0


class TestIrPasses:
    def test_dead_code_elimination_removes_unused(self, platform):
        module = parse(SOURCE)
        infer_loop_bounds(module)
        program = lower_module(module)
        before = program.total_instructions
        removed = eliminate_dead_code(program)
        assert removed >= 1
        assert program.total_instructions == before - removed
        data = list(range(16))
        assert _simulate(program, platform, 4, data) == _run_reference(4, data)

    def test_strength_reduction_rewrites_mul_by_power_of_two(self, platform):
        program = compile_source("int kernel(int gain) { return gain * 8 + gain * 5; }")
        rewrites = strength_reduce(program)
        assert rewrites >= 1
        opcodes = [i.opcode for i in program.functions["kernel"].iter_instructions()]
        assert Opcode.SHL in opcodes
        result = Simulator(program, nucleo_stm32f091rc()).run("kernel", [7])
        assert result.return_value == 7 * 8 + 7 * 5

    def test_strength_reduction_handles_identities(self):
        program = compile_source(
            "int kernel(int g) { int a = g * 1; int b = a + 0; int c = b * 0; return a + b + c; }")
        strength_reduce(program)
        assert Opcode.MUL not in [i.opcode for i in
                                  program.functions["kernel"].iter_instructions()]

    def test_spm_allocation_respects_capacity(self, platform):
        module = parse(SOURCE)
        infer_loop_bounds(module)
        program = lower_module(module)
        allocation = allocate_scratchpad(program, platform)
        assert allocation.used_bytes <= allocation.capacity_bytes
        assert allocation.placed_functions
        for name in allocation.placed_functions:
            assert program.functions[name].code_region == "spm"

    def test_spm_allocation_noop_without_scratchpad(self):
        from repro.hw.memory import MemoryRegion, MemorySystem
        from repro.hw.platform import Platform
        from repro.hw.presets import cortex_m0
        board = Platform(name="no-spm", cores=[cortex_m0()],
                         memory=MemorySystem(regions={
                             "flash": MemoryRegion("flash", 1 << 16, 2, 4, 1e-9),
                             "sram": MemoryRegion("sram", 1 << 15, 0, 0, 1e-9)}))
        program = compile_source("int f(int a) { return a; }")
        allocation = allocate_scratchpad(program, board)
        assert allocation.placed_functions == []


class TestBuildAndEvaluate:
    def test_build_program_never_mutates_input(self, platform):
        module = parse(SOURCE)
        build_program(CompilationPipeline(platform), module,
                      CompilerConfig.performance())
        # The original module still contains its loop and its call.
        kernel = module.function("kernel")
        assert any(isinstance(s, ast.For) for s in ast.walk_stmts(kernel.body))

    def test_all_configs_preserve_semantics(self, platform):
        module = parse(SOURCE)
        data = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3]
        expected = _run_reference(6, data)
        for config in (CompilerConfig.baseline(), CompilerConfig.performance(),
                       CompilerConfig(constant_folding=False,
                                      dead_code_elimination=False),
                       CompilerConfig.baseline().with_(strength_reduction=True,
                                                       unroll_limit=16)):
            program, _stats = build_program(CompilationPipeline(platform),
                                            module, config)
            assert _simulate(program, platform, 6, data) == expected

    def test_performance_config_improves_wcet_and_energy(self, platform):
        module = parse(SOURCE)
        base = evaluate_config(module, CompilerConfig.baseline(), platform, "kernel")
        fast = evaluate_config(module, CompilerConfig.performance(), platform, "kernel")
        assert fast.wcet_cycles < base.wcet_cycles
        assert fast.energy_j < base.energy_j
        assert fast.pass_statistics.get("unrolled_loops", 0) >= 1

    def test_variant_objectives_and_dominance(self, platform):
        module = parse(SOURCE)
        base = evaluate_config(module, CompilerConfig.baseline(), platform, "kernel")
        fast = evaluate_config(module, CompilerConfig.performance(), platform, "kernel")
        assert fast.dominates(base)
        assert not base.dominates(fast)
        assert len(base.objectives()) == 2


# ---------------------------------------------------------------------------
# Common-subexpression elimination
# ---------------------------------------------------------------------------
def _single_block_function(*instrs):
    """A one-block program around ``instrs`` (a RET is appended)."""
    from repro.ir.cfg import BasicBlock, Function, Program
    from repro.ir.instructions import ret
    from repro.ir.regions import BlockRegion
    function = Function(name="f", params=["a", "b"],
                        region=BlockRegion("entry"))
    function.add_block(BasicBlock("entry", list(instrs) + [ret(Reg("r0"))]))
    program = Program()
    program.add_function(function)
    return program


class TestCommonSubexpressionElimination:
    SOURCE = """
    int kernel(int gain) {
        int p = gain / 3 + gain * 5;
        int q = gain / 3 - gain * 5;
        return p + q + gain / 3;
    }
    """

    def test_replaces_repeats_and_preserves_semantics(self, platform):
        program = compile_source(self.SOURCE)
        div_before = sum(i.opcode is Opcode.DIV for i in
                         program.functions["kernel"].iter_instructions())
        expected = Simulator(program.clone(), platform).run(
            "kernel", [17]).return_value
        replaced = eliminate_common_subexpressions(program)
        assert replaced >= 3  # two gain/3 repeats + one gain*5 repeat
        div_after = sum(i.opcode is Opcode.DIV for i in
                        program.functions["kernel"].iter_instructions())
        assert div_after == div_before - 2
        assert Simulator(program, platform).run(
            "kernel", [17]).return_value == expected

    def test_noop_without_repeated_subexpressions(self):
        program = compile_source(
            "int kernel(int g) { return g * 3 + g / 4 - g; }")
        opcodes = [i.opcode for i in
                   program.functions["kernel"].iter_instructions()]
        assert eliminate_common_subexpressions(program) == 0
        assert [i.opcode for i in
                program.functions["kernel"].iter_instructions()] == opcodes

    def test_operand_redefinition_blocks_reuse(self, platform):
        source = """
        int kernel(int a) {
            int b = 3;
            int x = a + b;
            b = b + 1;
            int y = a + b;
            return x + y;
        }
        """
        program = compile_source(source)
        assert eliminate_common_subexpressions(program) == 0
        assert Simulator(program, platform).run(
            "kernel", [10]).return_value == (10 + 3) + (10 + 4)

    def test_holder_redefinition_blocks_reuse(self):
        from repro.ir.instructions import binop, mov
        program = _single_block_function(
            binop(Opcode.MUL, Reg("t"), Reg("a"), Reg("b")),
            mov(Reg("t"), Imm(5)),
            binop(Opcode.MUL, Reg("r0"), Reg("a"), Reg("b")),
        )
        assert eliminate_common_subexpressions(program) == 0
        opcodes = [i.opcode for i in
                   program.functions["f"].iter_instructions()]
        assert opcodes.count(Opcode.MUL) == 2

    def test_commutative_operands_match_canonically(self):
        from repro.ir.instructions import binop
        program = _single_block_function(
            binop(Opcode.ADD, Reg("t1"), Reg("a"), Reg("b")),
            binop(Opcode.ADD, Reg("t2"), Reg("b"), Reg("a")),
            binop(Opcode.SUB, Reg("t3"), Reg("a"), Reg("b")),
            binop(Opcode.SUB, Reg("r0"), Reg("b"), Reg("a")),
        )
        # ADD commutes (t2 reuses t1); SUB does not (t3/r0 both stay).
        assert eliminate_common_subexpressions(program) == 1
        instrs = list(program.functions["f"].iter_instructions())
        assert instrs[1].opcode is Opcode.MOV
        assert instrs[1].srcs == (Reg("t1"),)
        assert instrs[3].opcode is Opcode.SUB

    def test_loads_are_never_merged(self):
        from repro.ir.instructions import load, store
        program = _single_block_function(
            load(Reg("t1"), "data", Imm(0)),
            store("data", Imm(0), Imm(99)),
            load(Reg("r0"), "data", Imm(0)),
        )
        program.global_arrays["data"] = 4
        assert eliminate_common_subexpressions(program) == 0
        opcodes = [i.opcode for i in
                   program.functions["f"].iter_instructions()]
        assert opcodes.count(Opcode.LOAD) == 2

    def test_self_recompute_leaves_copy_for_peephole(self):
        from repro.ir.instructions import binop
        program = _single_block_function(
            binop(Opcode.MUL, Reg("t"), Reg("a"), Reg("b")),
            binop(Opcode.MUL, Reg("t"), Reg("a"), Reg("b")),
            binop(Opcode.ADD, Reg("r0"), Reg("t"), Imm(1)),
        )
        assert eliminate_common_subexpressions(program) == 1
        instrs = list(program.functions["f"].iter_instructions())
        assert instrs[1].opcode is Opcode.MOV
        assert instrs[1].dst == Reg("t") and instrs[1].srcs == (Reg("t"),)
        before = program.functions["f"].instruction_count
        assert peephole_optimize(program) == 1  # the self-copy is deleted
        assert program.functions["f"].instruction_count == before - 1

    def test_copy_on_write_leaves_shared_clone_pristine(self):
        program = compile_source(self.SOURCE)
        shared = program.clone(share_instructions=True)
        reference = [(i.opcode, i.srcs) for i in
                     program.functions["kernel"].iter_instructions()]
        assert eliminate_common_subexpressions(shared) >= 3
        assert [(i.opcode, i.srcs) for i in
                program.functions["kernel"].iter_instructions()] == reference

    def test_interaction_with_dce_and_strength_reduction(self, platform):
        module = parse(SOURCE)
        data = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3]
        expected = _run_reference(6, data)
        config = CompilerConfig.performance().with_(enable_cse=True,
                                                    enable_peephole=True)
        program, stats = build_program(CompilationPipeline(platform),
                                       module, config)
        assert "cse_replacements" in stats
        assert "peephole_rewrites" in stats
        assert _simulate(program, platform, 6, data) == expected

    def test_cse_improves_wcet_on_division_heavy_kernel(self, platform):
        module = parse(self.SOURCE)
        base = evaluate_config(module, CompilerConfig.baseline(), platform,
                               "kernel")
        tuned = evaluate_config(
            module, CompilerConfig.baseline().with_(enable_cse=True),
            platform, "kernel")
        assert tuned.pass_statistics["cse_replacements"] >= 3
        assert tuned.wcet_cycles < base.wcet_cycles
        assert tuned.energy_j < base.energy_j
        assert tuned.code_size_bytes == base.code_size_bytes


# ---------------------------------------------------------------------------
# Peephole simplification
# ---------------------------------------------------------------------------
class TestPeephole:
    def test_ir_constant_folding_matches_simulator(self, platform):
        program = compile_source(
            "int kernel(int a) { return 12 * 3 + 7 + a; }")
        expected = Simulator(program.clone(), platform).run(
            "kernel", [5]).return_value
        assert peephole_optimize(program) >= 1
        opcodes = [i.opcode for i in
                   program.functions["kernel"].iter_instructions()]
        assert Opcode.MUL not in opcodes
        assert Simulator(program, platform).run(
            "kernel", [5]).return_value == expected

    def test_wrapping_fold_matches_simulator(self, platform):
        # 65535 * 65535 overflows 32 bits: the fold must wrap like the sim.
        program = compile_source(
            "int kernel(int a) { return 65535 * 65535 + a; }")
        expected = Simulator(program.clone(), platform).run(
            "kernel", [1]).return_value
        assert peephole_optimize(program) >= 1
        assert Simulator(program, platform).run(
            "kernel", [1]).return_value == expected

    def test_same_register_identities(self, platform):
        program = compile_source(
            "int kernel(int a) { return (a - a) + (a == a) + (a & a); }")
        expected = Simulator(program.clone(), platform).run(
            "kernel", [41]).return_value
        assert peephole_optimize(program) >= 3
        opcodes = [i.opcode for i in
                   program.functions["kernel"].iter_instructions()]
        assert Opcode.SUB not in opcodes
        assert Opcode.CMPEQ not in opcodes
        assert Opcode.AND not in opcodes
        assert Simulator(program, platform).run(
            "kernel", [41]).return_value == expected

    def test_division_by_zero_is_not_folded(self):
        from repro.ir.instructions import binop
        program = _single_block_function(
            binop(Opcode.DIV, Reg("r0"), Imm(7), Imm(0)))
        assert peephole_optimize(program) == 0
        assert list(program.functions["f"].iter_instructions())[0].opcode \
            is Opcode.DIV

    def test_select_folding(self):
        from repro.ir.instructions import select
        program = _single_block_function(
            select(Reg("t1"), Imm(1), Reg("a"), Reg("b")),
            select(Reg("t2"), Imm(0), Reg("a"), Reg("b")),
            select(Reg("r0"), Reg("c"), Reg("a"), Reg("a")),
        )
        assert peephole_optimize(program) == 3
        instrs = list(program.functions["f"].iter_instructions())
        assert instrs[0].srcs == (Reg("a"),)
        assert instrs[1].srcs == (Reg("b"),)
        assert instrs[2].srcs == (Reg("a"),)

    def test_unary_immediate_folding(self):
        from repro.ir.instructions import unop
        program = _single_block_function(
            unop(Opcode.NEG, Reg("t1"), Imm(5)),
            unop(Opcode.NOT, Reg("t2"), Imm(0)),
            unop(Opcode.LNOT, Reg("r0"), Imm(3)),
        )
        assert peephole_optimize(program) == 3
        instrs = list(program.functions["f"].iter_instructions())
        assert [i.srcs[0].value for i in instrs[:3]] == [-5, -1, 0]

    def test_nops_survive(self):
        from repro.ir.instructions import nop
        program = _single_block_function(nop("timing pad"))
        assert peephole_optimize(program) == 0
        assert list(program.functions["f"].iter_instructions())[0].opcode \
            is Opcode.NOP

    def test_copy_on_write_leaves_shared_clone_pristine(self):
        program = compile_source(
            "int kernel(int a) { return (a - a) + 12 * 3; }")
        shared = program.clone(share_instructions=True)
        reference = [(i.opcode, i.srcs) for i in
                     program.functions["kernel"].iter_instructions()]
        assert peephole_optimize(shared) >= 2
        assert [(i.opcode, i.srcs) for i in
                program.functions["kernel"].iter_instructions()] == reference
