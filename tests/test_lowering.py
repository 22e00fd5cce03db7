"""Tests for lowering TeamPlay-C to the IR (CFG + region tree)."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.compiler.engine.cache import AnalysisCache
from repro.errors import AnalysisError, FrontendError, TeamPlayError
from repro.frontend.lowering import compile_source, lower_module
from repro.frontend.parser import parse
from repro.hw.presets import nucleo_stm32f091rc
from repro.ir.cfg import BasicBlock, Function, Program
from repro.ir.instructions import Opcode, Reg, call, jump, mov, ret, Imm
from repro.ir.regions import (
    BlockRegion,
    IfRegion,
    LoopRegion,
    SeqRegion,
    iter_block_labels,
    iter_loops,
    max_loop_nesting,
)


SIMPLE = """
int data[8];

int helper(int x) { return x * 2; }

#pragma teamplay task(main) secret(key)
int main_task(int key, int n) {
    int acc = 0;
    for (int i = 0; i < 8; i = i + 1) {
        acc = acc + data[i];
    }
    if (acc > n) {
        acc = helper(acc);
    } else {
        acc = acc - 1;
    }
    return acc;
}
"""


class TestLowering:
    def test_program_structure(self):
        program = compile_source(SIMPLE)
        assert set(program.functions) == {"helper", "main_task"}
        assert program.global_arrays == {"data": 8}
        assert program.task_functions["main"].name == "main_task"
        assert program.functions["main_task"].secret_params == ["key"]

    def test_region_tree_partitions_blocks(self):
        program = compile_source(SIMPLE)
        for function in program.functions.values():
            labels = list(iter_block_labels(function.region))
            assert sorted(labels) == sorted(function.blocks)
            assert len(labels) == len(set(labels))

    def test_every_block_has_one_terminator(self):
        program = compile_source(SIMPLE)
        for function in program.functions.values():
            for block in function.blocks.values():
                assert block.terminator is not None
                assert not any(i.is_terminator for i in block.instrs[:-1])

    def test_loop_and_if_regions_exist(self):
        program = compile_source(SIMPLE)
        main = program.functions["main_task"]
        loops = list(iter_loops(main.region))
        assert len(loops) == 1
        assert loops[0].bound == 8  # inferred by compile_source
        assert max_loop_nesting(main.region) == 1

    def test_nested_loops_nesting_depth(self):
        program = compile_source("""
        int m[16];
        int f(void) {
            int s = 0;
            for (int i = 0; i < 4; i = i + 1) {
                for (int j = 0; j < 4; j = j + 1) {
                    s = s + m[i * 4 + j];
                }
            }
            return s;
        }
        """)
        assert max_loop_nesting(program.functions["f"].region) == 2

    def test_return_in_branch_keeps_region_consistent(self):
        program = compile_source("""
        int f(int a) {
            if (a > 0) { return 1; }
            a = a + 1;
            return a;
        }
        """)
        program.validate()

    def test_call_to_unknown_function_rejected(self):
        with pytest.raises(FrontendError):
            compile_source("int f(int a) { return missing(a); }")

    def test_undeclared_variable_rejected(self):
        with pytest.raises(FrontendError):
            compile_source("int f(int a) { return b; }")

    def test_unknown_array_rejected(self):
        with pytest.raises(FrontendError):
            compile_source("int f(int a) { return buf[a]; }")

    def test_secret_pragma_must_name_parameter(self):
        with pytest.raises(FrontendError):
            compile_source("""
            #pragma teamplay secret(nonce)
            int f(int key) { return key; }
            """)

    def test_duplicate_global_rejected(self):
        module = parse("int a[4];")
        module.globals.append(module.globals[0])
        with pytest.raises(FrontendError):
            lower_module(module)

    def test_call_graph_and_recursion_detection(self):
        program = compile_source(SIMPLE)
        assert not program.has_recursion()
        assert program.function("main_task").callees() == {"helper"}


@st.composite
def _call_graphs(draw):
    """Caller -> callees maps over up to six functions and two unknowns.

    Half the draws only call forward (acyclic, often with shared callees);
    the rest may call anything, so self-calls and mutual recursion appear.
    """
    names = [f"f{index}" for index in range(draw(st.integers(1, 6)))]
    forward_only = draw(st.booleans())
    graph = {}
    for index, name in enumerate(names):
        pool = (names[index + 1:] if forward_only else names) + ["ext_a",
                                                                 "ext_b"]
        graph[name] = draw(st.lists(st.sampled_from(pool), max_size=3,
                                    unique=True))
    return graph


def _reaches_itself(graph) -> bool:
    """Whether some function reaches itself through its known callees."""
    def reachable(name):
        seen, stack = set(), list(graph[name])
        while stack:
            callee = stack.pop()
            if callee in graph and callee not in seen:
                seen.add(callee)
                stack.extend(graph[callee])
        return seen
    return any(name in reachable(name) for name in graph)


def _program_calling(graph) -> Program:
    program = Program()
    for name, callees in graph.items():
        function = Function(name=name)
        function.add_block(BasicBlock(
            "entry", [call(None, callee, ()) for callee in callees] + [ret()]))
        program.add_function(function)
    return program


class TestRecursionDetection:
    @given(graph=_call_graphs())
    @settings(max_examples=200, deadline=None)
    @example(graph={"f0": ["f0"]})                               # self-call
    @example(graph={"f0": ["f1"], "f1": ["f2"], "f2": ["f0"]})   # mutual
    @example(graph={"f0": ["ext_a"], "f1": ["ext_a", "f0"]})     # unknown
    @example(graph={"f0": ["f1", "f2"], "f1": ["f3"], "f2": ["f3"],
                    "f3": []})                                   # shared
    def test_agrees_with_self_reachability(self, graph):
        assert _program_calling(graph).has_recursion() is \
            _reaches_itself(graph)

    def test_analysis_cache_rejects_recursion(self):
        program = compile_source("""
        int fact(int n) {
            if (n <= 1) { return 1; }
            return n * fact(n - 1);
        }
        """)
        with pytest.raises(AnalysisError, match="recursion"):
            AnalysisCache(nucleo_stm32f091rc()).wcet(program, "fact")


class TestFunctionValidation:
    def _function_with(self, blocks, region, entry="entry") -> Function:
        fn = Function(name="f", entry=entry, region=region)
        for block in blocks:
            fn.add_block(block)
        return fn

    def test_missing_terminator_rejected(self):
        block = BasicBlock("entry", [mov(Reg("a"), Imm(1))])
        fn = self._function_with([block], SeqRegion([BlockRegion("entry")]))
        with pytest.raises(TeamPlayError):
            fn.validate()

    def test_jump_to_unknown_block_rejected(self):
        block = BasicBlock("entry", [jump("nowhere")])
        fn = self._function_with([block], SeqRegion([BlockRegion("entry")]))
        with pytest.raises(TeamPlayError):
            fn.validate()

    def test_region_mismatch_rejected(self):
        block = BasicBlock("entry", [ret(Imm(0))])
        fn = self._function_with([block], SeqRegion([]))
        with pytest.raises(TeamPlayError):
            fn.validate()

    def test_duplicate_block_rejected(self):
        fn = Function(name="f")
        fn.add_block(BasicBlock("entry", [ret(Imm(0))]))
        with pytest.raises(TeamPlayError):
            fn.add_block(BasicBlock("entry", [ret(Imm(0))]))
