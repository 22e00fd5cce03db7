"""The IR pass chain: each IR pass runs once per distinct input.

The evaluation engine runs a function's enabled IR passes as a chain of
steps, each cached in ``BuildCache.ir_stage`` under
``PassManager.step_key`` (input key, pass name, pass contribution).  A
step whose pass changed nothing hands on its input key and the input
``Function`` object itself; "changed" is read off the clone the pass ran
on (``Function.holds_ir_of``), never off the pass's counters.  These
checks pin that rule:

* a pass that changes nothing returns the very input function and key,
  and one that changes something returns its clone under the step key,
* CSE rewriting a run without a replacement counts as changed (lowering
  gives no such input: the sources below pin that too),
* a custom pass that replaces a block's parts, overwrites an instruction
  in place or adds a block is seen as changed; swapping in the same
  objects is not,
* enabling a DCE that removes nothing adds no later IR-pass run.

``tests/test_function_builds.py`` holds the chain's builds to the
uncached ``build_program`` oracle.
"""

from __future__ import annotations

import pytest

from repro.compiler.config import CompilerConfig
from repro.compiler.engine import EvaluationEngine
from repro.compiler.pipeline import CompilationPipeline, Pass
from repro.frontend.parser import parse
from repro.hw.presets import nucleo_stm32f091rc
from repro.ir.cfg import BasicBlock
from repro.ir.instructions import Instr, Opcode
from repro.ir.runs import Run

PLATFORM = nucleo_stm32f091rc()

#: Nothing dead: DCE removes nothing from either function.
CLEAN = """
int helper(int x) { return x * 4 + 1; }
int work(int x, int y) {
    int s = 0;
    for (int i = 0; i < 4; i = i + 1) { s = s + helper(i) * y; }
    return s + x;
}
"""

#: ``t`` is never read: DCE removes its computation.
DEAD = "int work(int x) { int t = x * 3; return x; }"


def _engine(source: str, pipeline=None) -> EvaluationEngine:
    return EvaluationEngine(parse(source), PLATFORM, ["work"],
                            pipeline=pipeline)


def _lowered(engine: EvaluationEngine, config: CompilerConfig, name: str):
    """The lowering step's entry ``(key, program, statistics)`` of
    ``name``, after its AST chain."""
    identity, module = next(unit for unit in engine._build_units()
                            if unit[0] == (name,))
    key, module, _ = engine._chain(config, "ast", identity, module)
    return engine._lower(config, key, module)


def _step(engine, config, pass_name, key, function, lowered):
    registered = engine.pipeline.manager.pass_named(pass_name)
    return engine._step(config, registered, key, function, lowered)


class TestUnchangedStep:
    def test_a_pass_that_changes_nothing_hands_on_its_input(self):
        config = CompilerConfig()
        engine = _engine(CLEAN)
        key, lowered, _ = _lowered(engine, config, "work")
        function = lowered.functions["work"]
        out_key, out, statistics = _step(engine, config,
                                         "dead-code-elimination", key,
                                         function, lowered)
        assert statistics == {"dead_instructions": 0}
        assert out is function
        assert out_key is key
        # The step is cached under its own key all the same: a repeat is
        # a hit that hands on the same input.
        assert _step(engine, config, "dead-code-elimination", key,
                     function, lowered)[1] is function
        assert (engine.ir_stage.misses, engine.ir_stage.hits) == (1, 1)

    def test_a_pass_that_changes_something_hands_on_its_clone(self):
        config = CompilerConfig()
        engine = _engine(DEAD)
        key, lowered, _ = _lowered(engine, config, "work")
        function = lowered.functions["work"]
        out_key, out, statistics = _step(engine, config,
                                         "dead-code-elimination", key,
                                         function, lowered)
        assert statistics["dead_instructions"] > 0
        assert out is not function
        assert out.instruction_count < function.instruction_count
        assert out_key == engine.pipeline.manager.step_key(
            config, engine.pipeline.manager.pass_named(
                "dead-code-elimination"), key, function,
            engine.builds.function_keys)
        assert out_key != key


class TestCseWithoutReplacements:
    CONFIG = CompilerConfig(unroll_limit=8, enable_cse=True)
    LOOP = ("int work(int x, int y) {{ int a = x; int b = y; int s = 0; "
            "for (int i = 0; i < 4; i = i + 1) {{ {body} }} "
            "return s + a + b; }}")

    def test_a_run_rewritten_without_a_replacement_counts_as_changed(self):
        # A one-copy run never settles, so CSE writes it out: the IR
        # changes while the counter stays 0.
        engine = _engine(self.LOOP.format(body="s = s + x;"))
        key, lowered, _ = _lowered(engine, self.CONFIG, "work")
        function = lowered.functions["work"].clone(share_instructions=True)
        runs = 0
        for block in function.blocks.values():
            if any(part.__class__ is Run for part in block.parts):
                runs += 1
                block.replace_parts([
                    Run.compile(part.template(), 1, part.prefix, part.first,
                                part.width) if part.__class__ is Run
                    else part for part in block.parts])
        assert runs == 1
        out_key, out, statistics = _step(
            engine, self.CONFIG, "common-subexpression-elimination",
            ("hand-made",), function, lowered)
        assert statistics == {"cse_replacements": 0}
        assert out is not function
        assert out_key != ("hand-made",)
        assert not any(part.__class__ is Run for block in out.blocks.values()
                       for part in block.parts)

    @pytest.mark.parametrize("body", [
        "s = s + x;",
        "s = s * 3 + i;",
        "a = b + s; b = a; s = a + 1;",
        "a = x + y; x = a; y = x + y;",
        "a = a + b; b = a - b;",
    ])
    def test_lowered_runs_cse_leaves_alone_are_handed_on(self, body):
        # No lowered source is known where CSE rewrites a run without a
        # replacement: each of these unrolled bodies keeps its run, and
        # the CSE step hands on the lowered function.
        engine = _engine(self.LOOP.format(body=body))
        key, lowered, _ = _lowered(engine, self.CONFIG, "work")
        function = lowered.functions["work"]
        assert any(part.__class__ is Run for block in function.blocks.values()
                   for part in block.parts)
        out_key, out, statistics = _step(
            engine, self.CONFIG, "common-subexpression-elimination", key,
            function, lowered)
        assert statistics == {"cse_replacements": 0}
        assert out is function and out_key is key


def _nop_first(ctx):
    for function in ctx.program.functions.values():
        block = function.blocks[function.entry]
        block.replace_parts([Instr(Opcode.NOP)] + list(block.parts))


def _nop_in_place(ctx):
    # Same length, same list object: only the objects in it differ.
    for function in ctx.program.functions.values():
        function.blocks[function.entry].instrs[0] = Instr(Opcode.NOP)


def _extra_block(ctx):
    for function in ctx.program.functions.values():
        function.add_block(BasicBlock("extra", [Instr(Opcode.RET)]))


def _same_parts(ctx):
    for function in ctx.program.functions.values():
        for block in function.blocks.values():
            block.replace_parts(list(block.parts))


class TestCustomPassChanges:
    @pytest.mark.parametrize("apply, changed", [
        (_nop_first, True),
        (_nop_in_place, True),
        (_extra_block, True),
        (_same_parts, False),
    ])
    def test_custom_ir_pass(self, apply, changed):
        pipeline = CompilationPipeline(PLATFORM)
        pipeline.manager.register(Pass("custom", "ir", apply))
        engine = _engine(DEAD, pipeline)
        config = CompilerConfig()
        key, lowered, _ = _lowered(engine, config, "work")
        function = lowered.functions["work"]
        out_key, out, _ = _step(engine, config, "custom", key, function,
                                lowered)
        assert (out is not function) == changed
        assert (out_key != key) == changed
        # The input stays as it was either way.
        assert "extra" not in function.blocks
        assert function.blocks[function.entry].parts[0].opcode \
            is not Opcode.NOP


class TestNoOpPassAddsNoRun:
    def test_enabling_a_dce_that_removes_nothing_reruns_nothing(self):
        engine = _engine(CLEAN)
        without = CompilerConfig(dead_code_elimination=False,
                                 strength_reduction=True,
                                 enable_peephole=True)
        first = engine.evaluate(without)
        runs = {name: row["invocations"]
                for name, row in engine.pipeline.stats().items()
                if row["stage"] == "ir"}
        functions = len(first.program.functions)
        assert runs == {"strength-reduction": functions,
                        "peephole": functions}
        second = engine.evaluate(without.with_(dead_code_elimination=True))
        assert second.pass_statistics["dead_instructions"] == 0
        runs["dead-code-elimination"] = functions
        assert {name: row["invocations"]
                for name, row in engine.pipeline.stats().items()
                if row["stage"] == "ir"} == runs
        assert engine.ir_stage.misses == 3 * functions
        for name, function in second.program.functions.items():
            assert function is first.program.functions[name]
