"""Constant folding preserves 32-bit semantics: a generated differential.

Both folders — source-level ``constant_folding`` and the IR peephole pass —
evaluate opcodes through the one semantics table
(:func:`repro.ir.instructions.evaluate`), which is also what the simulator
executes.  So every constant expression must simulate to the same value
whichever folders run.  The generated trees are built from the edges of the
32-bit range (constants that overflow, wrap, or read as zero once wrapped)
and every TeamPlay-C operator, ``&&``/``||`` included.

A tree whose unoptimised build traps (division or modulo by zero) has no
defined result, as in C: an algebraic identity such as ``x * 0 -> 0`` may
drop the trap, so only trap-free references are compared.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import build_program

from repro.compiler.config import CompilerConfig
from repro.compiler.pipeline import CompilationPipeline
from repro.errors import SimulationError
from repro.frontend.parser import parse
from repro.hw.presets import nucleo_stm32f091rc
from repro.ir.instructions import BINARY_OPCODES, LOGICAL_OPCODES, UNARY_OPCODES
from repro.sim.machine import Simulator

PLATFORM = nucleo_stm32f091rc()
PIPELINE = CompilationPipeline(PLATFORM)

#: INT32_MIN, -1, 0, 1, 31, 32, INT32_MAX, 2**31 (INT32_MIN once wrapped)
#: and 2**32 (zero once wrapped).
LEAVES = ("(-2147483648)", "(-1)", "0", "1", "31", "32", "2147483647",
          "0x80000000", "0x100000000")
BINARY = tuple(BINARY_OPCODES) + tuple(LOGICAL_OPCODES)
UNARY = tuple(UNARY_OPCODES)

#: Folding on/off at the source level and in the IR; the first is the
#: unoptimised reference.
CONFIGS = tuple(CompilerConfig(constant_folding=ast_fold,
                               enable_peephole=ir_fold)
                for ast_fold in (False, True) for ir_fold in (False, True))


def _trees():
    return st.recursive(
        st.sampled_from(LEAVES),
        lambda children: st.one_of(
            st.builds(lambda op, lhs, rhs: f"({lhs} {op} {rhs})",
                      st.sampled_from(BINARY), children, children),
            st.builds(lambda op, operand: f"({op}{operand})",
                      st.sampled_from(UNARY), children)),
        max_leaves=6)


def _simulate(expression: str, config: CompilerConfig):
    program, _ = build_program(
        PIPELINE, parse(f"int f() {{ return {expression}; }}"), config)
    try:
        return Simulator(program, PLATFORM).run("f", []).return_value
    except SimulationError:
        return None


@given(expression=_trees())
@settings(max_examples=300, deadline=None)
# Trees that simulated differently folded and not while the source-level
# folder computed on unbounded integers.
@example(expression="((2147483647 + 1) > 0)")
@example(expression="(!0x100000000)")
@example(expression="((1 << 31) > 0)")
@example(expression="(((-2147483648) / (-1)) > 0)")
@example(expression="(0x100000000 && 1)")
def test_folding_preserves_simulated_value(expression):
    reference = _simulate(expression, CONFIGS[0])
    if reference is None:  # traps unoptimised: no defined result
        return
    for config in CONFIGS[1:]:
        assert _simulate(expression, config) == reference, config


@pytest.mark.parametrize("leaf", LEAVES)
def test_strength_reduction_reads_immediates_wrapped(leaf):
    # ``a * 0x100000000`` multiplies by 0 once wrapped; reducing the raw
    # power of two to ``a << 32`` (a shift by 0) returned ``a``.
    source = parse(f"int f(int a) {{ return (a * {leaf}) + (a - {leaf}); }}")
    values = set()
    for reduce in (False, True):
        program, _ = build_program(
            PIPELINE, source, CompilerConfig(strength_reduction=reduce))
        values.add(Simulator(program, PLATFORM).run("f", [3]).return_value)
    assert len(values) == 1


@pytest.mark.parametrize("product", ["bump() * 0", "0 * bump()"])
def test_folding_keeps_calls_multiplied_by_zero(product):
    # ``x * 0 -> 0`` may not drop a call: its side effects still happen.
    source = parse("int g[1];\n"
                   "int bump() { g[0] = g[0] + 1; return 1; }\n"
                   f"int f() {{ int x = {product}; return x + g[0]; }}")
    values = []
    for fold in (False, True):
        program, _ = build_program(
            PIPELINE, source, CompilerConfig(constant_folding=fold))
        values.append(Simulator(program, PLATFORM).run("f", []).return_value)
    assert values == [1, 1]
