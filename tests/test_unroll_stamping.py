"""Unrolling by stamping lowered IR: pinned IR text and a differential test.

The unroll pass emits one :class:`~repro.frontend.ast_nodes.Repeat` node per
unrolled loop and lowering stamps the body's IR ``count`` times.  The IR must
equal what lowering every copy from scratch produced, instruction for
instruction — registers, labels, branch targets, block order, region tree,
loop ids and pass statistics.  Two checks hold it there:

* **IR pin**: a SHA-256 over a canonical dump of the lowered IR of every
  embedded TeamPlay-C source across the unroll/folding/hardening/inlining
  genes, captured before stamping existed.  ``program_fingerprint`` and the
  persistent table digests ignore register names, so they cannot see a
  renaming slip; this dump can.
* **Differential**: generated programs are built by the pipeline and by the
  clone-per-iteration unroll kept in ``tests/oracles.py``; the two programs
  must be equal field for field, and simulate like the ``unroll_limit=0``
  build.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import replace
from typing import Dict, List, Tuple

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import build_program, unroll_by_cloning
from test_frontend_cursor import _NAMES, _program, _statement

from repro.compiler.config import UNROLL_CHOICES, CompilerConfig
from repro.compiler.pipeline import CompilationPipeline, PassManager
from repro.compiler.pipeline.passes import default_compile_passes
from repro.dl.kernels import (
    conv2d_kernel_source,
    matmul_kernel_source,
    relu_kernel_source,
)
from repro.errors import FrontendError, SimulationError
from repro.frontend.parser import parse
from repro.hw.presets import nucleo_stm32f091rc
from repro.ir.cfg import Program
from repro.ir.instructions import Instr
from repro.ir.regions import BlockRegion, IfRegion, LoopRegion, SeqRegion
from repro.scenarios.library import ECG_SOURCE, SMART_METER_SOURCE
from repro.security import ciphers
from repro.sim.machine import Simulator
from repro.usecases.camera_pill import CAMERA_PILL_SOURCE
from repro.usecases.space import SPACE_SOURCE


PLATFORM = nucleo_stm32f091rc()


# ---------------------------------------------------------------------------
# Canonical IR dump
# ---------------------------------------------------------------------------
def _dump_instr(instr: Instr) -> str:
    return (f"{instr.opcode.value} {instr.dst!r} {instr.srcs!r} "
            f"{instr.array} {instr.true_target} {instr.false_target} "
            f"{instr.callee} {instr.args!r} {instr.comment!r}")


def _dump_region(region, out: List[str], depth: int = 0) -> None:
    pad = "  " * depth
    if isinstance(region, BlockRegion):
        out.append(f"{pad}block {region.label}")
    elif isinstance(region, SeqRegion):
        out.append(f"{pad}seq")
        for child in region.children:
            _dump_region(child, out, depth + 1)
    elif isinstance(region, IfRegion):
        out.append(f"{pad}if {region.cond_label}")
        _dump_region(region.then_region, out, depth + 1)
        _dump_region(region.else_region, out, depth + 1)
    elif isinstance(region, LoopRegion):
        out.append(f"{pad}loop {region.cond_label} bound={region.bound} "
                   f"pragma={region.pragma_bound} id={region.loop_id}")
        _dump_region(region.body_region, out, depth + 1)
    else:  # pragma: no cover - defensive
        raise TypeError(type(region))


def dump_program(program: Program, statistics: Dict[str, int]) -> str:
    """Every register, label, target, region, loop id and statistic."""
    out = [f"program {program.source_name} "
           f"globals={sorted(program.global_arrays.items())} "
           f"stats={sorted(statistics.items())}"]
    for name, function in program.functions.items():
        out.append(f"function {name} params={function.params} "
                   f"secret={function.secret_params} entry={function.entry} "
                   f"arrays={list(function.local_arrays.items())}")
        for label, block in function.blocks.items():
            out.append(f"{label}:")
            out.extend(_dump_instr(instr) for instr in block.instrs)
        _dump_region(function.region, out)
    return "\n".join(out) + "\n"


#: Every embedded TeamPlay-C source of the repository.
IR_PIN_SOURCES: Tuple[Tuple[str, str], ...] = (
    ("camera-pill", CAMERA_PILL_SOURCE),
    ("space", SPACE_SOURCE),
    ("ecg", ECG_SOURCE),
    ("smart-meter", SMART_METER_SOURCE),
    ("conv2d", conv2d_kernel_source()),
    ("matmul", matmul_kernel_source()),
    ("relu", relu_kernel_source()),
    ("modexp-leaky", ciphers.MODEXP_LEAKY_SOURCE),
    ("modexp-ladder", ciphers.MODEXP_LADDER_SOURCE),
    ("pin-compare-leaky", ciphers.PIN_COMPARE_LEAKY_SOURCE),
    ("pin-compare-ct", ciphers.PIN_COMPARE_CT_SOURCE),
    ("xtea", ciphers.XTEA_SOURCE),
)


def ir_pin_configs() -> List[CompilerConfig]:
    """Every unroll limit × folding × hardening × inlining combination."""
    return [CompilerConfig(constant_folding=fold, unroll_limit=unroll,
                           harden_security=harden,
                           inline_simple_functions=inline)
            for unroll in UNROLL_CHOICES
            for fold in (False, True)
            for harden in (False, True)
            for inline in (False, True)]


def ir_pin_digest() -> Tuple[str, int]:
    """SHA-256 and byte size of the lowered IR of the whole pin matrix."""
    pipeline = CompilationPipeline(PLATFORM)
    digest = hashlib.sha256()
    size = 0
    for name, source in IR_PIN_SOURCES:
        module = parse(source, name)
        for config in ir_pin_configs():
            working, statistics = pipeline.pre_unroll(module, config)
            program = pipeline.unroll_and_lower(working, config, statistics)
            text = f"== {name} {config}\n" + dump_program(program, statistics)
            data = text.encode()
            digest.update(data)
            size += len(data)
    return digest.hexdigest(), size


#: ``ir_pin_digest()`` before unrolling stamped IR (clone-and-lower).
PINNED_IR_DIGEST = (
    "afd7ba519c215098f2c4b26b2a75850946ab0d12b5082e10df36d2d88a7da9e5")


class TestIrPin:
    def test_lowered_ir_matches_the_pinned_digest(self):
        digest, _ = ir_pin_digest()
        assert digest == PINNED_IR_DIGEST


# ---------------------------------------------------------------------------
# Differential: stamped lowering against clone-per-iteration unrolling
# ---------------------------------------------------------------------------
def _unroll_by_cloning(ctx) -> None:
    ctx.statistics["unrolled_loops"] = unroll_by_cloning(
        ctx.module, ctx.config.unroll_limit)


#: The stock pipeline, and the same pass list with the cloning oracle in
#: place of ``unroll-loops``.
STAMPED = CompilationPipeline(PLATFORM)
CLONING = CompilationPipeline(PLATFORM, PassManager([
    replace(p, apply=_unroll_by_cloning) if p.name == "unroll-loops" else p
    for p in default_compile_passes()]))

_ARRAY_REDECLARED = re.compile(r"array '\w+' redeclared")


def _lower(pipeline: CompilationPipeline, module, config: CompilerConfig):
    """``(program, statistics)`` or the :class:`FrontendError` message."""
    try:
        working, statistics = pipeline.pre_unroll(module, config)
        program = pipeline.unroll_and_lower(working, config, statistics)
    except FrontendError as error:
        return str(error)
    return program, statistics


def _simulate(program: Program, function: str, args: List[int]):
    """Return value and final globals, or None when the run cannot finish."""
    try:
        result = Simulator(program, PLATFORM, max_steps=20_000).run(
            function, args)
    except SimulationError:
        return None
    return result.return_value, result.globals_after


def _check_against_oracle(source: str, inputs: List[int]) -> None:
    try:
        module = parse(source)
    except FrontendError:
        return
    for fold in (False, True):
        reference = _lower(STAMPED, module, CompilerConfig(
            constant_folding=fold, unroll_limit=0))
        baselines = None
        for unroll in UNROLL_CHOICES:
            config = CompilerConfig(constant_folding=fold, unroll_limit=unroll)
            stamped = _lower(STAMPED, module, config)
            expected = _lower(CLONING, module, config)
            if isinstance(expected, str):
                if not _ARRAY_REDECLARED.search(expected):
                    assert stamped == expected
                    continue
                # Cloned copies redeclare the body's arrays; stamping
                # declares them once, like the rolled loop does.
                if isinstance(reference, str) or isinstance(stamped, str):
                    assert stamped == reference
                    continue
            else:
                assert not isinstance(stamped, str), stamped
                assert stamped[1] == expected[1]
                assert dump_program(*stamped) == dump_program(*expected)
                for name, function in stamped[0].functions.items():
                    assert function.annotations == \
                        expected[0].functions[name].annotations
            if unroll == 0 or isinstance(reference, str):
                continue
            if baselines is None:
                baselines = {
                    name: _simulate(reference[0], name,
                                    inputs[:len(function.params)])
                    for name, function in reference[0].functions.items()}
            for name, baseline in baselines.items():
                if baseline is not None:
                    args = inputs[:len(stamped[0].function(name).params)]
                    assert _simulate(stamped[0], name, args) == baseline, name


#: Names the unrollable programs declare as global arrays; the others are
#: free for the generated local ``int name[N];`` declarations.
_GLOBAL_ARRAYS = _NAMES[:4]


@st.composite
def _unrollable_program(draw):
    """Generated statements inside a counted loop, every scalar declared.

    Most :func:`_program` sources fail to lower (undeclared names) or have
    no counted loop; this wraps the same generated statements so that
    nearly every example builds and unrolls.
    """
    arrays = "".join(f"int {name}[16];" for name in _GLOBAL_ARRAYS)
    scalars = "".join(f"int {name} = {draw(st.integers(-9, 9))};"
                      for name in _NAMES[3:])
    counter = draw(st.sampled_from(_NAMES))
    trips = draw(st.integers(1, 32))
    body = "".join(draw(st.lists(_statement(2), min_size=1, max_size=3)))
    tail = "".join(draw(st.lists(_statement(1), max_size=2)))
    return (f"{arrays}\nint kernel(int a, int b, int counter) {{{scalars}"
            f"for (int {counter} = 0; {counter} < {trips}; {counter} += 1) "
            f"{{{body}}}{tail} return out; }}")


#: An unrollable program around one hand-written loop.
_UNROLLABLE = ("int a[16]; int b[16]; int counter[16]; int idx[16];\n"
               "int kernel(int a, int b, int counter) {{ int out = 0; {} "
               "return out; }}")

_INPUTS = st.lists(st.integers(-2**31, 2**31 - 1), min_size=3, max_size=3)


class TestStampedMatchesCloning:
    @given(source=_program(), inputs=_INPUTS)
    @settings(max_examples=30, deadline=None)
    def test_generated_programs(self, source, inputs):
        _check_against_oracle(source, inputs)

    @given(source=_unrollable_program(), inputs=_INPUTS)
    @settings(max_examples=40, deadline=None)
    # A body writing its counter: unrolled ``bound`` times, although the
    # loop exits after one trip.
    @example(source=_UNROLLABLE.format(
        "for (int out = 0; out < 4; out += 1) { out += 5; }"), inputs=[1, 2, 3])
    # A scalar named like the start block of the first copy.
    @example(source=_UNROLLABLE.format(
        "int entry = 2; for (int idx = 0; idx < 3; idx += 1) "
        "{ out = out + entry * idx; }"), inputs=[1, 2, 3])
    # A local array in the body: cloned copies redeclare it.
    @example(source=_UNROLLABLE.format(
        "for (int idx = 0; idx < 3; idx += 1) { int _buf[2]; _buf[1] = idx;"
        " out = out + _buf[1]; }"), inputs=[1, 2, 3])
    def test_generated_unrollable_programs(self, source, inputs):
        _check_against_oracle(source, inputs)

    def test_folds_exposed_by_inlining_count_once_per_copy(self):
        # Inlining runs after the first folding round, so ``scale(3)``
        # reaches the post-unroll round as ``3 * 8 + 2``: two folds a copy
        # (without unrolling there is no second round).
        module = parse("""
        int scale(int x) { return x * 8 + 2; }
        int f(int a) {
            int acc = a;
            for (int i = 0; i < 4; i += 1) { acc = acc + scale(3); }
            return acc;
        }
        """)
        for unroll in UNROLL_CHOICES:
            config = CompilerConfig(unroll_limit=unroll,
                                    inline_simple_functions=True)
            stamped = _lower(STAMPED, module, config)
            expected = _lower(CLONING, module, config)
            assert stamped[1] == expected[1]
            assert dump_program(*stamped) == dump_program(*expected)
            assert stamped[1]["constant_folds"] == (8 if unroll else 0)


# ---------------------------------------------------------------------------
# Miscompiles and spurious errors around unrolling and temps
# ---------------------------------------------------------------------------
def _build(source: str, config: CompilerConfig) -> Program:
    program, _ = build_program(STAMPED, parse(source), config)
    return program


class TestTempNamespace:
    SOURCE = """
    int g[4] = {10, 20, 30, 40};
    int f(int a) { int t1 = 5; int x = g[a] + t1; return x; }
    """

    def test_user_scalar_named_like_a_temp_is_not_clobbered(self):
        program = _build(self.SOURCE, CompilerConfig())
        result = Simulator(program, PLATFORM).run("f", [2])
        assert result.return_value == 35

    def test_parameter_named_like_a_temp_is_not_clobbered(self):
        source = """
        int g[4] = {10, 20, 30, 40};
        int f(int t2, int a) { int x = g[a] + g[t2]; return x + t2; }
        """
        for unroll in UNROLL_CHOICES:
            program = _build(source, CompilerConfig(unroll_limit=unroll))
            result = Simulator(program, PLATFORM).run("f", [1, 3])
            assert result.return_value == 20 + 40 + 1

    def test_temps_keep_their_names_without_a_collision(self):
        program = _build("int f(int a) { return a * 2 + 1; }",
                         CompilerConfig(dead_code_elimination=False))
        names = {reg.name for reg in program.function("f").defined_registers()}
        assert names == {"t1", "t2"}


class TestArraysInUnrolledBodies:
    SOURCE = """
    int out[4];
    int f(int a) {
        int acc = 0;
        for (int i = 0; i < 4; i = i + 1) {
            int buf[2];
            buf[0] = a + i;
            buf[1] = buf[0] * 2;
            out[i] = buf[1];
            acc = acc + buf[0];
        }
        return acc;
    }
    """

    def test_builds_and_simulates_at_every_unroll_limit(self):
        baseline = Simulator(_build(self.SOURCE, CompilerConfig()),
                             PLATFORM).run("f", [7])
        for unroll in UNROLL_CHOICES:
            program = _build(self.SOURCE, CompilerConfig(unroll_limit=unroll))
            assert program.function("f").local_arrays == {"buf": 2}
            result = Simulator(program, PLATFORM).run("f", [7])
            assert result.return_value == baseline.return_value == 34
            assert result.globals_after == baseline.globals_after

    def test_redeclaration_within_one_body_still_raises(self):
        source = """
        int f(void) {
            for (int i = 0; i < 4; i = i + 1) { int buf[2]; int buf[3]; }
            return 0;
        }
        """
        for unroll in UNROLL_CHOICES:
            with pytest.raises(FrontendError, match="array 'buf' redeclared"):
                _build(source, CompilerConfig(unroll_limit=unroll))


class TestInductionVariableWrites:
    def test_loop_writing_its_counter_is_not_unrolled(self):
        source = """
        int f(int a) {
            int n = 0;
            for (int i = 0; i < 4; i += 1) { i = i + a; n = n + 1; }
            return n;
        }
        """
        for unroll in UNROLL_CHOICES:
            program, statistics = build_program(
                STAMPED, parse(source), CompilerConfig(unroll_limit=unroll))
            assert statistics.get("unrolled_loops", 0) == 0
            assert Simulator(program, PLATFORM).run("f", [2]).return_value == 2
