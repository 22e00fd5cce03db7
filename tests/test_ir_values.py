"""IR value objects: slots, pickling and fingerprint interning.

A build keeps every lowered instruction alive until its variant is
dropped, and the cyclic garbage collector walks each tracked object on
every full collection.  ``Instr``, ``Reg`` and ``Imm`` are slotted (no
per-instance ``__dict__``), stamped copies are built through the
constructor, and :func:`program_fingerprint` interns its per-instruction
``(opcode, callee, array)`` triples, so equal programs share them and
comparing two equal fingerprints short-circuits on identity.  Identity is
an optimisation only: values, pickles and persistent digests are unchanged.
"""

from __future__ import annotations

import gc
import pickle

import pytest

from repro.compiler.config import UNROLL_CHOICES, CompilerConfig
from repro.compiler.engine import cache as engine_cache
from repro.compiler.engine.cache import program_fingerprint
from repro.compiler.engine.persist import key_digest
from repro.compiler.pipeline import CompilationPipeline
from repro.frontend.parser import parse
from repro.hw.presets import nucleo_stm32f091rc
from repro.ir.instructions import Imm, Instr, Opcode, Reg
from repro.usecases.camera_pill import CAMERA_PILL_SOURCE

PIPELINE = CompilationPipeline(nucleo_stm32f091rc())

#: The largest ``camera-pill`` variant the unroll gene can produce.
LARGEST = CompilerConfig(unroll_limit=max(UNROLL_CHOICES))


def _lower(config: CompilerConfig = LARGEST):
    """A freshly lowered ``camera-pill`` program (no cache in between)."""
    module = parse(CAMERA_PILL_SOURCE, "camera-pill")
    working, statistics = PIPELINE.pre_unroll(module, config)
    return PIPELINE.unroll_and_lower(working, config, statistics)


def _instructions(program):
    return [instr for function in program.functions.values()
            for block in function.blocks.values() for instr in block.instrs]


class TestSlots:
    @pytest.mark.parametrize("value", [
        Reg("t1"), Imm(7),
        Instr(Opcode.ADD, dst=Reg("t1"), srcs=(Reg("a"), Imm(1))),
    ], ids=["Reg", "Imm", "Instr"])
    def test_values_have_no_instance_dict(self, value):
        assert not hasattr(value, "__dict__")

    def test_stamped_and_cloned_instructions_have_no_instance_dict(self):
        instrs = _instructions(_lower())
        assert not any(hasattr(instr, "__dict__") for instr in instrs)
        clone = instrs[-1].clone()
        assert clone == instrs[-1] and clone is not instrs[-1]
        assert not hasattr(clone, "__dict__")

    def test_operands_stay_frozen(self):
        with pytest.raises(AttributeError):
            Reg("a").name = "b"
        with pytest.raises(AttributeError):
            Imm(1).value = 2

    def test_build_leaves_at_most_three_tracked_objects_per_instruction(self):
        _lower()  # warm the parse cache and every lazily built table
        gc.collect()
        gc.freeze()
        try:
            before = len(gc.get_objects())
            program = _lower()
            program_fingerprint(program)
            tracked = len(gc.get_objects()) - before
        finally:
            gc.unfreeze()
        count = len(_instructions(program))
        assert count > 10_000
        assert tracked / count <= 3.0


class TestPickling:
    @pytest.mark.parametrize("value", [Reg("t1"), Imm(-3), Imm(2 ** 40)],
                             ids=repr)
    def test_operands_round_trip(self, value):
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(value, protocol))
            assert copy == value and hash(copy) == hash(value)
            assert type(copy) is type(value)

    def test_instruction_round_trips(self):
        instr = Instr(Opcode.CALL, dst=Reg("t2"), callee="f",
                      args=(Reg("x"), Imm(4)), comment="call f")
        copy = pickle.loads(pickle.dumps(instr))
        assert copy == instr and repr(copy) == repr(instr)

    def test_lowered_program_round_trips(self):
        program = _lower(CompilerConfig(unroll_limit=4))
        copy = pickle.loads(pickle.dumps(program))
        assert copy == program
        assert program_fingerprint(copy) == program_fingerprint(program)
        assert (hash(program_fingerprint(copy))
                == hash(program_fingerprint(program)))


class TestFingerprintInterning:
    def test_equal_programs_share_their_instruction_signatures(self):
        first = program_fingerprint(_lower())
        second = program_fingerprint(_lower())
        assert first == second and first is not second
        for (_, _, _, _, blocks_a), (_, _, _, _, blocks_b) in zip(first,
                                                                 second):
            for block_a, block_b in zip(blocks_a, blocks_b):
                # Element 0 is the block label; the rest are the triples.
                assert all(a is b for a, b in zip(block_a[1:], block_b[1:]))

    def test_emptying_the_table_keeps_values_and_digests(self):
        config = CompilerConfig(unroll_limit=4)
        before = program_fingerprint(_lower(config))
        engine_cache._SIGNATURES.clear()
        after = program_fingerprint(_lower(config))
        assert after == before and hash(after) == hash(before)
        assert key_digest("analysis", after) == key_digest("analysis", before)

    def test_table_is_emptied_when_full(self, monkeypatch):
        monkeypatch.setattr(engine_cache, "_SIGNATURES_LIMIT", 1)
        program_fingerprint(_lower(CompilerConfig(unroll_limit=4)))
        assert len(engine_cache._SIGNATURES) > 1
        program = _lower(CompilerConfig(unroll_limit=8))
        program_fingerprint(program)
        # Emptied first, so it holds the second program's triples only.
        assert len(engine_cache._SIGNATURES) == len({
            (instr.opcode, instr.callee, instr.array)
            for instr in _instructions(program)})
