"""IR-level optimisation passes.

These passes operate on lowered :class:`~repro.ir.cfg.Program` objects in
place.  They only rewrite instructions *within* basic blocks, so the region
tree (which references blocks by label) remains valid.

All passes are copy-on-write at instruction granularity: they rebuild
instruction lists and replace rewritten instructions with fresh objects,
never mutating an :class:`~repro.ir.instructions.Instr` in place — required
because the evaluation engine's staged caches hand out instruction-sharing
program clones (``Program.clone(share_instructions=True)``).

Dead-code elimination, strength reduction and the peephole pass rewrite
unrolled runs (:mod:`repro.ir.runs`) on their template through
:meth:`~repro.ir.cfg.BasicBlock.rewrite`, so a block keeps its compact
form; CSE numbers values across copies and reads the flat instruction list.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.ir.cfg import Program
from repro.ir.instructions import (COMMUTATIVE, Imm, Instr, Opcode, Reg,
                                   evaluate, wrap32)
from repro.ir.runs import copies, walk

#: Opcodes that must never be removed even if their destination is unused.
_SIDE_EFFECTS = {Opcode.STORE, Opcode.CALL, Opcode.RET, Opcode.BR, Opcode.JMP}


# ---------------------------------------------------------------------------
# Dead-code elimination
# ---------------------------------------------------------------------------
def eliminate_dead_code(program: Program) -> int:
    """Remove instructions whose results are never read.

    Returns the number of instructions removed (across all functions).  The
    pass iterates to a fixed point because removing one dead instruction can
    make its operands' producers dead too.  Read counts are maintained
    incrementally across iterations (same fixed point as recomputing the
    used-register set from scratch, without re-walking every operand).

    Unrolled runs are rewritten on their template.  A read count counts
    reading instructions of the template, not of every copy: a register is
    dead once no reader is left, and a template reader stays or goes in
    all of its copies, so a dead template instruction is dead in every
    copy (a copy's own temps are read only inside that copy).
    """
    removed_total = 0
    for function in program.functions.values():
        reads: Dict[str, int] = {}
        for block in function.blocks.values():
            for instr in walk(block.parts):
                for reg in instr.reads():
                    reads[reg.name] = reads.get(reg.name, 0) + 1
        removed = 0
        unread = True

        def drop_dead(instr, runs):
            nonlocal removed, unread
            dst = instr.dst
            if (dst is None or instr.opcode in _SIDE_EFFECTS
                    or reads.get(dst.name)):
                return instr
            removed += copies(runs)
            for reg in instr.reads():
                reads[reg.name] -= 1
                if not reads[reg.name]:
                    unread = True
            return None

        # Another sweep can only remove something once a register lost its
        # last reader during this one.
        while unread:
            unread = False
            for block in function.blocks.values():
                block.rewrite(drop_dead)
        removed_total += removed
    return removed_total


# ---------------------------------------------------------------------------
# Strength reduction / peephole simplification
# ---------------------------------------------------------------------------
def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


#: Opcodes _reduce_instr can do anything with; for all but MUL only a zero
#: right operand reduces.
_REDUCIBLE_OPS = frozenset((Opcode.MUL, Opcode.ADD, Opcode.SUB, Opcode.OR,
                            Opcode.XOR, Opcode.SHL, Opcode.SHR))
#: The commutative ones, whose immediate operand is moved to the right.
_COMMUTATIVE_REDUCIBLE = frozenset((Opcode.MUL, Opcode.ADD, Opcode.OR,
                                    Opcode.XOR))


def _reduce_instr(instr: Instr) -> Optional[Instr]:
    """The strength-reduced replacement for one instruction, or ``None``.

    A replacement with the same opcode only normalises ``imm op reg`` to
    ``reg op imm``; every actual reduction changes the opcode.  The input
    is never mutated.
    """
    op = instr.opcode
    if op not in _REDUCIBLE_OPS or len(instr.srcs) != 2:
        return None
    lhs, rhs = instr.srcs
    swapped = False

    # Normalise "imm op reg" to "reg op imm" for commutative operations.
    if op in _COMMUTATIVE_REDUCIBLE \
            and isinstance(lhs, Imm) and isinstance(rhs, Reg):
        lhs, rhs = rhs, lhs
        swapped = True

    if isinstance(rhs, Imm):
        value = wrap32(rhs.value)  # the operand the simulator reads
        if op is Opcode.MUL:
            if value == 1:
                return _replace(instr, Opcode.MOV, (lhs,))
            if value == 0:
                return _replace(instr, Opcode.MOV, (Imm(0),))
            if _is_power_of_two(value):
                return _replace(instr, Opcode.SHL,
                                (lhs, Imm(value.bit_length() - 1)))
        elif value == 0:
            return _replace(instr, Opcode.MOV, (lhs,))
    return _replace(instr, op, (lhs, rhs)) if swapped else None


def _replace(instr: Instr, opcode: Opcode, srcs: Tuple) -> Instr:
    """A copy of ``instr`` with a new opcode and sources."""
    return Instr(opcode, instr.dst, srcs, instr.array, instr.true_target,
                 instr.false_target, instr.callee, instr.args, instr.comment)


# ---------------------------------------------------------------------------
# Common-subexpression elimination (block-local)
# ---------------------------------------------------------------------------
#: Opcodes whose result depends only on their register/immediate operands.
#: LOAD is excluded (its value depends on memory, which STOREs in the same
#: block may change); MOV is excluded (replacing a copy with another copy
#: gains nothing — copy propagation is a different pass).
_PURE_OPS = frozenset((
    Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.MOD,
    Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SHL, Opcode.SHR,
    Opcode.NEG, Opcode.NOT, Opcode.LNOT,
    Opcode.CMPEQ, Opcode.CMPNE, Opcode.CMPLT, Opcode.CMPLE,
    Opcode.CMPGT, Opcode.CMPGE, Opcode.SELECT,
))

#: Commutative opcodes, as a set for O(1) membership in the CSE key builder.
_COMMUTATIVE_OPS = frozenset(COMMUTATIVE)


def _expression_key(instr: Instr) -> Tuple:
    """Value-equality key of a pure instruction's right-hand side.

    Commutative two-operand expressions are canonicalised (sorted operand
    order) so ``a + b`` and ``b + a`` share one availability slot.
    """
    srcs = instr.srcs
    if instr.opcode in _COMMUTATIVE_OPS and len(srcs) == 2:
        a, b = srcs
        if repr(b) < repr(a):
            srcs = (b, a)
    return (instr.opcode, srcs)


def eliminate_common_subexpressions(program: Program) -> int:
    """Replace re-computed pure expressions with register copies.

    Block-local available-expression analysis: within one basic block, the
    second and later computations of an identical pure expression (same
    opcode, same operands, commutative operands canonicalised) are replaced
    by a ``MOV`` from the register still holding the first result.  Returns
    the number of replacements (across all functions).

    The rewrite never removes an instruction, it *downgrades* one — a
    ``mul``/``div``-class recomputation becomes an ``alu``-class copy — so
    worst-case cycle (and energy) bounds drop while code size is unchanged;
    a following peephole pass removes the self-copies this can leave behind.
    Availability is invalidated conservatively on every register
    redefinition: an expression is dropped both when one of its operands and
    when its holding register is overwritten, and an instruction whose
    destination feeds its own right-hand side (``i = i + 1``) is never
    recorded.
    """
    replaced_total = 0
    for function in program.functions.values():
        for block in function.blocks.values():
            available: Dict[Tuple, Reg] = {}
            #: register name -> keys whose operands or holder mention it
            mentions: Dict[str, list] = {}
            instrs = block.instrs
            for index, instr in enumerate(instrs):
                dst = instr.dst
                recorded_key = None
                if (instr.opcode in _PURE_OPS and dst is not None
                        and instr.srcs):
                    key = _expression_key(instr)
                    holder = available.get(key)
                    if holder is not None:
                        replacement = Instr(Opcode.MOV, dst=dst,
                                            srcs=(holder,))
                        instrs[index] = replacement
                        instr = replacement
                        replaced_total += 1
                    elif dst.name not in (reg.name for reg in instr.reads()):
                        recorded_key = key
                if dst is None:
                    continue
                # The write invalidates every expression reading or held in
                # ``dst`` — including, possibly, the one we just matched.
                for key in mentions.pop(dst.name, ()):
                    available.pop(key, None)
                if recorded_key is not None:
                    available[recorded_key] = dst
                    for reg in instr.reads():
                        mentions.setdefault(reg.name, []).append(recorded_key)
                    mentions.setdefault(dst.name, []).append(recorded_key)
    return replaced_total


def strength_reduce(program: Program) -> int:
    """Apply peephole strength reduction; returns the number of rewrites.

    Copy-on-write at instruction granularity: rewritten instructions are
    replaced by new ones instead of being mutated in place, so programs
    produced by instruction-sharing clones (see
    ``Program.clone(share_instructions=True)``) never corrupt each other.
    A rewrite inside an unrolled run counts once per copy.
    """
    rewrites = 0

    def reduce(instr, runs):
        nonlocal rewrites
        if instr.opcode not in _REDUCIBLE_OPS:
            return instr
        replacement = _reduce_instr(instr)
        if replacement is None:
            return instr
        # A same-opcode replacement only normalised the operand order:
        # kept, but not counted.
        if replacement.opcode is not instr.opcode:
            rewrites += copies(runs)
        return replacement

    for function in program.functions.values():
        for block in function.blocks.values():
            block.rewrite(reduce)
    return rewrites


# ---------------------------------------------------------------------------
# Peephole simplification (algebraic identities, IR-level constant folding)
# ---------------------------------------------------------------------------
#: Same-register identities: ``op x, x`` folds without knowing ``x``.
_SAME_REG_ZERO = frozenset((Opcode.SUB, Opcode.XOR, Opcode.CMPNE,
                            Opcode.CMPLT, Opcode.CMPGT))
_SAME_REG_ONE = frozenset((Opcode.CMPEQ, Opcode.CMPLE, Opcode.CMPGE))
_SAME_REG_COPY = frozenset((Opcode.AND, Opcode.OR))


def _fold(instr: Instr, values: Tuple[int, ...]) -> Optional[Instr]:
    """``instr`` as a move of its value, computed exactly as the simulator
    computes it, or ``None``: division by zero keeps trapping at run time."""
    folded = evaluate(instr.opcode, values)
    return None if folded is None else \
        Instr(Opcode.MOV, dst=instr.dst, srcs=(Imm(folded),))


def _peephole_rewrite(instr: Instr) -> Optional[Instr]:
    """The simplified replacement for one instruction, or ``None``.

    Every rewrite returns a *fresh* instruction (copy-on-write contract);
    the input is never mutated.
    """
    opcode, dst, srcs = instr.opcode, instr.dst, instr.srcs
    if dst is None:
        return None

    if len(srcs) == 2:
        lhs, rhs = srcs
        if isinstance(lhs, Imm) and isinstance(rhs, Imm):
            return _fold(instr, (lhs.value, rhs.value))
        if isinstance(lhs, Reg) and isinstance(rhs, Reg) \
                and lhs.name == rhs.name:
            if opcode in _SAME_REG_ZERO:
                return Instr(Opcode.MOV, dst=dst, srcs=(Imm(0),))
            if opcode in _SAME_REG_ONE:
                return Instr(Opcode.MOV, dst=dst, srcs=(Imm(1),))
            if opcode in _SAME_REG_COPY:
                return Instr(Opcode.MOV, dst=dst, srcs=(lhs,))
        return None

    if len(srcs) == 1:
        return _fold(instr, (srcs[0].value,)) \
            if isinstance(srcs[0], Imm) else None

    if opcode is Opcode.SELECT and len(srcs) == 3:
        cond, if_true, if_false = srcs
        if isinstance(cond, Imm):
            return Instr(Opcode.MOV, dst=dst,
                         srcs=(if_true if wrap32(cond.value) != 0
                               else if_false,))
        if if_true == if_false:
            return Instr(Opcode.MOV, dst=dst, srcs=(if_true,))
    return None


def peephole_optimize(program: Program) -> int:
    """Apply local algebraic simplifications; returns the rewrite count.

    Three families of cleanups, each a single-instruction rewrite:

    * *constant folding at the IR level* — operations whose operands are all
      immediates collapse to a ``MOV`` of the folded value (32-bit wrapped,
      bit-exact with the simulator; division by zero is left to trap),
    * *algebraic identities* — ``x - x``, ``x ^ x``, ``x & x``, ``x | x``,
      same-register comparisons, ``NEG``/``NOT``/``LNOT`` of immediates and
      ``SELECT`` with a constant condition or identical arms,
    * *self-copy removal* — ``mov r, r`` (e.g. left behind when CSE
      re-materialises a value into the register that already holds it) is
      deleted outright, shrinking code size.

    Deliberately *not* removed: ``NOP`` padding (a later timing-equalisation
    pass may count on it) and anything spanning more than one instruction.
    Copy-on-write at instruction granularity, like every IR pass here.
    """
    rewrites = 0

    def simplify(instr, runs):
        nonlocal rewrites
        if instr.dst is None:
            return instr
        if (instr.opcode is Opcode.MOV and len(instr.srcs) == 1
                and isinstance(instr.srcs[0], Reg)
                and instr.srcs[0].name == instr.dst.name):
            rewrites += copies(runs)
            return None
        replacement = _peephole_rewrite(instr)
        if replacement is None:
            return instr
        rewrites += copies(runs)
        return replacement

    for function in program.functions.values():
        for block in function.blocks.values():
            block.rewrite(simplify)
    return rewrites
