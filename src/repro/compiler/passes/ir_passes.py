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
form.  CSE numbers values across copies, so it rewrites a run copy by copy
until the copies repeat and keeps the rest as one run; a block stays
compact through it too.
"""

from __future__ import annotations

from operator import is_not
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ir.cfg import Program
from repro.ir.instructions import (COMMUTATIVE, Imm, Instr, Opcode, Reg,
                                   evaluate, wrap32)
from repro.ir.runs import Run, copies, walk

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


def _renamed_key(key: Tuple, rename: Dict[str, Reg]) -> Tuple:
    """``key`` with its registers renamed, re-canonicalised: renaming can
    flip the ``repr`` order of commutative operands (``t9`` vs ``t10``)."""
    opcode, srcs = key
    srcs = _operands(srcs, rename)
    if opcode in _COMMUTATIVE_OPS and len(srcs) == 2 \
            and repr(srcs[1]) < repr(srcs[0]):
        srcs = (srcs[1], srcs[0])
    return (opcode, srcs)


def _key_reads(key: Tuple, names) -> bool:
    return any(op.__class__ is Reg and op.name in names for op in key[1])


class _Available:
    """The available expressions at one point of a block.

    ``holders`` maps an expression key to the register holding its value;
    ``mentions`` maps a register name to the keys a write to it drops (the
    keys it is an operand or the holder of).  Dropped keys may stay listed:
    popping one again changes nothing, but a holder stays listed after its
    key is recorded anew with another holder, and a write to it then drops
    the key once more, which :meth:`forget` preserves.  ``read`` names the
    holders replacements read.
    """

    __slots__ = ("holders", "mentions", "read")

    def __init__(self):
        self.holders: Dict[Tuple, Reg] = {}
        self.mentions: Dict[str, list] = {}
        self.read: set = set()

    def forget(self, dead: Sequence[str]) -> None:
        """Drop what only ``dead`` registers can observe, and stale lists.

        A run copy's temps are read and written only inside that copy, so
        once it ends no key over them is looked up again and no write to
        them drops anything.  Listed keys no longer held are dropped too,
        except under a former holder.  What is left is all the rest of
        the block can observe, so equal states compare equal.
        """
        dead = set(dead)
        holders, mentions = self.holders, self.mentions
        for name in dead:
            mentions.pop(name, None)
        for key in [key for key in holders if _key_reads(key, dead)]:
            del holders[key]
        for name, keys in list(mentions.items()):
            kept = [key for key in dict.fromkeys(keys)
                    if key in holders or not (_key_reads(key, dead)
                                              or _key_reads(key, (name,)))]
            if kept:
                mentions[name] = kept
            else:
                del mentions[name]

    def snapshot(self, rename: Dict[str, Reg]) -> Tuple:
        """The state with registers renamed, comparable with ``==``."""
        def name_of(name):
            reg = rename.get(name)
            return name if reg is None else reg.name

        return ({_renamed_key(key, rename): rename.get(holder.name, holder)
                 for key, holder in self.holders.items()},
                frozenset((name_of(name), _renamed_key(key, rename))
                          for name, keys in self.mentions.items()
                          for key in keys))

    def rename_holders(self, rename: Dict[str, Reg]) -> None:
        holders = self.holders
        for key, holder in holders.items():
            holders[key] = rename.get(holder.name, holder)


def _operands(operands: Sequence, rename: Dict[str, Reg]) -> Tuple:
    return tuple([rename.get(op.name, op) if op.__class__ is Reg else op
                  for op in operands])


def _shape(parts: Sequence, rename: Dict[str, Reg], shift: int) -> Tuple:
    """``parts`` as the next copy of a run holding them would stamp them,
    comparable with ``==``: registers renamed by ``rename``, and nested
    runs moved by ``shift`` (see :meth:`repro.ir.runs.Stamper.compile`)."""
    out = []
    for part in parts:
        if part.__class__ is Run:
            if rename:
                part = part.moved(shift, _operands(part.fixed, rename))
            out.append((part.count, part.prefix, part.first, part.width,
                        _shape(part.template(), {}, 0)))
        else:
            dst = part.dst
            out.append(Instr(part.opcode, dst and rename.get(dst.name, dst),
                             _operands(part.srcs, rename), part.array,
                             part.true_target, part.false_target,
                             part.callee, _operands(part.args, rename),
                             part.comment) if rename else part)
    return tuple(out)


def _cse(parts: Sequence, state: _Available) -> Tuple[List, int]:
    """``parts`` with recomputations replaced, and how many were."""
    holders, mentions, read = state.holders, state.mentions, state.read
    out: List = []
    replaced = 0
    for instr in parts:
        if instr.__class__ is Run:
            rewritten, count = _cse_run(instr, state)
            out.extend(rewritten)
            replaced += count
            continue
        dst = instr.dst
        recorded_key = None
        if (instr.opcode in _PURE_OPS and dst is not None
                and instr.srcs):
            key = _expression_key(instr)
            holder = holders.get(key)
            if holder is not None:
                instr = Instr(Opcode.MOV, dst=dst, srcs=(holder,))
                replaced += 1
                read.add(holder.name)
            elif dst.name not in (reg.name for reg in instr.reads()):
                recorded_key = key
        out.append(instr)
        if dst is None:
            continue
        # The write invalidates every expression reading or held in
        # ``dst`` — including, possibly, the one we just matched.
        for key in mentions.pop(dst.name, ()):
            holders.pop(key, None)
        if recorded_key is not None:
            holders[recorded_key] = dst
            for reg in instr.reads():
                mentions.setdefault(reg.name, []).append(recorded_key)
            mentions.setdefault(dst.name, []).append(recorded_key)
    return out, replaced


def _cse_run(run: Run, state: _Available) -> Tuple[List, int]:
    """The parts standing for ``run`` after CSE, and its replacements.

    Copies are rewritten in order.  Once a copy's rewrite and the state it
    leaves are the previous copy's under the per-copy temp renaming, every
    later copy repeats them: the copies before the previous one stay
    written out, and the rest become one run of the previous copy's
    rewrite.  A run that never settles is written out.
    """
    rewrites: List[List] = []
    counts: List[int] = []
    expected = None
    for index in range(run.count):
        rewritten, count = _cse(run.copy(index), state)
        temps = run.temps(index)
        state.forget(temps)
        if expected is not None and expected[0] == _shape(rewritten, {}, 0) \
                and expected[1] == state.snapshot({}):
            break
        rewrites.append(rewritten)
        counts.append(count)
        if index + 1 < run.count:
            rename = dict(zip(temps, map(Reg, run.temps(index + 1))))
            expected = (_shape(rewritten, rename, run.width),
                        state.snapshot(rename))
    else:
        return [part for rewritten in rewrites for part in rewritten], \
            sum(counts)

    # Copy ``index`` repeats copy ``index - 1``, and so does every later
    # one: the state after the run is this one with the last copy's temps.
    # What copies ``first + 1`` to ``index`` read of their own temps, the
    # template copy read too.
    first = index - 1
    state.rename_holders(dict(zip(temps, map(Reg,
                                             run.temps(run.count - 1)))))
    state.read.difference_update(
        *(run.temps(later) for later in range(first + 1, index + 1)))
    replaced = sum(counts) + count * (run.count - index)
    if not replaced and not first:
        return [run], 0
    out = [part for rewritten in rewrites[:first] for part in rewritten]
    out.append(Run.compile(rewrites[first], run.count - first, run.prefix,
                           run.first + first * run.width, run.width))
    return out, replaced


def _peel(parts: Sequence, read) -> List:
    """``parts`` with the last copy of each run whose temps are in ``read``
    written out.

    CSE may replace an instruction after a run with a copy of a value the
    run's last copy holds; written out, the run keeps its copies' temps to
    themselves, as every run-aware pass assumes.
    """
    out: List = []
    for part in parts:
        if part.__class__ is not Run:
            out.append(part)
            continue
        template = part.template()
        peeled = _peel(template, read)
        if len(peeled) != len(template) or any(map(is_not, peeled, template)):
            part = Run.compile(peeled, part.count, part.prefix, part.first,
                               part.width)
        if read.isdisjoint(part.temps(part.count - 1)):
            out.append(part)
            continue
        if part.count > 2:
            out.append(Run.compile(peeled, part.count - 1, part.prefix,
                                   part.first, part.width))
        else:
            out.extend(peeled)
        out.extend(_peel(part.copy(part.count - 1), read))
    return out


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

    An unrolled run is rewritten copy by copy until its copies repeat
    (:func:`_cse_run`), so it stays compact; the result is the same as
    rewriting the written-out copies.
    """
    replaced_total = 0
    for function in program.functions.values():
        for block in function.blocks.values():
            parts = block.parts
            state = _Available()
            rewritten, replaced = _cse(parts, state)
            if state.read:
                rewritten = _peel(rewritten, state.read)
            if len(rewritten) != len(parts) \
                    or any(map(is_not, rewritten, parts)):
                block.replace_parts(rewritten)
            replaced_total += replaced
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
