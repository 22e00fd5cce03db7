"""Instructions and operands of the TeamPlay reproduction IR.

The IR is deliberately small: enough to lower the TeamPlay-C subset, to be
interpreted by the simulator, and to be costed by the static analysers.  Every
opcode maps onto one of the instruction classes understood by the hardware
timing/energy tables (see :data:`repro.hw.core.INSTRUCTION_CLASSES`), and
every data-processing opcode has its 32-bit meaning in one table here
(:func:`evaluate`).
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union


class Opcode(enum.Enum):
    """RISC-like opcodes."""

    MOV = "mov"
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    MOD = "mod"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHR = "shr"
    NEG = "neg"
    NOT = "not"          # bitwise not
    LNOT = "lnot"        # logical not (0/1 result)
    CMPEQ = "cmpeq"
    CMPNE = "cmpne"
    CMPLT = "cmplt"
    CMPLE = "cmple"
    CMPGT = "cmpgt"
    CMPGE = "cmpge"
    LOAD = "load"        # dst <- array[index]
    STORE = "store"      # array[index] <- value
    BR = "br"            # conditional branch on src != 0
    JMP = "jmp"
    CALL = "call"
    RET = "ret"
    SELECT = "select"    # dst <- cond ? a : b, constant time
    NOP = "nop"

    # Members are singletons and compare by identity, so the C-level identity
    # hash is sound and avoids a Python-level ``Enum.__hash__`` call on every
    # opcode-keyed memo and set lookup.
    __hash__ = object.__hash__


#: Opcode -> instruction class used by the hardware cost tables.
_CLASS_OF_OPCODE = {
    Opcode.MOV: "alu", Opcode.ADD: "alu", Opcode.SUB: "alu",
    Opcode.AND: "alu", Opcode.OR: "alu", Opcode.XOR: "alu",
    Opcode.SHL: "alu", Opcode.SHR: "alu", Opcode.NEG: "alu",
    Opcode.NOT: "alu", Opcode.LNOT: "alu",
    Opcode.CMPEQ: "alu", Opcode.CMPNE: "alu", Opcode.CMPLT: "alu",
    Opcode.CMPLE: "alu", Opcode.CMPGT: "alu", Opcode.CMPGE: "alu",
    Opcode.MUL: "mul",
    Opcode.DIV: "div", Opcode.MOD: "div",
    Opcode.LOAD: "load", Opcode.STORE: "store",
    Opcode.BR: "branch", Opcode.JMP: "jump",
    Opcode.CALL: "call", Opcode.RET: "ret",
    Opcode.SELECT: "select", Opcode.NOP: "nop",
}

#: Opcodes that end a basic block.
TERMINATORS = (Opcode.BR, Opcode.JMP, Opcode.RET)

#: Commutative binary opcodes (used by the peephole optimiser).
COMMUTATIVE = (Opcode.ADD, Opcode.MUL, Opcode.AND, Opcode.OR, Opcode.XOR,
               Opcode.CMPEQ, Opcode.CMPNE)

#: TeamPlay-C operator -> opcode, for lowering and source-level folding.
BINARY_OPCODES = {
    "+": Opcode.ADD, "-": Opcode.SUB, "*": Opcode.MUL, "/": Opcode.DIV,
    "%": Opcode.MOD, "&": Opcode.AND, "|": Opcode.OR, "^": Opcode.XOR,
    "<<": Opcode.SHL, ">>": Opcode.SHR,
    "<": Opcode.CMPLT, "<=": Opcode.CMPLE, ">": Opcode.CMPGT,
    ">=": Opcode.CMPGE, "==": Opcode.CMPEQ, "!=": Opcode.CMPNE,
}
UNARY_OPCODES = {"-": Opcode.NEG, "~": Opcode.NOT, "!": Opcode.LNOT}
#: ``&&``/``||`` combine the truth values of both operands (each compared
#: ``CMPNE`` against 0): they do not short-circuit.
LOGICAL_OPCODES = {"&&": Opcode.AND, "||": Opcode.OR}


# -- 32-bit integer semantics -------------------------------------------------
# The one definition of what each data-processing opcode computes.  Values
# are signed 32-bit two's complement: operands wrap on read, results wrap,
# division truncates toward zero, ``SHR`` shifts the 32-bit pattern
# logically and shift counts are taken mod 32.  The simulator, both constant
# folders and the path analysis all evaluate through :func:`evaluate`.
_INT32_SIGN = 0x80000000
_UINT32_MASK = 0xFFFFFFFF


def wrap32(value: int) -> int:
    """``value`` wrapped to signed 32-bit two's complement."""
    return ((value + _INT32_SIGN) & _UINT32_MASK) - _INT32_SIGN


def _div(lhs: int, rhs: int) -> int:
    quotient = abs(lhs) // abs(rhs)
    return -quotient if (lhs < 0) != (rhs < 0) else quotient


_SEMANTICS = {
    Opcode.ADD: operator.add,
    Opcode.SUB: operator.sub,
    Opcode.MUL: operator.mul,
    Opcode.DIV: _div,
    Opcode.MOD: lambda a, b: a - _div(a, b) * b,
    Opcode.AND: operator.and_,
    Opcode.OR: operator.or_,
    Opcode.XOR: operator.xor,
    Opcode.SHL: lambda a, b: a << (b & 31),
    Opcode.SHR: lambda a, b: (a & _UINT32_MASK) >> (b & 31),
    Opcode.NEG: operator.neg,
    Opcode.NOT: operator.invert,
    Opcode.LNOT: operator.not_,
    Opcode.CMPEQ: operator.eq,
    Opcode.CMPNE: operator.ne,
    Opcode.CMPLT: operator.lt,
    Opcode.CMPLE: operator.le,
    Opcode.CMPGT: operator.gt,
    Opcode.CMPGE: operator.ge,
}


def evaluate(opcode: Opcode, operands: Sequence[int]) -> Optional[int]:
    """The 32-bit result of ``opcode`` on ``operands``, or ``None``.

    ``None`` means there is no value: division or modulo by zero, or an
    opcode that computes nothing from its operands alone (moves, selects,
    memory, control flow).
    """
    semantics = _SEMANTICS.get(opcode)
    if semantics is None:
        return None
    try:
        return wrap32(semantics(*map(wrap32, operands)))
    except ZeroDivisionError:
        return None


# IR values are slotted (no per-instance ``__dict__``): a build keeps tens
# of thousands of them alive, and every dict is one more object for the
# cyclic garbage collector to walk.  Frozen slotted dataclasses do not
# unpickle on Python 3.10, so the operands pickle through ``__reduce__``.
@dataclass(frozen=True, slots=True)
class Reg:
    """A virtual register."""

    name: str

    def __repr__(self) -> str:
        return f"%{self.name}"

    def __reduce__(self):
        return Reg, (self.name,)


@dataclass(frozen=True, slots=True)
class Imm:
    """An integer immediate."""

    value: int

    def __repr__(self) -> str:
        return f"#{self.value}"

    def __reduce__(self):
        return Imm, (self.value,)


Operand = Union[Reg, Imm]


def instruction_class(opcode: Opcode) -> str:
    """Instruction class of ``opcode`` for the hardware cost tables."""
    return _CLASS_OF_OPCODE[opcode]


@dataclass(slots=True)
class Instr:
    """A single IR instruction.

    The fields not relevant to an opcode are left at their defaults:
    ``dst``/``srcs`` for data processing, ``array`` for memory accesses,
    ``true_target``/``false_target`` for control flow, ``callee``/``args``
    for calls.
    """

    opcode: Opcode
    dst: Optional[Reg] = None
    srcs: Tuple[Operand, ...] = ()
    array: Optional[str] = None
    true_target: Optional[str] = None
    false_target: Optional[str] = None
    callee: Optional[str] = None
    args: Tuple[Operand, ...] = ()
    comment: str = ""

    @property
    def instruction_class(self) -> str:
        return instruction_class(self.opcode)

    @property
    def is_terminator(self) -> bool:
        return self.opcode in TERMINATORS

    @property
    def is_memory_access(self) -> bool:
        return self.opcode in (Opcode.LOAD, Opcode.STORE)

    def reads(self) -> Tuple[Reg, ...]:
        """Registers read by this instruction."""
        regs = [op for op in self.srcs if isinstance(op, Reg)]
        regs.extend(op for op in self.args if isinstance(op, Reg))
        return tuple(regs)

    def writes(self) -> Tuple[Reg, ...]:
        """Registers written by this instruction."""
        return (self.dst,) if self.dst is not None else ()

    def clone(self) -> "Instr":
        """An independent copy (operands are immutable and stay shared).

        Built through the constructor with positional fields: instructions
        are slotted, so there is no ``__dict__`` to copy.
        """
        return Instr(self.opcode, self.dst, self.srcs, self.array,
                     self.true_target, self.false_target, self.callee,
                     self.args, self.comment)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [self.opcode.value]
        if self.dst is not None:
            parts.append(repr(self.dst))
        if self.array is not None:
            parts.append(f"@{self.array}")
        parts.extend(repr(op) for op in self.srcs)
        if self.callee:
            parts.append(f"{self.callee}({', '.join(repr(a) for a in self.args)})")
        if self.true_target:
            parts.append(f"->{self.true_target}")
        if self.false_target:
            parts.append(f"/{self.false_target}")
        return " ".join(parts)


# -- convenience constructors -------------------------------------------------
def mov(dst: Reg, src: Operand, comment: str = "") -> Instr:
    return Instr(Opcode.MOV, dst=dst, srcs=(src,), comment=comment)


def binop(opcode: Opcode, dst: Reg, lhs: Operand, rhs: Operand) -> Instr:
    return Instr(opcode, dst=dst, srcs=(lhs, rhs))


def unop(opcode: Opcode, dst: Reg, src: Operand) -> Instr:
    return Instr(opcode, dst=dst, srcs=(src,))


def load(dst: Reg, array: str, index: Operand) -> Instr:
    return Instr(Opcode.LOAD, dst=dst, array=array, srcs=(index,))


def store(array: str, index: Operand, value: Operand) -> Instr:
    return Instr(Opcode.STORE, array=array, srcs=(index, value))


def branch(cond: Operand, true_target: str, false_target: str) -> Instr:
    return Instr(Opcode.BR, srcs=(cond,), true_target=true_target,
                 false_target=false_target)


def jump(target: str) -> Instr:
    return Instr(Opcode.JMP, true_target=target)


def call(dst: Optional[Reg], callee: str, args: Tuple[Operand, ...]) -> Instr:
    return Instr(Opcode.CALL, dst=dst, callee=callee, args=tuple(args))


def ret(value: Optional[Operand] = None) -> Instr:
    return Instr(Opcode.RET, srcs=(value,) if value is not None else ())


def select(dst: Reg, cond: Operand, if_true: Operand, if_false: Operand) -> Instr:
    return Instr(Opcode.SELECT, dst=dst, srcs=(cond, if_true, if_false))


def nop(comment: str = "") -> Instr:
    return Instr(Opcode.NOP, comment=comment)
