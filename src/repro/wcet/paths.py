"""Path-sensitive worst-case analysis: infeasible-path pruning.

The structural engine charges every ``if`` with its more expensive branch,
so a worst case that takes *both* of two mutually exclusive branches is
happily admitted even though no execution can.  This module adds the missing
path sensitivity: each function's loop-free CFG fragments ("units") are
partitioned into basic-block paths between a dummy entry and a dummy exit
node, branch conditions are propagated along each path with a lightweight
abstract domain, and paths whose constraints become contradictory are pruned
from the maximisation.

The constraint domain tracks, per virtual register,

* an **interval** ``[lo, hi]`` over the 32-bit signed range (any operation
  whose unwrapped result could overflow drops to the full range — wrapping
  is the simulator's semantics and must never be out-bounded),
* a **congruence** ``value ≡ rem (mod mod)`` met with the CRT (a gcd
  contradiction empties the path), and
* **provenance**: compare results remember which register they compared
  against which constant so a later ``BR`` can refine that register's
  interval, and ``MOD``/power-of-two ``AND`` results remember their dividend
  so pinning the remainder refines the dividend's congruence.  Provenance
  carries the source register's *version* and goes stale when the register
  is redefined.

Enumeration is budgeted: a per-unit path-count cap (completed + pruned)
guards against exponential if-chains, and any irregular flow — a cycle
inside a supposedly loop-free unit, or a unit block no path ever reaches —
abandons the unit.  Both cases fall back to the structural (path-insensitive)
bound for that unit and are logged in :class:`PathStats`, so the mode can
never hang, raise, or return a bound below the structural engine's
assumptions.  Loops keep the structural ``(bound + 1) · cond + bound · body``
formula with the body itself analysed path-sensitively per iteration.

Every unit is enumerated from the top state, so its outcome depends only on
its blocks, their costs and the cap: an engine given a ``unit_memo`` keys
units label-free on exactly that (:func:`_unit_key`) and enumerates each
distinct unit once.

Because every pruned path is genuinely infeasible and per-instruction costs
are unchanged worst-case costs, the pruned bound is still sound (≥ any
simulated execution) while never exceeding the structural bound — the
property the differential harness in ``tests/test_path_feasibility.py``
checks on generated programs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import gcd
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.ir.cfg import Function, Program
from repro.ir.instructions import (Imm, Instr, Opcode, Operand, Reg,
                                   evaluate, wrap32)
from repro.ir.regions import (
    IfRegion,
    LoopRegion,
    Region,
    SeqRegion,
    iter_block_labels,
    iter_loops,
)
from repro.ir.runs import flatten
from repro.wcet.structural import (InstrCost, StructuralCostEngine,
                                    memo_put)

INT32_MIN = -(2 ** 31)
INT32_MAX = 2 ** 31 - 1
_UINT32_MASK = 0xFFFFFFFF

#: Default per-unit budget on completed + pruned paths before the engine
#: falls back to the structural bound for that unit.
DEFAULT_PATH_CAP = 1024

#: Labels of the dummy nodes framing every enumerated path (reporting only;
#: they carry no cost and never appear in a function's CFG).
ENTRY_NODE = "<entry>"
EXIT_NODE = "<exit>"


# --------------------------------------------------------------------------
# Pruning counters
# --------------------------------------------------------------------------
@dataclass
class PathStats:
    """Per-function counters of the path-feasibility layer."""

    units: int = 0
    paths_enumerated: int = 0
    paths_pruned: int = 0
    cap_fallbacks: int = 0
    irregular_fallbacks: int = 0
    wall_s: float = 0.0
    #: Units whose outcome came from the unit memo; they add to nothing
    #: above but ``wall_s``.
    unit_hits: int = 0

    def merge(self, other: "PathStats") -> None:
        self.units += other.units
        self.unit_hits += other.unit_hits
        self.paths_enumerated += other.paths_enumerated
        self.paths_pruned += other.paths_pruned
        self.cap_fallbacks += other.cap_fallbacks
        self.irregular_fallbacks += other.irregular_fallbacks
        self.wall_s += other.wall_s

    def as_dict(self) -> Dict[str, float]:
        return {
            "units": self.units,
            "paths_enumerated": self.paths_enumerated,
            "paths_pruned": self.paths_pruned,
            "cap_fallbacks": self.cap_fallbacks,
            "irregular_fallbacks": self.irregular_fallbacks,
            "wall_s": self.wall_s,
            "unit_hits": self.unit_hits,
        }


# --------------------------------------------------------------------------
# Abstract values
# --------------------------------------------------------------------------
class _Value:
    """Interval + congruence + provenance for one register (immutable)."""

    __slots__ = ("lo", "hi", "mod", "rem", "pred", "mod_of")

    def __init__(self, lo: int = INT32_MIN, hi: int = INT32_MAX,
                 mod: int = 1, rem: int = 0,
                 pred: Optional[Tuple] = None,
                 mod_of: Optional[Tuple[str, int, int]] = None):
        self.lo = lo
        self.hi = hi
        self.mod = mod
        self.rem = rem
        #: (opcode, reg name, reg version, constant, swapped, negated)
        self.pred = pred
        #: (dividend name, dividend version, modulus) for MOD/AND results
        self.mod_of = mod_of

    @property
    def is_const(self) -> bool:
        return self.lo == self.hi


_TOP = _Value()


def _const(value: int) -> _Value:
    return _Value(value, value)


def _make(lo: int, hi: int, mod: int = 1, rem: int = 0,
          pred: Optional[Tuple] = None,
          mod_of: Optional[Tuple[str, int, int]] = None) -> Optional[_Value]:
    """A checked value: ``None`` when interval and congruence are jointly empty."""
    if lo > hi:
        return None
    if mod > 1:
        rem %= mod
        first = lo + ((rem - lo) % mod)
        if first > hi:
            return None
    return _Value(lo, hi, mod, rem, pred, mod_of)


def _with_interval(value: _Value, lo: int, hi: int) -> Optional[_Value]:
    """Meet ``value`` with ``[lo, hi]``, preserving congruence and provenance."""
    return _make(max(lo, value.lo), min(hi, value.hi), value.mod, value.rem,
                 value.pred, value.mod_of)


def _crt(m1: int, r1: int, m2: int, r2: int) -> Optional[Tuple[int, int]]:
    """Meet of two congruences; ``None`` when contradictory (gcd check)."""
    if m1 <= 1:
        return (m2, r2 % m2) if m2 > 1 else (1, 0)
    if m2 <= 1:
        return (m1, r1 % m1)
    g = gcd(m1, m2)
    if (r1 - r2) % g != 0:
        return None
    m1g, m2g = m1 // g, m2 // g
    combined = m1 * m2g
    t = ((r2 - r1) // g * pow(m1g, -1, m2g)) % m2g
    return (combined, (r1 + m1 * t) % combined)


class _State:
    """Per-path register environment with redefinition versioning."""

    __slots__ = ("values", "versions")

    def __init__(self, values: Optional[Dict[str, _Value]] = None,
                 versions: Optional[Dict[str, int]] = None):
        self.values = {} if values is None else values
        self.versions = {} if versions is None else versions

    def clone(self) -> "_State":
        return _State(dict(self.values), dict(self.versions))

    def get(self, name: str) -> _Value:
        return self.values.get(name, _TOP)

    def value_of(self, operand: Operand) -> _Value:
        if isinstance(operand, Imm):
            return _const(wrap32(operand.value))
        return self.values.get(operand.name, _TOP)

    def version(self, name: str) -> int:
        return self.versions.get(name, 0)

    def set(self, name: str, value: _Value) -> None:
        """A redefinition: bumps the version, invalidating stale provenance."""
        self.versions[name] = self.versions.get(name, 0) + 1
        self.values[name] = value

    def refine(self, name: str, value: _Value) -> None:
        """Narrow a register without redefining it (branch refinement)."""
        self.values[name] = value

    def havoc(self, name: str) -> None:
        self.set(name, _TOP)


# --------------------------------------------------------------------------
# Transfer functions
# --------------------------------------------------------------------------
_CMP_REL = {
    Opcode.CMPLT: "lt", Opcode.CMPLE: "le",
    Opcode.CMPGT: "gt", Opcode.CMPGE: "ge",
    Opcode.CMPEQ: "eq", Opcode.CMPNE: "ne",
}
_SWAP_REL = {"lt": "gt", "le": "ge", "gt": "lt", "ge": "le",
             "eq": "eq", "ne": "ne"}
_NEGATE_REL = {"lt": "ge", "le": "gt", "gt": "le", "ge": "lt",
               "eq": "ne", "ne": "eq"}


def _interval_fits(lo: int, hi: int) -> bool:
    return lo >= INT32_MIN and hi <= INT32_MAX


def _cong_pair(value: _Value) -> Tuple[int, int]:
    return (value.mod, value.rem)


def _combine_congruence(op: Opcode, a: _Value, b: _Value) -> Tuple[int, int]:
    """Congruence of ``a op b`` (valid only when the result cannot wrap)."""
    if a.is_const and b.mod > 1:
        c, (m, r) = a.lo, _cong_pair(b)
        if op is Opcode.ADD:
            return (m, (r + c) % m)
        if op is Opcode.SUB:
            return (m, (c - r) % m)
        if op is Opcode.MUL:
            return (m, (c * r) % m)
    if b.is_const and a.mod > 1:
        c, (m, r) = b.lo, _cong_pair(a)
        if op is Opcode.ADD:
            return (m, (r + c) % m)
        if op is Opcode.SUB:
            return (m, (r - c) % m)
        if op is Opcode.MUL:
            return (m, (r * c) % m)
    if a.mod > 1 and b.mod > 1:
        g = gcd(a.mod, b.mod)
        if g > 1:
            if op is Opcode.ADD:
                return (g, (a.rem + b.rem) % g)
            if op is Opcode.SUB:
                return (g, (a.rem - b.rem) % g)
            if op is Opcode.MUL:
                return (g, (a.rem * b.rem) % g)
    return (1, 0)


def _gate_overflow(lo: int, hi: int, mod: int, rem: int) -> _Value:
    """Interval + congruence for a result that may wrap at 32 bits.

    Wrapping subtracts multiples of ``2**32``, so a congruence survives the
    wrap only when its modulus divides ``2**32`` (a power of two).
    """
    if _interval_fits(lo, hi):
        value = _make(lo, hi, mod, rem)
        return value if value is not None else _TOP  # pragma: no cover
    if mod > 1 and (1 << 32) % mod == 0:
        return _Value(INT32_MIN, INT32_MAX, mod, rem % mod)
    return _TOP


def _cannot_equal(a: _Value, b: _Value) -> bool:
    if a.hi < b.lo or b.hi < a.lo:
        return True
    if a.is_const and b.mod > 1 and a.lo % b.mod != b.rem:
        return True
    if b.is_const and a.mod > 1 and b.lo % a.mod != a.rem:
        return True
    if a.mod > 1 and b.mod > 1:
        g = gcd(a.mod, b.mod)
        if g > 1 and (a.rem - b.rem) % g != 0:
            return True
    return False


def _definite_cmp(op: Opcode, a: _Value, b: _Value) -> Optional[int]:
    rel = _CMP_REL[op]
    if rel == "lt":
        if a.hi < b.lo:
            return 1
        if a.lo >= b.hi:
            return 0
    elif rel == "le":
        if a.hi <= b.lo:
            return 1
        if a.lo > b.hi:
            return 0
    elif rel == "gt":
        if a.lo > b.hi:
            return 1
        if a.hi <= b.lo:
            return 0
    elif rel == "ge":
        if a.lo >= b.hi:
            return 1
        if a.hi < b.lo:
            return 0
    elif rel == "eq":
        if _cannot_equal(a, b):
            return 0
    elif rel == "ne":
        if _cannot_equal(a, b):
            return 1
    return None


def _transfer(state: _State, instr: Instr) -> None:
    """Abstract execution of one non-terminator instruction."""
    op = instr.opcode
    if op in (Opcode.NOP, Opcode.STORE, Opcode.BR, Opcode.JMP, Opcode.RET):
        return
    if op is Opcode.CALL:
        if instr.dst is not None:
            state.havoc(instr.dst.name)
        return
    dst = instr.dst
    if dst is None:  # pragma: no cover - defensive
        return
    name = dst.name
    if op is Opcode.LOAD:
        state.havoc(name)
        return
    if op is Opcode.MOV:
        state.set(name, state.value_of(instr.srcs[0]))
        return
    if op is Opcode.SELECT:
        cond, if_true, if_false = (state.value_of(s) for s in instr.srcs)
        if cond.is_const:
            state.set(name, if_true if cond.lo != 0 else if_false)
            return
        mod, rem = ((if_true.mod, if_true.rem)
                    if (if_true.mod, if_true.rem) == (if_false.mod, if_false.rem)
                    else (1, 0))
        joined = _make(min(if_true.lo, if_false.lo),
                       max(if_true.hi, if_false.hi), mod, rem)
        state.set(name, joined if joined is not None else _TOP)
        return

    values = [state.value_of(s) for s in instr.srcs]
    if all(v.is_const for v in values):
        exact = evaluate(op, [v.lo for v in values])
        if exact is not None:
            state.set(name, _const(exact))
            return
        state.havoc(name)  # division by zero on this path: no static value
        return

    if op is Opcode.NEG:
        a = values[0]
        if a.lo == INT32_MIN:
            state.set(name, _TOP)
        else:
            mod, rem = (a.mod, (-a.rem) % a.mod) if a.mod > 1 else (1, 0)
            state.set(name, _gate_overflow(-a.hi, -a.lo, mod, rem))
        return
    if op is Opcode.NOT:
        a = values[0]
        mod, rem = (a.mod, (-a.rem - 1) % a.mod) if a.mod > 1 else (1, 0)
        state.set(name, _gate_overflow(-a.hi - 1, -a.lo - 1, mod, rem))
        return
    if op is Opcode.LNOT:
        a = values[0]
        if a.lo > 0 or a.hi < 0 or (a.mod > 1 and a.rem != 0):
            state.set(name, _const(0))
            return
        pred = None
        if a.pred is not None:
            p_op, p_name, p_ver, p_const, p_swap, p_neg = a.pred
            pred = (p_op, p_name, p_ver, p_const, p_swap, not p_neg)
        state.set(name, _Value(0, 1, 1, 0, pred))
        return

    if op in _CMP_REL:
        a, b = values
        definite = _definite_cmp(op, a, b)
        pred = None
        lhs_op, rhs_op = instr.srcs
        if isinstance(lhs_op, Reg) and b.is_const:
            pred = (op, lhs_op.name, state.version(lhs_op.name),
                    b.lo, False, False)
        elif isinstance(rhs_op, Reg) and a.is_const:
            pred = (op, rhs_op.name, state.version(rhs_op.name),
                    a.lo, True, False)
        if definite is not None:
            state.set(name, _Value(definite, definite, 1, 0, pred))
        else:
            state.set(name, _Value(0, 1, 1, 0, pred))
        return

    a, b = values
    if op is Opcode.ADD:
        mod, rem = _combine_congruence(op, a, b)
        state.set(name, _gate_overflow(a.lo + b.lo, a.hi + b.hi, mod, rem))
        return
    if op is Opcode.SUB:
        mod, rem = _combine_congruence(op, a, b)
        state.set(name, _gate_overflow(a.lo - b.hi, a.hi - b.lo, mod, rem))
        return
    if op is Opcode.MUL:
        mod, rem = _combine_congruence(op, a, b)
        corners = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
        state.set(name, _gate_overflow(min(corners), max(corners), mod, rem))
        return
    if op is Opcode.DIV:
        # Monotone in the dividend; only INT32_MIN / -1 wraps.
        if b.is_const and b.lo != 0 and (a.lo, b.lo) != (INT32_MIN, -1):
            corners = (evaluate(op, (a.lo, b.lo)), evaluate(op, (a.hi, b.lo)))
            state.set(name, _gate_overflow(min(corners), max(corners), 1, 0))
        else:
            state.havoc(name)
        return
    if op is Opcode.MOD:
        if b.is_const and b.lo != 0:
            bound = abs(b.lo) - 1
            lo = 0 if a.lo >= 0 else -bound
            hi = 0 if a.hi <= 0 else bound
            mod_of = None
            src = instr.srcs[0]
            if isinstance(src, Reg):
                mod_of = (src.name, state.version(src.name), abs(b.lo))
            state.set(name, _Value(lo, hi, 1, 0, None, mod_of))
        else:
            state.havoc(name)
        return
    if op is Opcode.AND:
        const = b if b.is_const else (a if a.is_const else None)
        other_op = instr.srcs[0] if const is b else instr.srcs[1]
        if const is not None and const.lo >= 0:
            mask = const.lo
            mod_of = None
            if isinstance(other_op, Reg) and mask > 0 and (mask + 1) & mask == 0:
                # x & (2**k - 1) is the canonical residue of x mod 2**k
                mod_of = (other_op.name, state.version(other_op.name), mask + 1)
            state.set(name, _Value(0, mask, 1, 0, None, mod_of))
            return
        if a.lo >= 0 and b.lo >= 0:
            state.set(name, _Value(0, min(a.hi, b.hi)))
            return
        state.havoc(name)
        return
    if op in (Opcode.OR, Opcode.XOR):
        if a.lo >= 0 and b.lo >= 0:
            state.set(name, _Value(0, INT32_MAX))
        else:
            state.havoc(name)
        return
    if op is Opcode.SHR:
        if b.is_const:
            shift = b.lo & 31
            if shift == 0:
                state.set(name, a)
            else:
                state.set(name, _Value(0, _UINT32_MASK >> shift))
            return
        state.havoc(name)
        return
    state.havoc(name)  # SHL and anything unanticipated


# --------------------------------------------------------------------------
# Branch refinement
# --------------------------------------------------------------------------
def _refine_congruence(state: _State, name: str, mod: int, rem: int) -> bool:
    value = state.get(name)
    met = _crt(value.mod, value.rem, mod, rem)
    if met is None:
        return False
    refined = _make(value.lo, value.hi, met[0], met[1],
                    value.pred, value.mod_of)
    if refined is None:
        return False
    state.refine(name, refined)
    return True


def _refine_pred(state: _State, pred: Tuple, taken: bool) -> bool:
    """Constrain the compared register; False when the branch is infeasible."""
    op, name, version, const, swapped, negated = pred
    if state.version(name) != version:
        return True  # register redefined since the compare: nothing to learn
    rel = _CMP_REL[op]
    if swapped:
        rel = _SWAP_REL[rel]
    if taken == negated:
        rel = _NEGATE_REL[rel]
    value = state.get(name)
    lo, hi = value.lo, value.hi
    if rel == "lt":
        hi = min(hi, const - 1)
    elif rel == "le":
        hi = min(hi, const)
    elif rel == "gt":
        lo = max(lo, const + 1)
    elif rel == "ge":
        lo = max(lo, const)
    elif rel == "eq":
        lo, hi = max(lo, const), min(hi, const)
    else:  # ne
        if lo == hi == const:
            return False
        if lo == const:
            lo += 1
        if hi == const:
            hi -= 1
    refined = _with_interval(value, lo, hi)
    if refined is None:
        return False
    state.refine(name, refined)
    if value.mod_of is not None:
        div_name, div_version, modulus = value.mod_of
        if state.version(div_name) == div_version:
            if rel == "eq":
                # remainder == const pins the dividend's congruence class
                if not _refine_congruence(state, div_name, modulus,
                                          const % modulus):
                    return False
            elif rel == "ne" and const == 0 and modulus == 2:
                # a nonzero remainder mod 2 means an odd dividend
                if not _refine_congruence(state, div_name, 2, 1):
                    return False
    return True


def _refine_branch(state: _State, operand: Operand, taken: bool) -> bool:
    """Refine ``state`` along one BR edge; False when that edge is infeasible."""
    if isinstance(operand, Imm):
        return (operand.value != 0) == taken
    name = operand.name
    value = state.get(name)
    if taken:
        if value.lo == 0 and value.hi == 0:
            return False
        lo, hi = value.lo, value.hi
        if lo == 0:
            lo = 1
        if hi == 0:
            hi = -1
        refined = _with_interval(value, lo, hi)
        if refined is None:
            return False
        state.refine(name, refined)
        if value.mod_of is not None:
            div_name, div_version, modulus = value.mod_of
            if modulus == 2 and state.version(div_name) == div_version:
                # a nonzero remainder mod 2 means an odd dividend
                if not _refine_congruence(state, div_name, 2, 1):
                    return False
    else:
        if value.lo > 0 or value.hi < 0:
            return False
        if value.mod > 1 and value.rem != 0:
            return False
        refined = _with_interval(value, 0, 0)
        if refined is None:
            return False
        state.refine(name, refined)
        if value.mod_of is not None:
            div_name, div_version, modulus = value.mod_of
            if state.version(div_name) == div_version:
                if not _refine_congruence(state, div_name, modulus, 0):
                    return False
    if value.pred is not None:
        return _refine_pred(state, value.pred, taken)
    return True


# --------------------------------------------------------------------------
# Path enumeration
# --------------------------------------------------------------------------
class _PathCapExceeded(Exception):
    """Internal: the unit's path budget ran out."""


class _IrregularFlow(Exception):
    """Internal: a cycle or unreachable block inside a loop-free unit."""


#: One block of a unit: the instructions before its terminator, the
#: branch condition (``None`` unless it ends in ``BR``), the unit indices of
#: its successors (-1: the edge leaves the unit; none: the path ends) and
#: its cost.
UnitBlock = Tuple[List[Instr], Optional[Operand], Tuple[int, ...], float]


def _unit_blocks(function: Function, labels: Set[str], entry: str,
                 block_cost: Callable[[str], float]) -> List[UnitBlock]:
    """The blocks of the unit reachable from ``entry``, in discovery order.

    Instructions are read through a local :func:`~repro.ir.runs.flatten`
    list, so a compact block stays compact.
    """
    index = {entry: 0}
    order = [entry]
    blocks: List[UnitBlock] = []
    for label in order:
        block = function.block(label)
        instrs: List[Instr] = []
        flatten(block.parts, instrs)
        terminator = block.terminator
        condition = None
        if terminator is None or terminator.opcode is Opcode.RET:
            targets: Tuple[str, ...] = ()
        elif terminator.opcode is Opcode.JMP:
            targets = (terminator.true_target,)
        else:
            condition = terminator.srcs[0]
            targets = (terminator.true_target, terminator.false_target)
        if terminator is not None:
            instrs.pop()
        successors = []
        for target in targets:
            if target not in labels:
                successors.append(-1)
                continue
            if target not in index:
                index[target] = len(order)
                order.append(target)
            successors.append(index[target])
        blocks.append((instrs, condition, tuple(successors),
                       block_cost(label)))
    return blocks


def _operand_key(operand: Operand):
    return operand.name if operand.__class__ is Reg else operand.value


def _unit_key(blocks: List[UnitBlock], size: int, cap: int) -> Tuple:
    """What an enumeration of ``blocks`` reads, without a label: each
    block's cost, successor indices, branch condition and instructions
    (opcode, destination and operands), then the unit's size and cap."""
    return (size, cap, tuple(
        (cost, successors,
         None if condition is None else _operand_key(condition),
         tuple([(instr.opcode, instr.dst and instr.dst.name,
                 tuple([_operand_key(op) for op in instr.srcs]))
                for instr in instrs]))
        for instrs, condition, successors, cost in blocks))


def _enumerate_paths(blocks: List[UnitBlock], cap: int
                     ) -> Tuple[Optional[float], int, int, int]:
    """Max cost over feasible paths through the unit of ``blocks``.

    Paths run from a dummy entry node (before block 0) to a dummy exit
    node reached by a path end or by an edge leaving the unit.  Returns
    ``(best, enumerated, pruned, touched)``: ``best`` is ``None`` when
    every path was pruned, ``touched`` counts the blocks some feasible path
    reaches.  Raises :class:`_PathCapExceeded` when completed plus pruned
    paths exceed ``cap`` and :class:`_IrregularFlow` on a cycle.
    """
    best: Optional[float] = None
    enumerated = 0
    pruned = 0
    touched: Set[int] = set()
    stack: List[Tuple[int, _State, float, FrozenSet[int]]] = [
        (0, _State(), 0.0, frozenset())]
    while stack:
        index, state, cost, on_path = stack.pop()
        if index in on_path:
            raise _IrregularFlow(index)
        touched.add(index)
        instrs, condition, successors, block_cost = blocks[index]
        cost += block_cost
        on_path = on_path | {index}
        for instr in instrs:
            _transfer(state, instr)
        if condition is None:
            successor = successors[0] if successors else -1
            if successor < 0:
                enumerated += 1
                if enumerated + pruned > cap:
                    raise _PathCapExceeded()
                if best is None or cost > best:
                    best = cost
            else:
                stack.append((successor, state, cost, on_path))
            continue
        fallthrough_state = state.clone()
        for taken, target, edge_state in (
                (True, successors[0], state),
                (False, successors[1], fallthrough_state)):
            if not _refine_branch(edge_state, condition, taken):
                pruned += 1
                if enumerated + pruned > cap:
                    raise _PathCapExceeded()
                continue
            if target < 0:
                enumerated += 1
                if enumerated + pruned > cap:
                    raise _PathCapExceeded()
                if best is None or cost > best:
                    best = cost
            else:
                stack.append((target, edge_state, cost, on_path))
    return best, enumerated, pruned, len(touched)


#: Unit outcomes that fall back to the structural bound.
_CAP_FALLBACK = "cap"
_IRREGULAR_FALLBACK = "irregular"


def _unit_outcome(blocks: List[UnitBlock], size: int, cap: int):
    """``(best, enumerated, pruned)`` for a unit of ``size`` blocks, or the
    fallback it takes: ``_CAP_FALLBACK``, or ``_IRREGULAR_FALLBACK``
    for a cycle or a unit block no feasible path reaches (the CFG then
    disagrees with the region tree, so the enumeration cannot be
    trusted)."""
    try:
        best, enumerated, pruned, touched = _enumerate_paths(blocks, cap)
    except _PathCapExceeded:
        return _CAP_FALLBACK
    except _IrregularFlow:
        return _IRREGULAR_FALLBACK
    if touched != size or best is None:
        return _IRREGULAR_FALLBACK
    return best, enumerated, pruned


# --------------------------------------------------------------------------
# The path-sensitive cost engine
# --------------------------------------------------------------------------
def _is_loop_free(region: Region) -> bool:
    return next(iter_loops(region), None) is None


def contains_if(region: Region) -> bool:
    """Whether ``region`` holds an ``if``.  A function without one costs
    the same in both modes: every unit it has is straight-line."""
    if isinstance(region, IfRegion):
        return True
    if isinstance(region, SeqRegion):
        return any(contains_if(child) for child in region.children)
    if isinstance(region, LoopRegion):
        return contains_if(region.body_region)
    return False


class PathSensitiveCostEngine(StructuralCostEngine):
    """A :class:`StructuralCostEngine` with infeasible-path pruning.

    Maximal loop-free runs of every sequence become enumeration units;
    anything else keeps the structural recursion (with loop bodies analysed
    path-sensitively per iteration).  Cap overruns and irregular flow fall
    back to the structural bound for the affected unit, logged in
    :attr:`path_stats`.  Per-block costs are the same in both modes, so a
    ``block_memo`` can be shared with structural engines.

    ``unit_memo`` shares unit outcomes across functions, programs and
    engines whose block costs agree (one cost scope): a unit starts from
    the top state, so its outcome depends only on what :func:`_unit_key`
    reads.  It is bounded like ``block_memo``.
    """

    def __init__(self, program: Program, instr_cost: InstrCost,
                 block_memo: Optional[Dict[Tuple, float]] = None, *,
                 path_cap: Optional[int] = None,
                 unit_memo: Optional[Dict[Tuple, object]] = None):
        super().__init__(program, instr_cost, block_memo)
        self.path_cap = DEFAULT_PATH_CAP if path_cap is None else path_cap
        self.unit_memo = unit_memo
        #: function name -> PathStats, populated as functions are costed
        self.path_stats: Dict[str, PathStats] = {}
        self._structural_only = 0
        self._current_stats: Optional[PathStats] = None

    def function_cost(self, name: str) -> float:
        previous_stats = self._current_stats
        saved_depth = self._structural_only
        self._current_stats = self.path_stats.setdefault(name, PathStats())
        self._structural_only = 0  # callees get their own pruning context
        try:
            return super().function_cost(name)
        finally:
            self._current_stats = previous_stats
            self._structural_only = saved_depth

    def _region_cost(self, function: Function, region: Region) -> float:
        if self._structural_only:
            return super()._region_cost(function, region)
        if isinstance(region, SeqRegion):
            total = 0.0
            run: List[Region] = []
            for child in region.children:
                if _is_loop_free(child):
                    run.append(child)
                else:
                    total += self._run_cost(function, run)
                    run = []
                    total += super()._region_cost(function, child)
            total += self._run_cost(function, run)
            return total
        if isinstance(region, IfRegion) and _is_loop_free(region):
            return self._unit_cost(function, [region])
        return super()._region_cost(function, region)

    # -- units ---------------------------------------------------------------
    def _run_cost(self, function: Function, run: List[Region]) -> float:
        if not run:
            return 0.0
        if not any(contains_if(region) for region in run):
            # straight-line: identical to the structural sum, skip enumeration
            structural = super()._region_cost
            return sum(structural(function, region) for region in run)
        return self._unit_cost(function, run)

    def _unit_cost(self, function: Function, run: List[Region]) -> float:
        stats = self._current_stats
        if stats is None:
            stats = self._current_stats = PathStats()
        labels: Set[str] = set()
        for region in run:
            labels.update(iter_block_labels(region))
        entry = next(iter_block_labels(run[0]))
        started = time.perf_counter()
        try:
            blocks = _unit_blocks(
                function, labels, entry,
                lambda label: self._block_cost(function, label))
            memo = self.unit_memo
            key = outcome = None
            if memo is not None:
                key = _unit_key(blocks, len(labels), self.path_cap)
                outcome = memo.get(key)
            if outcome is None:
                outcome = _unit_outcome(blocks, len(labels), self.path_cap)
                stats.units += 1
                if outcome is _CAP_FALLBACK:
                    stats.cap_fallbacks += 1
                elif outcome is _IRREGULAR_FALLBACK:
                    stats.irregular_fallbacks += 1
                else:
                    stats.paths_enumerated += outcome[1]
                    stats.paths_pruned += outcome[2]
                if memo is not None:
                    memo_put(memo, key, outcome)
            else:
                stats.unit_hits += 1
            if outcome.__class__ is tuple:
                return outcome[0]
            return self._structural_cost(function, run)
        finally:
            stats.wall_s += time.perf_counter() - started

    def _structural_cost(self, function: Function, run: List[Region]) -> float:
        """The path-insensitive fallback bound for one unit."""
        self._structural_only += 1
        structural = super()._region_cost
        try:
            return sum(structural(function, region) for region in run)
        finally:
            self._structural_only -= 1

