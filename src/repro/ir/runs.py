"""Unrolled copies kept as one repeated run, and the stamper that expands them.

Unrolling a loop whose body lowers to straight-line code (its first copy
creates no basic block) does not write the copies out.  The block keeps one
:class:`Run` instead: the first copy's instructions compiled once, a copy
count, and the per-copy temp renaming.  Copy ``k`` is the first copy with
every temp the body created renumbered by ``k`` times the number of temps
one copy creates, which is exactly what lowering every copy in sequence
produces.  Runs nest: an inner run is one part of the outer run's body, and
each outer copy renames it along with the rest of the body.

:class:`Stamper` is the one implementation of that renaming.  It compiles
each instruction of a lowered copy into its field list, in constructor
order, plus an ``(index, getter)`` pair per field a copy renames.  The
getters index a per-copy ``pool`` tuple: the copy's block labels, then its
temps, then the operands that do not change.  Stamping an instruction is a
list copy, C-level lookups and one call of the (slotted) ``Instr``
constructor.  Lowering stamps bodies with control flow through it eagerly,
and a run materialises through it when something reads the instruction
list of its block (:attr:`repro.ir.cfg.BasicBlock.instrs`).

The run-aware helpers below (:func:`walk`, :func:`flat_map`,
:func:`rewrite`) visit each instruction of a run's template once, so they
are only exact for what every copy shares: opcode, immediates, arrays,
callees and the equality pattern of registers.  Renaming maps distinct
registers to distinct registers, and a temp a copy creates is read only
inside that copy (temps never outlive the statement that creates them).
"""

from __future__ import annotations

from itertools import repeat
from math import prod
from operator import attrgetter, is_, itemgetter
from typing import (Callable, Iterable, Iterator, List, Optional, Sequence,
                    Tuple)

from repro.ir.instructions import Instr, Operand, Reg

#: ``Instr``'s fields in constructor order, and the positions of those a
#: stamped copy renames.
_FIELDS = Instr.__slots__
_DST, _SRCS, _TRUE_TARGET, _FALSE_TARGET, _ARGS = map(
    _FIELDS.index, ("dst", "srcs", "true_target", "false_target", "args"))
_fields_of = attrgetter(*_FIELDS)


class Stamper:
    """Compiles one lowered copy against a pool layout.

    ``labels`` and ``temps`` are the names the first copy uses; every other
    operand of an operand tuple that holds a temp lands in :attr:`fixed`,
    the tail of every copy's pool.  With the temp ``prefix``, a temp the
    copy does not create counts too, so that an enclosing copy can rename
    it (CSE lets a run read a temp its enclosing copy holds a value in).
    """

    def __init__(self, labels: Sequence[str], temps: Sequence[str],
                 prefix: str = ""):
        self.label_slots = {label: i for i, label in enumerate(labels)}
        self.temp_slots = {name: len(labels) + i
                           for i, name in enumerate(temps)}
        self.prefix = prefix
        self.fixed: List[Operand] = []

    def _is_temp(self, operand: Operand) -> bool:
        if operand.__class__ is not Reg:
            return False
        name = operand.name
        if name in self.temp_slots:
            return True
        prefix = self.prefix
        return bool(prefix) and name.startswith(prefix) \
            and name[len(prefix):].isdigit()

    def _slot(self, operand: Operand) -> int:
        if operand.__class__ is Reg:
            slot = self.temp_slots.get(operand.name)
            if slot is not None:
                return slot
        self.fixed.append(operand)
        return (len(self.label_slots) + len(self.temp_slots)
                + len(self.fixed) - 1)

    def compile(self, part) -> Tuple:
        """``part``'s entry for :func:`stamp`.

        An instruction compiles to its fields and the getters one copy
        applies.  A nested :class:`Run` compiles to itself and the getter of
        what it reads from outside (its ``fixed`` operands): a copy moves
        its temps, and renames those that are temps of the enclosing copy.
        """
        if part.__class__ is Run:
            if not part.fixed:
                return part, None
            slots = [self._slot(op) for op in part.fixed]
            return part, (itemgetter(*slots) if len(slots) > 1
                          else itemgetter(slice(slots[0], slots[0] + 1)))
        fields = list(_fields_of(part))
        getters = []
        dst = fields[_DST]
        if dst is not None and dst.name in self.temp_slots:
            getters.append((_DST, itemgetter(self.temp_slots[dst.name])))
        for index in (_SRCS, _ARGS):
            operands = fields[index]
            if any(map(self._is_temp, operands)):
                slots = [self._slot(op) for op in operands]
                getters.append((index, itemgetter(*slots) if len(slots) > 1
                                else itemgetter(slice(slots[0],
                                                      slots[0] + 1))))
        for index in (_TRUE_TARGET, _FALSE_TARGET):
            label = fields[index]
            if label in self.label_slots:
                getters.append((index, itemgetter(self.label_slots[label])))
        return fields, getters


def stamp(entries: Sequence[Tuple], pool: Tuple, shift: int,
          out: List) -> None:
    """Append one copy of compiled ``entries`` to ``out``.

    ``pool`` is the copy's pool and ``shift`` how far its temps are
    renumbered from the compiled copy's; a nested run comes out as a run
    again, moved by ``shift`` and reading its operands from ``pool``.
    """
    make = Instr
    for fields, getters in entries:
        if fields.__class__ is Run:
            out.append(fields.moved(shift, getters and getters(pool)))
            continue
        fields = fields.copy()
        for index, get in getters:
            fields[index] = get(pool)
        out.append(make(*fields))


class Run:
    """``count`` copies of a straight-line body, compiled once.

    Copy ``k`` creates the temps ``prefix + str(first + k * width + i)``
    for ``i < width``; ``fixed`` is the tail of every copy's pool, and
    ``offset`` how far ``first`` lies from the temps ``entries`` were
    compiled with (a nested run moves with each enclosing copy).  A run is
    immutable: passes rewrite it through :func:`rewrite`, which compiles a
    new one, so programs sharing a run never see each other's rewrites.
    ``size`` is the number of instructions all copies hold.
    """

    __slots__ = ("entries", "count", "prefix", "first", "width", "fixed",
                 "size", "offset", "_first_copy", "_expanded")

    #: Runs hold no control flow; lets ``BasicBlock.terminator`` look at a
    #: block's last part without a type check.
    is_terminator = False

    def __init__(self, entries: List[Tuple], count: int, prefix: str,
                 first: int, width: int, fixed: Tuple, size: int,
                 offset: int = 0):
        self.entries = entries
        self.count = count
        self.prefix = prefix
        self.first = first
        self.width = width
        self.fixed = fixed
        self.size = size
        self.offset = offset
        self._first_copy: Optional[Tuple] = None
        self._expanded: Optional[Tuple] = None

    @classmethod
    def compile(cls, parts: Sequence, count: int, prefix: str, first: int,
                width: int) -> "Run":
        """The run of ``count`` copies of ``parts``, the first copy's IR."""
        stamper = Stamper((), [f"{prefix}{first + i}" for i in range(width)],
                          prefix)
        entries = [stamper.compile(part) for part in parts]
        size = count * sum(part.size if part.__class__ is Run else 1
                           for part in parts)
        run = cls(entries, count, prefix, first, width, tuple(stamper.fixed),
                  size)
        run._first_copy = tuple(parts)
        return run

    def _pool(self, copy: int) -> Tuple:
        base = self.first + copy * self.width
        prefix = self.prefix
        return (*[Reg(f"{prefix}{base + i}") for i in range(self.width)],
                *self.fixed)

    def template(self) -> Tuple:
        """The first copy's instructions, nested runs as runs.

        Built once and shared by every caller: like any IR the passes see,
        it is rewritten copy-on-write, never in place.
        """
        first_copy = self._first_copy
        if first_copy is None:
            out: List = []
            stamp(self.entries, self._pool(0), self.offset, out)
            first_copy = self._first_copy = tuple(out)
        return first_copy

    def copy(self, index: int) -> List:
        """Copy ``index``'s instructions, nested runs as runs."""
        if index == 0:
            return list(self.template())
        out: List = []
        stamp(self.entries, self._pool(index),
              self.offset + index * self.width, out)
        return out

    def temps(self, index: int) -> List[str]:
        """The names of the temps copy ``index`` creates."""
        base = self.first + index * self.width
        return [f"{self.prefix}{base + i}" for i in range(self.width)]

    def moved(self, shift: int, fixed: Optional[Tuple] = None) -> "Run":
        """This run inside an enclosing copy ``shift`` temps further on,
        reading ``fixed`` (default: the same operands) from outside."""
        return Run(self.entries, self.count, self.prefix, self.first + shift,
                   self.width, self.fixed if fixed is None else fixed,
                   self.size, self.offset + shift)

    def expand(self, out: List[Instr]) -> None:
        """Append every copy's instructions to ``out``.

        Stamped once and shared by every block that holds this run, like
        the instructions of instruction-sharing clones.
        """
        expanded = self._expanded
        if expanded is None:
            flat: List[Instr] = []
            for copy in range(self.count):
                parts: List = []
                stamp(self.entries, self._pool(copy),
                      self.offset + copy * self.width, parts)
                flatten(parts, flat)
            expanded = self._expanded = tuple(flat)
        out.extend(expanded)


#: An IR-pass callback: ``fn(instr, runs)`` with the enclosing runs,
#: outermost first; returns ``instr`` to keep it, a replacement, or ``None``
#: to delete it.
Rewrite = Callable[[Instr, Tuple[Run, ...]], Optional[Instr]]


def flatten(parts: Sequence, out: List[Instr]) -> None:
    """Append ``parts`` to ``out`` with every run expanded."""
    for part in parts:
        if part.__class__ is Run:
            part.expand(out)
        else:
            out.append(part)


def walk(parts: Sequence) -> Iterable[Instr]:
    """Each instruction once, a run's template instructions once."""
    if parts.__class__ is list:  # a flat block
        return parts
    return _walk_runs(parts)


def _walk_runs(parts: Sequence) -> Iterator[Instr]:
    for part in parts:
        if part.__class__ is Run:
            yield from _walk_runs(part.template())
        else:
            yield part


def copies(runs: Tuple[Run, ...]) -> int:
    """How many instructions one template instruction inside ``runs`` is."""
    return prod(run.count for run in runs)


def flat_map(parts: Sequence, fn: Callable[[Instr], object]) -> List:
    """``[fn(i) for i in flattened parts]``, calling ``fn`` once per
    template instruction; ``fn`` must read only fields copies share."""
    if parts.__class__ is list:  # a flat block
        return list(map(fn, parts))
    out: List = []
    for part in parts:
        if part.__class__ is Run:
            out.extend(flat_map(part.template(), fn) * part.count)
        else:
            out.append(fn(part))
    return out


def rewrite(parts: Sequence, fn: Rewrite,
            runs: Tuple[Run, ...] = ()) -> Optional[List]:
    """``parts`` with ``fn`` applied copy-on-write, or ``None`` if unchanged.

    A run whose template changes is compiled anew; one left empty drops out.
    """
    if parts.__class__ is list:  # a flat block
        new = list(map(fn, parts, repeat(runs)))
        return None if all(map(is_, new, parts)) else list(filter(None, new))
    out: List = []
    changed = False
    for part in parts:
        if part.__class__ is Run:
            inner = runs + (part,)
            body = rewrite(part.template(), fn, inner)
            if body is None:
                new = part
            elif body:
                new = Run.compile(body, part.count, part.prefix, part.first,
                                  part.width)
            else:
                new = None
        else:
            new = fn(part, runs)
        if new is not part:
            changed = True
        if new is not None:
            out.append(new)
    return out if changed else None
