"""Basic blocks, functions and programs.

A :class:`Function` owns both its control-flow graph (a mapping of labelled
:class:`BasicBlock`\\ s) and the region tree describing its structured control
flow.  A :class:`Program` is a set of functions plus global arrays and the
annotation metadata extracted from ``#pragma teamplay`` directives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import is_not
from typing import (Callable, Dict, Iterable, Iterator, List, Optional, Set,
                    Tuple)

from repro.errors import TeamPlayError
from repro.graph import topological_order
from repro.ir import runs
from repro.ir.instructions import Instr, Opcode, Reg
from repro.ir.regions import Region, SeqRegion, iter_block_labels


class _Parts(list):
    """A block's instructions with unrolled runs kept compact."""

    __slots__ = ()


class BasicBlock:
    """A maximal straight-line sequence of instructions ending in a terminator.

    A block lowered with unrolled straight-line loop bodies holds each of
    them as one :class:`~repro.ir.runs.Run` among its instructions
    (``parts``).  Reading :attr:`instrs` materialises the block: the
    runs are expanded, the compact form is dropped, and the block stays
    flat.  The state is one attribute, swapped whole, so a thread reading
    a block never sees half of it.  Lengths, terminators, successors,
    clones, :meth:`rewrite` and the helpers of :mod:`repro.ir.runs`
    (``walk``, ``flat_map``) never materialise.
    """

    def __init__(self, label: str, instrs: Optional[List[Instr]] = None):
        self.label = label
        #: Instructions and runs.  Lowering builds blocks through this
        #: list; everything else only reads it and rewrites through
        #: :meth:`rewrite`.
        self.parts: List = instrs if instrs is not None else []

    @property
    def instrs(self) -> List[Instr]:
        """The instruction list; materialises a compact block."""
        parts = self.parts
        if parts.__class__ is not list:
            flat: List[Instr] = []
            runs.flatten(parts, flat)
            self.parts = parts = flat
        return parts

    @instrs.setter
    def instrs(self, value: List[Instr]) -> None:
        self.parts = value if value.__class__ is list else list(value)

    @property
    def compact(self) -> bool:
        """Whether the block still holds runs (has not been materialised)."""
        return self.parts.__class__ is not list

    def append(self, part) -> None:
        """Append an instruction or a run (lowering's emitter)."""
        parts = self.parts
        if part.__class__ is runs.Run and parts.__class__ is list:
            parts = self.parts = _Parts(parts)
        parts.append(part)

    def rewrite(self, fn: runs.Rewrite) -> None:
        """Apply ``fn`` to every instruction, copy-on-write.

        ``fn(instr, runs)`` returns ``instr``, a replacement or ``None``
        (delete) and is called once per template instruction of a run, so
        its decision must hold for every copy.
        """
        rewritten = runs.rewrite(self.parts, fn)
        if rewritten is not None:
            self.replace_parts(rewritten)

    def replace_parts(self, parts: List) -> None:
        """Swap in rewritten ``parts``, keeping the compact or flat form."""
        self.parts = (parts if self.parts.__class__ is list
                      else _Parts(parts))

    @property
    def terminator(self) -> Optional[Instr]:
        parts = self.parts
        if parts and parts[-1].is_terminator:
            return parts[-1]
        return None

    def successors(self) -> Tuple[str, ...]:
        term = self.terminator
        if term is None:
            return ()
        if term.opcode is Opcode.RET:
            return ()
        if term.opcode is Opcode.JMP:
            return (term.true_target,)
        return tuple(t for t in (term.true_target, term.false_target) if t)

    def clone(self, share_instructions: bool = False) -> "BasicBlock":
        """An independent copy whose instruction *list* can be rewritten freely.

        With ``share_instructions`` the :class:`Instr` objects themselves are
        shared with the original: safe for the compilation pipeline, whose IR
        passes are copy-on-write at instruction granularity (they rebuild
        instruction lists and replace rewritten instructions with clones,
        never mutating an ``Instr`` in place).  Runs are immutable: with
        ``share_instructions`` a clone shares them (and the instructions
        they expand to), without it each gets fresh runs.
        """
        parts = self.parts
        if share_instructions:
            return BasicBlock(self.label, parts.__class__(parts))
        return BasicBlock(self.label, parts.__class__(
            part.moved(0) if part.__class__ is runs.Run else part.clone()
            for part in parts))

    def __len__(self) -> int:
        parts = self.parts
        if parts.__class__ is list:
            return len(parts)
        return sum(part.size if part.__class__ is runs.Run else 1
                   for part in parts)

    def __eq__(self, other) -> bool:
        if other.__class__ is not BasicBlock:
            return NotImplemented
        return self.label == other.label and self.instrs == other.instrs

    __hash__ = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BasicBlock({self.label!r}, {self.parts!r})"


@dataclass
class Function:
    """An IR function: CFG + region tree + storage map."""

    name: str
    params: List[str] = field(default_factory=list)
    blocks: Dict[str, BasicBlock] = field(default_factory=dict)
    entry: str = "entry"
    region: Region = field(default_factory=SeqRegion)
    #: Local arrays: name -> number of int elements.
    local_arrays: Dict[str, int] = field(default_factory=dict)
    #: Memory region code is fetched from (None = platform default); set by
    #: the compiler's scratchpad allocation pass.
    code_region: Optional[str] = None
    #: Names of parameters carrying secret data (from ``secret`` pragmas).
    secret_params: List[str] = field(default_factory=list)
    #: Free-form annotation storage (task name, POIs, ...).
    annotations: Dict[str, object] = field(default_factory=dict)

    # -- block management -----------------------------------------------------
    def add_block(self, block: BasicBlock) -> BasicBlock:
        if block.label in self.blocks:
            raise TeamPlayError(
                f"duplicate block label {block.label!r} in function {self.name!r}")
        self.blocks[block.label] = block
        return block

    def block(self, label: str) -> BasicBlock:
        try:
            return self.blocks[label]
        except KeyError:
            raise TeamPlayError(
                f"function {self.name!r} has no block {label!r}") from None

    def iter_instructions(self) -> Iterator[Instr]:
        """Every instruction in block order (materialises compact blocks)."""
        for block in self.blocks.values():
            yield from block.instrs

    @property
    def instruction_count(self) -> int:
        return sum(len(block) for block in self.blocks.values())

    # -- derived structure ------------------------------------------------------
    def callees(self) -> Set[str]:
        return {instr.callee for block in self.blocks.values()
                for instr in runs.walk(block.parts)
                if instr.opcode is Opcode.CALL and instr.callee}

    def defined_registers(self) -> Set[Reg]:
        regs: Set[Reg] = set()
        for instr in self.iter_instructions():
            regs.update(instr.writes())
        return regs

    def clone(self, share_instructions: bool = False) -> "Function":
        """An independent copy: blocks, instructions and region tree are new.

        Shared with the original: operand objects (immutable) and annotation
        *values* (annotations/local_arrays mappings themselves are copied).
        With ``share_instructions`` the :class:`Instr` objects are shared too
        (see :meth:`BasicBlock.clone`).
        """
        from repro.ir.regions import clone_region
        return Function(
            name=self.name,
            params=list(self.params),
            blocks={label: block.clone(share_instructions)
                    for label, block in self.blocks.items()},
            entry=self.entry,
            region=clone_region(self.region),
            local_arrays=dict(self.local_arrays),
            code_region=self.code_region,
            secret_params=list(self.secret_params),
            annotations=dict(self.annotations),
        )

    def holds_ir_of(self, other: "Function") -> bool:
        """Whether ``self`` holds exactly ``other``'s IR, object for object.

        Every field :meth:`clone` copies compares equal, the blocks have
        the same labels in the same order, and each block's parts are the
        same :class:`Instr` and run objects in the same order and form.
        The IR passes are copy-on-write, so an instruction they rewrite is
        a new object: this is how the evaluation engine tells whether a
        pass changed the instruction-sharing clone it ran on, without
        reading any instruction's contents.
        """
        if (self.name != other.name or self.entry != other.entry
                or self.code_region != other.code_region
                or self.params != other.params
                or self.secret_params != other.secret_params
                or self.local_arrays != other.local_arrays
                or self.annotations != other.annotations
                or list(self.blocks) != list(other.blocks)
                or self.region != other.region):
            return False
        for block, before in zip(self.blocks.values(),
                                 other.blocks.values()):
            parts, original = block.parts, before.parts
            if (block.label != before.label
                    or parts.__class__ is not original.__class__
                    or len(parts) != len(original)
                    or any(map(is_not, parts, original))):
                return False
        return True

    def validate(self) -> None:
        """Check internal consistency (used by tests and the compiler driver)."""
        if self.entry not in self.blocks:
            raise TeamPlayError(
                f"function {self.name!r}: entry block {self.entry!r} missing")
        for label, block in self.blocks.items():
            if block.terminator is None:
                raise TeamPlayError(
                    f"function {self.name!r}: block {label!r} lacks a terminator")
            for succ in block.successors():
                if succ not in self.blocks:
                    raise TeamPlayError(
                        f"function {self.name!r}: block {label!r} jumps to "
                        f"unknown block {succ!r}")
            # A run is straight-line code: its ``is_terminator`` is False.
            for part in block.parts[:-1]:
                if part.is_terminator:
                    raise TeamPlayError(
                        f"function {self.name!r}: block {label!r} has a "
                        f"terminator in the middle")
        region_labels = list(iter_block_labels(self.region))
        if sorted(region_labels) != sorted(self.blocks):
            missing = set(self.blocks) - set(region_labels)
            extra = set(region_labels) - set(self.blocks)
            duplicated = {l for l in region_labels if region_labels.count(l) > 1}
            raise TeamPlayError(
                f"function {self.name!r}: region tree inconsistent with CFG "
                f"(missing={sorted(missing)}, extra={sorted(extra)}, "
                f"duplicated={sorted(duplicated)})")


@dataclass
class Program:
    """A whole translation unit."""

    functions: Dict[str, Function] = field(default_factory=dict)
    #: Global arrays: name -> number of int elements.
    global_arrays: Dict[str, int] = field(default_factory=dict)
    #: Scalar global initial values (globals are modelled as 1-element arrays).
    metadata: Dict[str, object] = field(default_factory=dict)
    source_name: str = "<memory>"

    def add_function(self, function: Function) -> Function:
        if function.name in self.functions:
            raise TeamPlayError(f"duplicate function {function.name!r}")
        self.functions[function.name] = function
        return function

    def function(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError:
            raise TeamPlayError(f"program has no function {name!r}") from None

    def validate(self) -> None:
        for function in self.functions.values():
            function.validate()
            self.check_callees(function, function.callees())

    def check_callees(self, function: Function, callees: Iterable[str]
                      ) -> None:
        """Reject a call of ``function`` to a function not in the program."""
        for callee in callees:
            if callee not in self.functions:
                raise TeamPlayError(
                    f"function {function.name!r} calls unknown function "
                    f"{callee!r}")

    def clone(self, share_instructions: bool = False) -> "Program":
        """An independent copy safe to hand to the IR passes.

        ``share_instructions`` shares the (effectively immutable) ``Instr``
        objects between the copies — an order of magnitude cheaper, and safe
        for the compiler pipeline whose passes are copy-on-write at
        instruction granularity.
        """
        return Program(
            functions={name: fn.clone(share_instructions)
                       for name, fn in self.functions.items()},
            global_arrays=dict(self.global_arrays),
            metadata=dict(self.metadata),
            source_name=self.source_name,
        )

    def has_recursion(self,
                      callees: Optional[Callable[[Function], Iterable[str]]]
                      = None) -> bool:
        """Whether the call graph has a cycle (self-calls included).

        Calls to unknown functions (which :meth:`validate` rejects) cannot
        close a cycle, so they are left out of the ordering.  ``callees``
        stands in for :meth:`Function.callees`.
        """
        callees_of = callees or Function.callees
        calls = {name: callees_of(function)
                 for name, function in self.functions.items()}
        order = topological_order(
            calls, lambda name: [callee for callee in calls[name]
                                 if callee in calls])
        return len(order) < len(calls)

    @property
    def task_functions(self) -> Dict[str, Function]:
        """Functions annotated as task entry points (``task`` pragma)."""
        return {fn.annotations["task"]: fn for fn in self.functions.values()
                if "task" in fn.annotations}

    @property
    def total_instructions(self) -> int:
        return sum(fn.instruction_count for fn in self.functions.values())
