"""Cycle-accounting interpreter for the TeamPlay IR.

Integer semantics follow a 32-bit embedded target and come from the IR's one
table (:func:`repro.ir.instructions.evaluate`): values are two's-complement
signed 32-bit integers, ``>>`` is a logical shift on the 32-bit pattern, and
division truncates towards zero.  Every instruction is charged the one price
of :func:`repro.hw.price.price`; division latency is data dependent there
(as on cores with iterative dividers), which is what makes timing side
channels observable in the security use cases, and the static analysers
charge the price's worst case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.hw.core import Core
from repro.hw.dvfs import OperatingPoint
from repro.hw.platform import Platform
from repro.hw.price import price
from repro.ir import runs
from repro.ir.cfg import Function, Program
from repro.ir.instructions import (Imm, Instr, Opcode, Operand, evaluate,
                                   wrap32)


@dataclass
class InstructionEvent:
    """One executed instruction, for trace-based (security) analyses."""

    function: str
    block: str
    opcode: Opcode
    instruction_class: str
    cycles: int
    energy_j: float
    cycle_start: int


@dataclass
class ExecutionResult:
    """Aggregate outcome of one simulated run."""

    return_value: int
    cycles: int
    instruction_count: int
    dynamic_energy_j: float
    static_energy_j: float
    time_s: float
    frequency_hz: float
    events: Optional[List[InstructionEvent]] = None
    globals_after: Dict[str, List[int]] = field(default_factory=dict)

    @property
    def energy_j(self) -> float:
        return self.dynamic_energy_j + self.static_energy_j

    @property
    def average_power_w(self) -> float:
        return self.energy_j / self.time_s if self.time_s > 0 else 0.0

    def power_trace(self, bucket_cycles: int = 64) -> List[float]:
        """Average power per bucket of ``bucket_cycles`` cycles (W).

        Requires the run to have been executed with ``record_trace=True``.
        """
        if self.events is None:
            raise SimulationError("power_trace requires record_trace=True")
        if bucket_cycles <= 0:
            raise ValueError("bucket_cycles must be positive")
        buckets = [0.0] * (self.cycles // bucket_cycles + 1)
        for event in self.events:
            buckets[event.cycle_start // bucket_cycles] += event.energy_j
        bucket_time = bucket_cycles / self.frequency_hz
        return [energy / bucket_time for energy in buckets]


class _Frame:
    """Activation record of one function call."""

    __slots__ = ("function", "registers", "arrays")

    def __init__(self, function: Function):
        self.function = function
        self.registers: Dict[str, int] = {}
        self.arrays: Dict[str, List[int]] = {
            name: [0] * size for name, size in function.local_arrays.items()
        }


class Simulator:
    """Interprets an IR :class:`Program` on a predictable core model."""

    def __init__(self, program: Program, platform: Platform,
                 core: Optional[Core] = None,
                 opp: Optional[OperatingPoint] = None,
                 record_trace: bool = False,
                 max_steps: int = 20_000_000,
                 max_call_depth: int = 128):
        self.program = program
        self.platform = platform
        core = core or next(iter(platform.predictable_cores), None)
        if core is None:
            raise SimulationError(
                f"platform {platform.name!r} has no predictable core to simulate on")
        self.core = core
        self.opp = opp or core.nominal_opp
        self.record_trace = record_trace
        self.max_steps = max_steps
        self.max_call_depth = max_call_depth
        # The price of every data-independent instruction, per (opcode,
        # code region, class switched, branch taken).
        self._prices: Dict[Tuple, Tuple[int, float]] = {}
        # The instructions of each compact block, per (function, label),
        # runs expanded, so that the (possibly shared) block stays compact.
        self._flat: Dict[Tuple[str, str], List[Instr]] = {}

        # Mutable per-run state.
        self._globals: Dict[str, List[int]] = {}
        self._cycles = 0
        self._dynamic_energy = 0.0
        self._instructions = 0
        self._previous_class: Optional[str] = None
        self._events: Optional[List[InstructionEvent]] = None
        self._steps = 0

    # ------------------------------------------------------------------ API --
    def run(self, function_name: str,
            args: Optional[Sequence[int]] = None,
            globals_init: Optional[Dict[str, Sequence[int]]] = None,
            ) -> ExecutionResult:
        """Execute ``function_name`` with integer ``args`` and return the result."""
        function = self.program.function(function_name)
        args = list(args or [])
        if len(args) != len(function.params):
            raise SimulationError(
                f"{function_name} expects {len(function.params)} arguments, "
                f"got {len(args)}")

        self._reset_globals(globals_init)
        self._cycles = 0
        self._dynamic_energy = 0.0
        self._instructions = 0
        self._previous_class = None
        self._steps = 0
        self._events = [] if self.record_trace else None

        value = self._call(function, [wrap32(a) for a in args], depth=0)

        time_s = self.core.time_for_cycles(self._cycles, self.opp)
        static_energy = self.core.static_energy(time_s, self.opp)
        return ExecutionResult(
            return_value=value,
            cycles=self._cycles,
            instruction_count=self._instructions,
            dynamic_energy_j=self._dynamic_energy,
            static_energy_j=static_energy,
            time_s=time_s,
            frequency_hz=self.opp.frequency_hz,
            events=self._events,
            globals_after={name: list(values)
                           for name, values in self._globals.items()},
        )

    # -------------------------------------------------------------- internals --
    def _reset_globals(self, overrides: Optional[Dict[str, Sequence[int]]]) -> None:
        self._globals = {name: [0] * size
                         for name, size in self.program.global_arrays.items()}
        initialisers = self.program.metadata.get("global_init", {})
        for name, values in initialisers.items():
            for i, value in enumerate(values):
                self._globals[name][i] = wrap32(value)
        for name, values in (overrides or {}).items():
            if name not in self._globals:
                raise SimulationError(f"unknown global array {name!r}")
            if len(values) > len(self._globals[name]):
                raise SimulationError(
                    f"initialiser for {name!r} is longer than the array")
            for i, value in enumerate(values):
                self._globals[name][i] = wrap32(value)

    def _charge(self, function: Function, block_label: str, instr: Instr,
                taken: bool = True, dividend: Optional[int] = None) -> None:
        cls = instr.instruction_class
        previous = self._previous_class
        switched = previous is not None and previous != cls
        if dividend is None:
            key = (instr.opcode, function.code_region, switched, taken)
            cost = self._prices.get(key)
            if cost is None:
                cost = self._prices[key] = price(
                    self.core, self.platform.memory, instr.opcode,
                    function.code_region, self.opp, switched, taken)
        else:
            cost = price(self.core, self.platform.memory, instr.opcode,
                         function.code_region, self.opp, switched,
                         dividend=dividend)
        cycles, energy = cost
        if self._events is not None:
            self._events.append(InstructionEvent(
                function=function.name, block=block_label, opcode=instr.opcode,
                instruction_class=cls, cycles=cycles, energy_j=energy,
                cycle_start=self._cycles))
        self._cycles += cycles
        self._dynamic_energy += energy
        self._instructions += 1
        self._previous_class = cls

    def _instrs(self, function: Function, label: str) -> List[Instr]:
        """The instructions of ``function``'s block ``label``, never
        materialising the block."""
        parts = function.block(label).parts
        if parts.__class__ is list:
            return parts
        flat = self._flat.get((function.name, label))
        if flat is None:
            flat = self._flat[function.name, label] = []
            runs.flatten(parts, flat)
        return flat

    def _operand(self, frame: _Frame, operand: Operand) -> int:
        if isinstance(operand, Imm):
            return wrap32(operand.value)
        try:
            return frame.registers[operand.name]
        except KeyError:
            raise SimulationError(
                f"{frame.function.name}: read of undefined register "
                f"%{operand.name}") from None

    def _array(self, frame: _Frame, name: str) -> List[int]:
        if name in frame.arrays:
            return frame.arrays[name]
        if name in self._globals:
            return self._globals[name]
        raise SimulationError(f"{frame.function.name}: unknown array {name!r}")

    def _call(self, function: Function, args: List[int], depth: int) -> int:
        if depth > self.max_call_depth:
            raise SimulationError(
                f"call depth exceeded {self.max_call_depth} (recursion?)")
        frame = _Frame(function)
        for name, value in zip(function.params, args):
            frame.registers[name] = value

        label = function.entry
        while True:
            next_label: Optional[str] = None
            for instr in self._instrs(function, label):
                self._steps += 1
                if self._steps > self.max_steps:
                    raise SimulationError(
                        f"execution exceeded {self.max_steps} instructions "
                        f"(unbounded loop?)")
                op = instr.opcode

                if op is Opcode.BR:
                    cond = self._operand(frame, instr.srcs[0])
                    taken = cond != 0
                    self._charge(function, label, instr, taken)
                    next_label = instr.true_target if taken else instr.false_target
                    break
                if op is Opcode.JMP:
                    self._charge(function, label, instr)
                    next_label = instr.true_target
                    break
                if op is Opcode.RET:
                    self._charge(function, label, instr)
                    if instr.srcs:
                        return self._operand(frame, instr.srcs[0])
                    return 0

                if op is Opcode.CALL:
                    callee = self.program.function(instr.callee)
                    call_args = [self._operand(frame, a) for a in instr.args]
                    self._charge(function, label, instr)
                    value = self._call(callee, call_args, depth + 1)
                    if instr.dst is not None:
                        frame.registers[instr.dst.name] = value
                    continue

                if op is Opcode.LOAD:
                    array = self._array(frame, instr.array)
                    index = self._operand(frame, instr.srcs[0])
                    if not 0 <= index < len(array):
                        raise SimulationError(
                            f"{function.name}: load {instr.array}[{index}] out "
                            f"of bounds (size {len(array)})")
                    self._charge(function, label, instr)
                    frame.registers[instr.dst.name] = array[index]
                    continue
                if op is Opcode.STORE:
                    array = self._array(frame, instr.array)
                    index = self._operand(frame, instr.srcs[0])
                    value = self._operand(frame, instr.srcs[1])
                    if not 0 <= index < len(array):
                        raise SimulationError(
                            f"{function.name}: store {instr.array}[{index}] out "
                            f"of bounds (size {len(array)})")
                    self._charge(function, label, instr)
                    array[index] = value
                    continue

                # Data-processing instructions.
                value, dividend = self._execute_dataop(frame, instr)
                self._charge(function, label, instr, dividend=dividend)
                if instr.dst is not None:
                    frame.registers[instr.dst.name] = value

            else:
                # A block without a terminator would be a lowering bug; the
                # validator rejects such programs before simulation.
                raise SimulationError(
                    f"{function.name}: block {label!r} fell through")

            if next_label is None:
                raise SimulationError(
                    f"{function.name}: terminator without target in {label!r}")
            label = next_label

    def _execute_dataop(self, frame: _Frame, instr: Instr):
        """``instr``'s value and the dividend its price depends on (or
        ``None``)."""
        op = instr.opcode
        operands = [self._operand(frame, src) for src in instr.srcs]

        if op is Opcode.MOV:
            return operands[0], None
        if op is Opcode.NOP:
            return 0, None
        if op is Opcode.SELECT:
            cond, if_true, if_false = operands
            return (if_true if cond != 0 else if_false), None

        value = evaluate(op, operands)
        if value is None:  # every other data operation has a value
            raise SimulationError(
                f"{frame.function.name}: division by zero")
        if op is Opcode.DIV or op is Opcode.MOD:
            return value, operands[0]
        return value, None
