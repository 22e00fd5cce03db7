"""The one instruction price of a predictable core and its memory system.

:func:`price` is the only place an instruction's cycles and dynamic energy
are computed.  The simulator calls it for every instruction it executes;
the WCET and energy analysers charge :func:`worst_price`, its maximum over
every input the simulator can pass, so a simulated run never costs more
than its analysed bound.  Memory-access energy is dynamic energy: like
the class energy and the switching overhead, it scales by the operating
point's ``V^2`` factor.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.errors import PlatformError
from repro.hw.core import Core
from repro.hw.dvfs import OperatingPoint
from repro.hw.memory import MemorySystem
from repro.ir.instructions import Opcode, instruction_class


def price(core: Core, memory: MemorySystem, opcode: Opcode,
          region: Optional[str], opp: OperatingPoint, switched: bool,
          taken: bool = True, dividend: Optional[int] = None
          ) -> Tuple[int, float]:
    """``(cycles, dynamic energy in J)`` of one ``opcode`` instruction.

    ``region`` is the code region it is fetched from (``None``: the
    memory system's default), ``switched`` whether its class differs from
    the previous instruction's, ``taken`` whether a branch was taken and
    ``dividend`` a division's dividend (``None``: unknown).
    """
    try:
        cls = instruction_class(opcode)
        cycles = core.cycle_table[cls]
        energy = core.energy_table[cls]
    except KeyError:
        raise PlatformError(
            f"core {core.name!r} has no price for {opcode!r}") from None
    if cls == "branch" and not taken:
        cycles = core.branch_not_taken_cycles
    elif cls == "div" and dividend is not None:
        cycles = min(cycles, 2 + max(1, abs(dividend)).bit_length() // 2)
    cycles += memory.fetch_wait_states(region)
    if switched:
        energy += core.inter_class_overhead_j
    if opcode is Opcode.LOAD or opcode is Opcode.STORE:
        cycles += memory.data_wait_states(write=opcode is Opcode.STORE)
        energy += memory.access_energy()
    return cycles, energy * opp.dynamic_scale(core.nominal_opp)


def worst_price(core: Core, memory: MemorySystem, opcode: Opcode,
                region: Optional[str], opp: OperatingPoint
                ) -> Tuple[float, float]:
    """The most :func:`price` charges ``opcode`` at ``opp``: cycles and
    energy each maximised over every input the simulator can pass, a class
    switched or not and (for a branch) taken or not, with the dividend
    unknown."""
    takens = (False, True) if opcode is Opcode.BR else (True,)
    cycles, energies = zip(*[
        price(core, memory, opcode, region, opp, switched, taken)
        for switched in (False, True) for taken in takens])
    return float(max(cycles)), max(energies)
