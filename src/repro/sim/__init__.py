"""Instruction-set simulator.

The simulator executes IR programs on a predictable-core model, charging
each instruction the one price (:mod:`repro.hw.price`) whose worst case the
static analysers bound.
It is the reproduction's stand-in for running on the physical boards: it
provides the dynamic baseline the WCET/WCEC bounds are validated against, the
measurement substrate for the dynamic profiler (PowProfiler), and the
time/power observables consumed by the security analyser.
"""

from repro.sim.machine import ExecutionResult, InstructionEvent, Simulator

__all__ = ["ExecutionResult", "InstructionEvent", "Simulator"]
