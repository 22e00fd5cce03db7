"""Tests for the processing-element models in repro.hw."""

import pytest

from repro.errors import PlatformError
from repro.frontend.lowering import compile_source
from repro.hw.core import Accelerator, ComplexCore, Core, CoreKind
from repro.hw.dvfs import OperatingPoint, default_opp_ladder, sweet_spot
from repro.hw.memory import MemorySystem
from repro.hw.presets import apalis_tk1, cortex_m0, leon3, nucleo_stm32f091rc
from repro.hw.price import price, worst_price
from repro.ir.instructions import Opcode
from repro.sim.machine import Simulator


class TestOperatingPoint:
    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValueError):
            OperatingPoint(0, 1.0)
        with pytest.raises(ValueError):
            OperatingPoint(1e6, 0)

    def test_dynamic_scale_is_quadratic_in_voltage(self):
        nominal = OperatingPoint(48e6, 1.6)
        low = OperatingPoint(8e6, 0.8)
        assert low.dynamic_scale(nominal) == pytest.approx(0.25)

    def test_default_ladder_is_monotone(self):
        ladder = default_opp_ladder(100e6, 1.2, steps=5)
        freqs = [opp.frequency_hz for opp in ladder]
        volts = [opp.voltage for opp in ladder]
        assert freqs == sorted(freqs)
        assert volts == sorted(volts)
        assert len(ladder) == 5

    def test_sweet_spot_respects_deadline(self):
        opps = [OperatingPoint(f, v) for f, v in ((1e6, 0.8), (2e6, 1.0), (4e6, 1.4))]
        # Energy decreases with frequency in this synthetic case, but the
        # deadline rules out the slowest point.
        energy = {opp.frequency_hz: e for opp, e in zip(opps, (1.0, 2.0, 4.0))}
        time = {opp.frequency_hz: t for opp, t in zip(opps, (4.0, 2.0, 1.0))}
        best, value = sweet_spot(opps, lambda o: energy[o.frequency_hz],
                                 deadline_s=2.5,
                                 time_at=lambda o: time[o.frequency_hz])
        assert best.frequency_hz == 2e6
        assert value == pytest.approx(2.0)

    def test_sweet_spot_no_feasible_point(self):
        opps = [OperatingPoint(1e6, 1.0)]
        with pytest.raises(ValueError):
            sweet_spot(opps, lambda o: 1.0, deadline_s=0.1, time_at=lambda o: 1.0)


class TestPredictableCore:
    """A core's tables through the one instruction price."""

    def test_preset_tables_are_complete(self):
        memory = MemorySystem()
        for core in (cortex_m0(), leon3()):
            for opcode in Opcode:
                cycles, energy = price(core, memory, opcode, None,
                                       core.nominal_opp, switched=False)
                assert cycles >= 1 and energy > 0

    def test_missing_class_rejected(self):
        with pytest.raises(PlatformError):
            Core(name="broken", cycle_table={"alu": 1},
                 energy_table={"alu": 1e-9},
                 nominal_opp=OperatingPoint(1e6, 1.0))

    def test_branch_not_taken_is_cheaper(self):
        core, memory = cortex_m0(), MemorySystem()
        opp = core.nominal_opp
        taken, _ = price(core, memory, Opcode.BR, None, opp, False)
        not_taken, _ = price(core, memory, Opcode.BR, None, opp, False,
                             taken=False)
        assert not_taken < taken
        assert worst_price(core, memory, Opcode.BR, None, opp)[0] == taken

    def test_energy_scales_with_operating_point(self):
        core, memory = cortex_m0(), MemorySystem()
        low = core.operating_points[0]
        high = core.operating_points[-1]
        for opcode in (Opcode.ADD, Opcode.LOAD, Opcode.STORE):
            # Memory accesses scale by V^2 like every dynamic term.
            energies = [price(core, memory, opcode, None, opp, switched)[1]
                        for opp in (low, high) for switched in (False, True)]
            scale = low.dynamic_scale(high)
            assert energies[0] == pytest.approx(energies[2] * scale)
            assert energies[1] == pytest.approx(energies[3] * scale)
            assert energies[0] < energies[2]

    def test_switching_overhead_only_on_class_change(self):
        # Simulated: alu, alu, mul, alu, ret.  The first instruction follows
        # nothing and the second follows its own class.
        program = compile_source(
            "int f(int a) { int b = a + 1; int c = b + 2; "
            "return (c * 3) + 1; }")
        platform = nucleo_stm32f091rc()
        core = platform.predictable_cores[0]
        events = Simulator(program, platform, record_trace=True).run(
            "f", [4]).events
        classes = [event.instruction_class for event in events]
        previous = [None] + classes[:-1]
        for event, before in zip(events, previous):
            _, expected = price(core, platform.memory, event.opcode, None,
                                core.nominal_opp,
                                switched=before not in (None,
                                                        event.instruction_class))
            assert event.energy_j == expected
        switched = [before not in (None, cls)
                    for cls, before in zip(classes, previous)]
        assert any(switched) and not all(switched)
        assert events[0].energy_j == core.energy_table[classes[0]]

    def test_time_for_cycles_uses_frequency(self):
        core = cortex_m0()
        opp = core.opp_by_frequency(8e6)
        assert core.time_for_cycles(8000, opp) == pytest.approx(1e-3)

    def test_unknown_frequency_rejected(self):
        with pytest.raises(PlatformError):
            cortex_m0().opp_by_frequency(123.0)

    def test_unknown_class_rejected(self):
        core = cortex_m0()
        with pytest.raises(PlatformError):
            price(core, MemorySystem(), "simd", None, core.nominal_opp, False)


class TestComplexCore:
    def _gpu(self) -> ComplexCore:
        platform = apalis_tk1()
        return next(core for core in platform.complex_cores
                    if core.kind is CoreKind.GPU)

    def test_execution_time_scales_inversely_with_work(self):
        gpu = self._gpu()
        assert gpu.execution_time(2e8) == pytest.approx(2 * gpu.execution_time(1e8))

    def test_kernel_affinity_speeds_up_matching_kernels(self):
        gpu = self._gpu()
        assert gpu.execution_time(1e8, kernel="conv") < gpu.execution_time(1e8)

    def test_low_opp_is_slower_but_cheaper_per_second(self):
        gpu = self._gpu()
        low, nominal = gpu.operating_points[0], gpu.nominal_opp
        assert gpu.execution_time(1e8, opp=low) > gpu.execution_time(1e8, opp=nominal)
        assert gpu.active_power(low) < gpu.active_power(nominal)

    def test_active_power_includes_idle_floor(self):
        gpu = self._gpu()
        assert gpu.active_power() > gpu.idle_power()

    def test_invalid_parameters_rejected(self):
        with pytest.raises(PlatformError):
            ComplexCore(name="x", kind=CoreKind.CPU,
                        nominal_opp=OperatingPoint(1e9, 1.0),
                        throughput_units_per_s=0, active_power_w=1,
                        idle_power_w=0.1)
        with pytest.raises(PlatformError):
            ComplexCore(name="x", kind=CoreKind.CPU,
                        nominal_opp=OperatingPoint(1e9, 1.0),
                        throughput_units_per_s=1e9, active_power_w=0.1,
                        idle_power_w=0.5)


class TestAccelerator:
    def test_kernel_costs_include_offload_overhead(self):
        accel = Accelerator(name="fpga", kernels={"filter": (1e-6, 2e-6)},
                            offload_overhead_s=1e-5, offload_overhead_j=1e-5)
        assert accel.execution_time("filter", 10) == pytest.approx(1e-5 + 1e-5)
        assert accel.execution_energy("filter", 10) == pytest.approx(1e-5 + 2e-5)

    def test_unknown_kernel_rejected(self):
        accel = Accelerator(name="fpga", kernels={})
        assert not accel.supports("fft")
        with pytest.raises(PlatformError):
            accel.execution_time("fft")
