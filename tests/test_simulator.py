"""Tests for the instruction-set simulator."""

import pytest

from repro.errors import SimulationError
from repro.frontend.lowering import compile_source
from repro.hw.presets import nucleo_stm32f091rc
from repro.ir.instructions import wrap32
from repro.sim.machine import Simulator


@pytest.fixture(scope="module")
def platform():
    return nucleo_stm32f091rc()


def run(source, function, args, platform, **kwargs):
    program = compile_source(source)
    return Simulator(program, platform, **kwargs).run(function, args)


class TestSemantics:
    def test_arithmetic_and_division_truncation(self, platform):
        src = "int f(int a, int b) { return (a * 3 - b) / 4 + a % b; }"
        expected = lambda a, b: int((a * 3 - b) / 4) + int(a - int(a / b) * b)  # noqa: E731
        for a, b in ((10, 3), (-10, 3), (10, -3), (-7, 2)):
            result = run(src, "f", [a, b], platform)
            assert result.return_value == expected(a, b)

    def test_32bit_wraparound(self, platform):
        src = "int f(int a) { return a * a; }"
        result = run(src, "f", [100_000], platform)
        assert result.return_value == wrap32(100_000 * 100_000)

    def test_logical_shift_right(self, platform):
        src = "int f(int a) { return a >> 4; }"
        result = run(src, "f", [-16], platform)
        assert result.return_value == (-16 & 0xFFFFFFFF) >> 4

    def test_logical_operators_and_not(self, platform):
        src = "int f(int a, int b) { return (a && b) + 2 * (a || b) + 4 * (!a); }"
        assert run(src, "f", [0, 5], platform).return_value == 0 + 2 + 4
        assert run(src, "f", [3, 5], platform).return_value == 1 + 2 + 0

    def test_loops_and_arrays(self, platform):
        src = """
        int buf[16];
        int f(int n) {
            for (int i = 0; i < 16; i = i + 1) { buf[i] = i * i; }
            int s = 0;
            for (int i = 0; i < 16; i = i + 1) { s = s + buf[i]; }
            return s;
        }
        """
        assert run(src, "f", [0], platform).return_value == sum(i * i for i in range(16))

    def test_nested_calls(self, platform):
        src = """
        int square(int x) { return x * x; }
        int sum_sq(int a, int b) { return square(a) + square(b); }
        int f(int a) { return sum_sq(a, a + 1); }
        """
        assert run(src, "f", [5], platform).return_value == 25 + 36

    def test_globals_are_reset_between_runs(self, platform):
        src = """
        int counter[1];
        int f(int unused) { counter[0] = counter[0] + 1; return counter[0]; }
        """
        program = compile_source(src)
        sim = Simulator(program, platform)
        assert sim.run("f", [0]).return_value == 1
        assert sim.run("f", [0]).return_value == 1

    def test_globals_init_override_and_result_snapshot(self, platform):
        src = """
        int buf[4];
        int f(int gain) {
            for (int i = 0; i < 4; i = i + 1) { buf[i] = buf[i] * gain; }
            return buf[3];
        }
        """
        program = compile_source(src)
        result = Simulator(program, platform).run("f", [2],
                                                  globals_init={"buf": [1, 2, 3, 4]})
        assert result.return_value == 8
        assert result.globals_after["buf"] == [2, 4, 6, 8]


class TestErrors:
    def test_argument_count_mismatch(self, platform):
        with pytest.raises(SimulationError):
            run("int f(int a) { return a; }", "f", [1, 2], platform)

    def test_out_of_bounds_access(self, platform):
        src = "int buf[4];\nint f(int i) { return buf[i]; }"
        with pytest.raises(SimulationError):
            run(src, "f", [10], platform)

    def test_division_by_zero(self, platform):
        with pytest.raises(SimulationError):
            run("int f(int a) { return 10 / a; }", "f", [0], platform)

    def test_runaway_loop_detected(self, platform):
        src = """
        int f(int n) {
            int i = 0;
            #pragma teamplay loopbound(1)
            while (n == n) { i = i + 1; }
            return i;
        }
        """
        program = compile_source(src)
        with pytest.raises(SimulationError):
            Simulator(program, platform, max_steps=10_000).run("f", [1])

    def test_unknown_global_override(self, platform):
        program = compile_source("int f(int a) { return a; }")
        with pytest.raises(SimulationError):
            Simulator(program, platform).run("f", [1], globals_init={"x": [1]})

    def test_platform_without_predictable_core_rejected(self):
        from repro.hw.presets import apalis_tk1
        program = compile_source("int f(int a) { return a; }")
        with pytest.raises(SimulationError):
            Simulator(program, apalis_tk1())


class TestAccounting:
    def test_cycles_and_energy_are_positive_and_consistent(self, platform):
        src = "int f(int a) { return a * 2 + 1; }"
        result = run(src, "f", [3], platform)
        assert result.cycles > 0
        assert result.dynamic_energy_j > 0
        assert result.static_energy_j > 0
        assert result.energy_j == pytest.approx(
            result.dynamic_energy_j + result.static_energy_j)
        assert result.time_s == pytest.approx(
            result.cycles / result.frequency_hz)
        assert result.average_power_w > 0

    def test_lower_frequency_is_slower(self, platform):
        program = compile_source("int f(int a) { int s = 0; for (int i = 0; i < 32; i = i + 1) { s = s + i * a; } return s; }")
        core = platform.predictable_cores[0]
        slow = Simulator(program, platform, opp=core.operating_points[0]).run("f", [2])
        fast = Simulator(program, platform, opp=core.operating_points[-1]).run("f", [2])
        assert slow.cycles == fast.cycles
        assert slow.time_s > fast.time_s
        assert slow.dynamic_energy_j < fast.dynamic_energy_j

    def test_data_dependent_division_timing(self, platform):
        src = "int f(int a) { return a / 3; }"
        small = run(src, "f", [7], platform)
        large = run(src, "f", [1_000_000_000], platform)
        assert large.cycles > small.cycles

    def test_trace_and_power_trace(self, platform):
        src = "int f(int a) { int s = 0; for (int i = 0; i < 8; i = i + 1) { s = s + i; } return s; }"
        result = run(src, "f", [1], platform, record_trace=True)
        assert result.events
        assert sum(e.energy_j for e in result.events) == pytest.approx(
            result.dynamic_energy_j)
        trace = result.power_trace(16)
        assert len(trace) == result.cycles // 16 + 1
        assert all(p >= 0 for p in trace)

    def test_power_trace_requires_recording(self, platform):
        result = run("int f(int a) { return a; }", "f", [1], platform)
        with pytest.raises(SimulationError):
            result.power_trace()

    def test_instruction_count_matches_events(self, platform):
        result = run("int f(int a) { return a + 1; }", "f", [1], platform,
                     record_trace=True)
        assert result.instruction_count == len(result.events)
