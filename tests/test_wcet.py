"""Tests for loop-bound inference and the WCET analyser."""

import pytest

from oracles import acyclic_longest_path_cost
from repro.errors import AnalysisError, UnboundedLoopError
from repro.frontend.lowering import compile_source
from repro.frontend.parser import parse
from repro.hw.presets import gr712rc, nucleo_stm32f091rc
from repro.sim.machine import Simulator
from repro.wcet.analyzer import WCETAnalyzer
from repro.wcet.loopbounds import infer_for_bound, infer_loop_bounds
from repro.wcet.structural import StructuralCostEngine


@pytest.fixture(scope="module")
def platform():
    return nucleo_stm32f091rc()


class TestLoopBounds:
    @pytest.mark.parametrize("header,expected", [
        ("for (int i = 0; i < 10; i = i + 1)", 10),
        ("for (int i = 0; i <= 10; i = i + 1)", 11),
        ("for (int i = 0; i < 10; i = i + 3)", 4),
        ("for (int i = 10; i > 0; i = i - 2)", 5),
        ("for (int i = 10; i >= 0; i = i - 1)", 11),
        ("for (int i = 5; i < 5; i = i + 1)", 0),
        ("for (int i = 0; i < 16; i += 4)", 4),
    ])
    def test_counted_loops(self, header, expected):
        module = parse(f"int f(void) {{ int s = 0; {header} {{ s = s + 1; }} return s; }}")
        loop = module.function("f").body[1]
        assert infer_for_bound(loop) == expected

    def test_non_counted_loop_not_inferred(self):
        module = parse("int f(int n) { int s = 0; for (int i = 0; i < n; i = i + 1) { s = s + 1; } return s; }")
        assert infer_for_bound(module.function("f").body[1]) is None

    def test_wrong_direction_not_inferred(self):
        module = parse("int f(void) { int s = 0; for (int i = 0; i < 4; i = i - 1) { s = s + 1; } return s; }")
        assert infer_for_bound(module.function("f").body[1]) is None

    def test_pragma_bound_wins(self):
        module = parse("""
        int f(void) {
            int s = 0;
            #pragma teamplay loopbound(3)
            for (int i = 0; i < 100; i = i + 1) { s = s + 1; }
            return s;
        }
        """)
        infer_loop_bounds(module)
        assert module.function("f").body[1].bound == 3

    def test_inference_counts_loops(self):
        module = parse("""
        int f(void) {
            int s = 0;
            for (int i = 0; i < 4; i = i + 1) {
                for (int j = 0; j < 4; j = j + 1) { s = s + 1; }
            }
            return s;
        }
        """)
        assert infer_loop_bounds(module) == 2


class TestWcetAnalysis:
    SOURCE = """
    int data[32];
    int weight(int x) { return x * 3 + 1; }
    int task(int gain) {
        int acc = 0;
        for (int i = 0; i < 32; i = i + 1) {
            int v = data[i] * gain;
            if (v > 100) { acc = acc + weight(v); } else { acc = acc + v; }
        }
        return acc;
    }
    """

    def test_bound_dominates_simulation(self, platform):
        program = compile_source(self.SOURCE)
        bound = WCETAnalyzer(platform).analyze(program, "task")
        sim = Simulator(program, platform)
        for gain in (0, 1, 7, 1000):
            observed = sim.run("task", [gain],
                               globals_init={"data": list(range(32))})
            assert bound.cycles >= observed.cycles

    def test_bound_is_not_absurdly_loose(self, platform):
        program = compile_source(self.SOURCE)
        bound = WCETAnalyzer(platform).analyze(program, "task")
        observed = Simulator(program, platform).run(
            "task", [1000], globals_init={"data": list(range(32))})
        assert bound.cycles <= 3 * observed.cycles

    def test_scaling_to_another_frequency(self, platform):
        program = compile_source(self.SOURCE)
        result = WCETAnalyzer(platform).analyze(program, "task")
        slower = result.scaled_to(result.frequency_hz / 2)
        assert slower.time_s == pytest.approx(2 * result.time_s)
        assert slower.cycles == result.cycles

    def test_unbounded_loop_rejected(self, platform):
        program = compile_source(
            "int f(int n) { int s = 0; for (int i = 0; i < n; i = i + 1) { s = s + 1; } return s; }")
        with pytest.raises(UnboundedLoopError):
            WCETAnalyzer(platform).analyze(program, "f")

    def test_recursion_rejected(self, platform):
        program = compile_source("""
        int fact(int n) {
            if (n <= 1) { return 1; }
            return n * fact(n - 1);
        }
        """)
        with pytest.raises(AnalysisError):
            WCETAnalyzer(platform).analyze(program, "fact")

    def test_complex_platform_rejected(self):
        from repro.hw.presets import apalis_tk1
        with pytest.raises(AnalysisError):
            WCETAnalyzer(apalis_tk1())

    def test_if_costs_max_of_branches(self, platform):
        balanced = compile_source("""
        int f(int a) {
            int r = 0;
            if (a > 0) { r = a * 3; } else { r = a * 3; }
            return r;
        }
        """)
        heavier = compile_source("""
        int f(int a) {
            int r = 0;
            if (a > 0) { r = a * 3; } else { r = a * 3 + a / 7 + a % 5; }
            return r;
        }
        """)
        analyzer = WCETAnalyzer(platform)
        assert analyzer.analyze(heavier, "f").cycles > analyzer.analyze(balanced, "f").cycles

    def test_per_function_breakdown_and_tasks(self, platform):
        program = compile_source("""
        #pragma teamplay task(alpha)
        int alpha(int a) { return a + 1; }
        #pragma teamplay task(beta)
        int beta(int a) { return a * alpha(a); }
        """)
        analyzer = WCETAnalyzer(platform)
        results = {task: analyzer.analyze(program, fn.name)
                   for task, fn in program.task_functions.items()}
        assert set(results) == {"alpha", "beta"}
        assert results["beta"].cycles > results["alpha"].cycles
        assert results["beta"].per_function_cycles["alpha"] > 0
        # Each entry's call closure, in program order, and nothing else.
        assert list(results["alpha"].per_function_cycles) == ["alpha"]
        assert list(results["beta"].per_function_cycles) == ["alpha", "beta"]
        assert results["beta"].per_function_cycles["alpha"] == \
            results["alpha"].cycles

    def test_spm_placement_reduces_wcet(self, platform):
        program = compile_source(self.SOURCE)
        analyzer = WCETAnalyzer(platform)
        baseline = analyzer.analyze(program, "task").cycles
        for function in program.functions.values():
            function.code_region = platform.memory.scratchpad_region
        assert analyzer.analyze(program, "task").cycles < baseline

    def test_multicore_platform_uses_requested_core(self):
        board = gr712rc()
        program = compile_source("int f(int a) { return a * a; }")
        first = WCETAnalyzer(board, core=board.predictable_cores[0]).analyze(program, "f")
        second = WCETAnalyzer(board, core=board.predictable_cores[1]).analyze(program, "f")
        assert first.cycles == second.cycles  # identical cores


class TestStructuralEngine:
    def test_matches_ipet_on_acyclic_functions(self, platform):
        program = compile_source("""
        int f(int a) {
            int r = a;
            if (a > 10) { r = a * 2; } else { r = a - 2; }
            if (r > 20) { r = r / 3; }
            return r;
        }
        """)
        function = program.functions["f"]
        cost = lambda fn, instr: 1.0  # noqa: E731  (count instructions)
        engine_cost = StructuralCostEngine(program, cost).function_cost("f")
        ipet_cost = acyclic_longest_path_cost(function, cost)
        assert engine_cost == pytest.approx(ipet_cost)

    def test_ipet_rejects_cyclic_cfg(self, platform):
        program = compile_source(
            "int f(void) { int s = 0; for (int i = 0; i < 4; i = i + 1) { s = s + 1; } return s; }")
        with pytest.raises(AnalysisError):
            acyclic_longest_path_cost(program.functions["f"], lambda fn, i: 1.0)

    def test_loop_cost_scales_with_bound(self, platform):
        def program_with(bound):
            return compile_source(f"""
            int f(void) {{
                int s = 0;
                for (int i = 0; i < {bound}; i = i + 1) {{ s = s + i; }}
                return s;
            }}
            """)
        cost = lambda fn, instr: 1.0  # noqa: E731
        small = StructuralCostEngine(program_with(10), cost).function_cost("f")
        large = StructuralCostEngine(program_with(20), cost).function_cost("f")
        assert large > small
        assert (large - small) == pytest.approx(10 * ((large - small) / 10))
