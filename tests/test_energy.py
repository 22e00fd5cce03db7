"""Tests for the energy models, model fitting and the static energy analyser."""

import pytest

from oracles import build_program

from repro.compiler.config import CompilerConfig
from repro.compiler.pipeline import CompilationPipeline
from repro.energy.component_model import ComponentEnergyModel, ComponentLoad
from repro.energy.fitting import cross_validate, fit_isa_model
from repro.energy.isa_model import IsaEnergyModel
from repro.energy.measurements import run_campaign
from repro.energy.static_analyzer import EnergyAnalyzer
from repro.errors import AnalysisError, PlatformError
from repro.frontend.lowering import compile_source
from repro.frontend.parser import parse
from repro.hw.presets import apalis_tk1, gr712rc, nucleo_stm32f091rc
from repro.hw.price import price, worst_price
from repro.ir.cfg import Program
from repro.ir.instructions import Opcode
from repro.sim.machine import Simulator
from repro.usecases.camera_pill import CAMERA_PILL_SOURCE
from repro.wcet.analyzer import WCETAnalyzer


@pytest.fixture(scope="module")
def platform():
    return nucleo_stm32f091rc()


BENCH_SOURCE = """
int data[32];
int accumulate(int gain) {
    int s = 0;
    for (int i = 0; i < 32; i = i + 1) { s = s + data[i] * gain; }
    return s;
}
int busy_math(int n) {
    int r = 1;
    for (int i = 1; i < 12; i = i + 1) { r = (r * i + n) % 1000003; }
    return r;
}
int memory_walk(int stride) {
    int s = 0;
    for (int i = 0; i < 32; i = i + 1) {
        data[i] = s;
        s = s + data[(i * stride) % 32] + 1;
    }
    return s;
}
"""


class TestInstructionPrice:
    """The one price (:mod:`repro.hw.price`) the simulator charges and the
    analysers bound."""

    def test_worst_price_is_the_tables_at_nominal(self, platform):
        core = platform.predictable_cores[0]
        cycles, energy = worst_price(core, platform.memory, Opcode.MUL, None,
                                     core.nominal_opp)
        assert cycles == core.cycle_table["mul"] \
            + platform.memory.fetch_wait_states()
        assert energy == core.energy_table["mul"] + core.inter_class_overhead_j

    def test_price_energy_components(self, platform):
        core = platform.predictable_cores[0]
        memory, opp = platform.memory, core.nominal_opp
        _, plain = price(core, memory, Opcode.ADD, None, opp, switched=False)
        _, switched = price(core, memory, Opcode.ADD, None, opp, switched=True)
        _, load = price(core, memory, Opcode.LOAD, None, opp, switched=False)
        assert switched > plain
        # A memory access adds the data region's access energy.
        assert load == core.energy_table["load"] + memory.access_energy()

    def test_unknown_class_rejected(self, platform):
        core = platform.predictable_cores[0]
        with pytest.raises(PlatformError):
            price(core, platform.memory, "avx512", None, core.nominal_opp,
                  switched=False)


class TestIsaModel:
    def test_estimate_from_counts(self, platform):
        core = platform.predictable_cores[0]
        model = IsaEnergyModel.from_coefficients(
            "fitted", core.energy_table, core.nominal_opp,
            static_power_w=core.static_power_w)
        estimate = model.estimate_from_counts({"alu": 100, "mul": 10}, time_s=1e-3)
        manual = (100 * model.per_class_j["alu"] + 10 * model.per_class_j["mul"]
                  + model.static_power_w * 1e-3)
        assert estimate == pytest.approx(manual)

    def test_fitted_model_clamps_negative_coefficients(self, platform):
        core = platform.predictable_cores[0]
        model = IsaEnergyModel.from_coefficients(
            "fitted", {"alu": -1.0, "mul": 2e-9}, core.nominal_opp)
        assert model.per_class_j["alu"] == 0.0
        assert model.per_class_j["mul"] == pytest.approx(2e-9)


class TestModelFitting:
    def _campaign(self, platform, noise):
        program = compile_source(BENCH_SOURCE)
        benchmarks = [("acc", "accumulate", [3]), ("math", "busy_math", [7]),
                      ("mem", "memory_walk", [5])]
        return run_campaign(program, platform, benchmarks, noise_std=noise,
                            repetitions=4, seed=1)

    def test_fit_recovers_energy_with_low_error(self, platform):
        campaign = self._campaign(platform, noise=0.02)
        report = fit_isa_model(campaign,
                               platform.predictable_cores[0].nominal_opp)
        assert report.sample_count == 12
        assert report.mean_absolute_percentage_error < 0.10
        assert all(value >= 0 for value in report.coefficients.values())

    def test_noise_free_fit_is_nearly_exact(self, platform):
        campaign = self._campaign(platform, noise=0.0)
        report = fit_isa_model(campaign,
                               platform.predictable_cores[0].nominal_opp)
        assert report.mean_absolute_percentage_error < 0.02

    def test_cross_validation(self, platform):
        campaign = self._campaign(platform, noise=0.03)
        errors = cross_validate(campaign,
                                platform.predictable_cores[0].nominal_opp,
                                folds=3)
        assert errors and all(e < 0.25 for e in errors)

    def test_fit_requires_samples(self, platform):
        campaign = self._campaign(platform, noise=0.0)
        campaign.samples = campaign.samples[:2]
        with pytest.raises(AnalysisError):
            fit_isa_model(campaign, platform.predictable_cores[0].nominal_opp)


class TestEnergyAnalyzer:
    def test_wcec_dominates_simulation(self, platform):
        program = compile_source(BENCH_SOURCE)
        analyzer = EnergyAnalyzer(platform)
        sim = Simulator(program, platform)
        for function, args in (("accumulate", [9]), ("busy_math", [3]),
                               ("memory_walk", [7])):
            bound = analyzer.analyze(program, function)
            observed = sim.run(function, args,
                               globals_init={"data": list(range(32))})
            assert bound.energy_j >= observed.energy_j
            assert bound.energy_j <= 5 * observed.energy_j

    def test_wcec_dominates_simulation_below_nominal_on_leon3(self):
        # Memory-access energy scales by V^2 in the simulator as in the
        # bound; unscaled, this run exceeded its WCEC by 0.66%.
        board = gr712rc()
        core = board.predictable_cores[0]
        low = core.opp_by_frequency(20e6)
        assert low != core.nominal_opp
        program, _ = build_program(CompilationPipeline(board),
                                   parse(CAMERA_PILL_SOURCE), CompilerConfig())
        bound = EnergyAnalyzer(board).analyze(program, "capture_frame", opp=low)
        observed = Simulator(program, board, opp=low).run("capture_frame", [9])
        assert observed.dynamic_energy_j <= bound.dynamic_energy_j
        assert observed.energy_j <= bound.energy_j

    def test_static_energy_uses_wcet_time(self, platform):
        program = compile_source(BENCH_SOURCE)
        wcec = EnergyAnalyzer(platform).analyze(program, "accumulate")
        wcet = WCETAnalyzer(platform).analyze(program, "accumulate")
        assert wcec.wcet_time_s == pytest.approx(wcet.time_s)
        assert wcec.static_energy_j == pytest.approx(
            platform.predictable_cores[0].static_power_w * wcet.time_s)

    def test_operating_point_sweep_has_a_sweet_spot_or_monotone(self, platform):
        program = compile_source(BENCH_SOURCE)
        analyzer = EnergyAnalyzer(platform)
        sweep = {opp.label: analyzer.analyze(program, "busy_math", opp=opp)
                 for opp in analyzer.core.operating_points}
        assert len(sweep) == len(platform.predictable_cores[0].operating_points)
        energies = [result.energy_j for result in sweep.values()]
        assert all(e > 0 for e in energies)

    def test_analyze_validates_the_program_once(self, platform, monkeypatch):
        # The WCET analysis behind the static term validates the program
        # and rejects recursion; the energy analysis does not repeat it.
        program = compile_source(BENCH_SOURCE)
        calls = []
        original = Program.validate

        def counting_validate(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(Program, "validate", counting_validate)
        EnergyAnalyzer(platform).analyze(program, "accumulate")
        assert calls == [program]

    def test_recursion_is_rejected(self, platform):
        program = compile_source("""
        int down(int n) { if (n > 0) { return down(n - 1); } return 0; }
        """)
        with pytest.raises(AnalysisError, match="recursion"):
            EnergyAnalyzer(platform).analyze(program, "down")

    def test_all_tasks(self, platform):
        program = compile_source("""
        #pragma teamplay task(one)
        int one(int a) { return a + 1; }
        """)
        analyzer = EnergyAnalyzer(platform)
        results = {task: analyzer.analyze(program, fn.name)
                   for task, fn in program.task_functions.items()}
        assert set(results) == {"one"}


class TestComponentModel:
    def test_task_time_and_energy(self):
        board = apalis_tk1()
        model = ComponentEnergyModel(board)
        time_s = model.task_time("gk20a-gpu", 1e8, kernel="conv")
        energy = model.task_energy("gk20a-gpu", 1e8, kernel="conv")
        assert time_s > 0 and energy > 0
        assert energy == pytest.approx(
            (board.core("gk20a-gpu").active_power()
             - board.core("gk20a-gpu").idle_power()) * time_s)

    def test_window_energy_includes_idle_components(self):
        board = apalis_tk1()
        model = ComponentEnergyModel(board, board_overhead_w=0.5)
        empty = model.window_energy([], window_s=1.0)
        assert empty == pytest.approx(model.idle_power())
        loads = [ComponentLoad("a15-0", busy_time_s=0.5, energy_j=1.0)]
        assert model.window_energy(loads, 1.0) == pytest.approx(empty + 1.0)

    def test_busy_time_cannot_exceed_window(self):
        model = ComponentEnergyModel(apalis_tk1())
        with pytest.raises(AnalysisError):
            model.window_energy([ComponentLoad("a15-0", 2.0, 1.0)], 1.0)

    def test_predictable_core_rejected(self):
        model = ComponentEnergyModel(nucleo_stm32f091rc())
        with pytest.raises(AnalysisError):
            model.task_time("m0", 100.0)
