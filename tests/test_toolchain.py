"""Integration tests for the end-to-end workflows and the use-case packaging."""

import pytest

from repro.compiler.config import CompilerConfig
from repro.csl import parse_csl
from repro.errors import TeamPlayError
from repro.frontend.parser import parse
from repro.toolchain import ComplexToolchain, PredictableToolchain, WorkloadTask
from repro.toolchain.report import ImprovementReport, format_table
from repro.usecases import camera_pill, deep_learning, space, uav

SMALL_SOURCE = """
int buffer[16];

#pragma teamplay task(produce)
int produce(int seed) {
    for (int i = 0; i < 16; i = i + 1) { buffer[i] = seed + i; }
    return buffer[15];
}

#pragma teamplay task(consume)
int consume(int gain) {
    int acc = 0;
    for (int i = 0; i < 16; i = i + 1) { acc = acc + buffer[i] * gain; }
    return acc;
}
"""

SMALL_CSL = """
system small {
    period 20 ms;
    deadline 20 ms;
    budget energy 30 mJ;
    task produce { budget time 5 ms; budget energy 1 mJ; }
    task consume { budget time 10 ms; budget energy 2 mJ; }
    graph { produce -> consume; }
}
"""


class TestPredictableToolchain:
    @pytest.fixture(scope="class")
    def result(self):
        toolchain = PredictableToolchain(space.platform())
        return toolchain.build(SMALL_SOURCE, SMALL_CSL,
                               compiler_config=CompilerConfig.baseline(),
                               scheduler="energy-aware", dvfs=True)

    def test_all_artefacts_produced(self, result):
        assert set(result.task_properties) == {"produce", "consume"}
        assert set(result.structure.bindings) == {"produce", "consume"}
        assert len(result.schedule.entries) == 2
        assert result.schedulability.feasible
        assert "tp_coordination_init" in result.glue_code
        assert result.certificate.valid
        assert result.makespan_s <= 0.02

    def test_dvfs_offers_multiple_operating_points(self, result):
        implementations = result.task_graph.tasks["consume"].candidates()
        labels = {impl.opp_label for _v, impl in implementations}
        assert len(labels) >= 3

    def test_energy_per_period_accounting(self, result):
        energy = result.energy_per_period_j(space.platform())
        assert energy > 0
        assert energy >= result.schedule.task_energy_j

    def test_exploration_beats_or_matches_single_config(self):
        toolchain = PredictableToolchain(space.platform())
        pinned = toolchain.build(SMALL_SOURCE, SMALL_CSL,
                                 compiler_config=CompilerConfig.baseline(),
                                 scheduler="sequential", dvfs=False)
        explored = toolchain.build(SMALL_SOURCE, SMALL_CSL,
                                   generations=2, population_size=6,
                                   scheduler="sequential", dvfs=False)
        assert explored.variant.energy_j <= pinned.variant.energy_j + 1e-15
        assert len(explored.pareto_front) >= 1

    def test_rejects_complex_platform_and_unknown_scheduler(self):
        with pytest.raises(TeamPlayError):
            PredictableToolchain(uav.platform("apalis-tk1"))
        toolchain = PredictableToolchain(space.platform())
        with pytest.raises(TeamPlayError):
            toolchain.build(SMALL_SOURCE, SMALL_CSL, scheduler="random")

    def test_missing_task_function_rejected(self):
        toolchain = PredictableToolchain(space.platform())
        csl = SMALL_CSL.replace("task produce", "task missing")
        with pytest.raises(TeamPlayError):
            toolchain.build(SMALL_SOURCE, csl,
                            compiler_config=CompilerConfig.baseline())


class TestCompilerFrontDoor:
    """Stage 2 of the toolchain runs through its MultiCriteriaCompiler."""

    ENTRIES = ["produce", "consume"]

    def test_build_leaves_its_engines_in_the_compiler(self):
        toolchain = PredictableToolchain(space.platform())
        result = toolchain.build(SMALL_SOURCE, SMALL_CSL,
                                 compiler_config=CompilerConfig.baseline())
        # The compiler's aggregate engine served the build: asking it again
        # returns the very variant the toolchain selected.
        again = toolchain.compiler.compile(SMALL_SOURCE, self.ENTRIES,
                                           CompilerConfig.baseline())
        assert again is result.variant
        assert again.entry_function == "<all tasks>"
        assert again.security_level is None
        stats = toolchain.cache_stats()
        assert stats == toolchain.compiler.cache_stats()
        assert stats["variant"]["misses"] == 1
        assert stats["variant"]["hits"] == 1
        assert toolchain.pipeline_stats() == \
            toolchain.compiler.pipeline_stats()

    def test_nsga2_build_picks_from_the_driver_front(self):
        toolchain = PredictableToolchain(space.platform())
        result = toolchain.build(SMALL_SOURCE, SMALL_CSL, optimizer="nsga2",
                                 generations=2, population_size=6,
                                 scheduler="sequential", dvfs=False)
        front = toolchain.compiler.explore(
            SMALL_SOURCE, self.ENTRIES, optimizer="nsga2",
            generations=2, population_size=6)
        assert [id(v) for v in result.pareto_front] == \
            [id(v) for v in front.variants]
        assert result.variant is min(front.variants,
                                     key=lambda v: v.energy_j)

    def test_unknown_optimizer_is_a_teamplay_error(self):
        toolchain = PredictableToolchain(space.platform())
        with pytest.raises(TeamPlayError):
            toolchain.build(SMALL_SOURCE, SMALL_CSL, optimizer="annealing")


class TestComplexToolchain:
    TASKS = [
        WorkloadTask("grab", work_units=2e7, kernel="preprocess"),
        WorkloadTask("infer", work_units=1e8, kernel="conv", gpu_capable=True),
        WorkloadTask("send", work_units=5e6),
    ]
    CSL = """
    system tiny_vision {
        period 100 ms;
        deadline 100 ms;
        task grab { }
        task infer { }
        task send { }
        graph { grab -> infer -> send; }
    }
    """

    @pytest.fixture(scope="class")
    def result(self):
        toolchain = ComplexToolchain(uav.platform("apalis-tk1"), profiling_runs=5)
        return toolchain.build(self.TASKS, self.CSL, scheduler="energy-aware")

    def test_two_pass_workflow(self, result):
        assert set(result.profiles) == {"grab", "infer", "send"}
        assert len(result.sequential_schedule.by_core()) == 1
        assert result.schedulability.feasible
        assert result.schedule.entry("infer").core == "gk20a-gpu"
        assert result.software_power_w > 0

    def test_gpu_can_be_disabled(self):
        toolchain = ComplexToolchain(uav.platform("apalis-tk1"), profiling_runs=4)
        result = toolchain.build(self.TASKS, self.CSL, allow_gpu=False)
        assert all(not entry.core.endswith("gpu")
                   for entry in result.schedule.entries)

    def test_missing_workload_rejected(self):
        toolchain = ComplexToolchain(uav.platform("apalis-tk1"), profiling_runs=4)
        with pytest.raises(TeamPlayError):
            toolchain.build(self.TASKS[:2], self.CSL)

    def test_rejects_predictable_platform(self):
        with pytest.raises(TeamPlayError):
            ComplexToolchain(space.platform())


class TestReportingHelpers:
    def test_improvement_report_percentages(self):
        report = ImprovementReport("x", baseline_time_s=1.0, teamplay_time_s=0.8,
                                   baseline_energy_j=2.0, teamplay_energy_j=1.0)
        assert report.performance_improvement_pct == pytest.approx(20.0)
        assert report.energy_improvement_pct == pytest.approx(50.0)
        assert "x" in report.summary()
        assert len(report.rows()) == 2

    def test_format_table(self):
        text = format_table([{"a": 1, "b": 2.5}, {"a": 10, "b": 0.125}])
        lines = text.splitlines()
        assert lines[0].split() == ["a", "b"]
        assert len(lines) == 4


class TestUseCasePackaging:
    def test_camera_pill_sources_parse_and_bind(self):
        module = parse(camera_pill.CAMERA_PILL_SOURCE)
        spec = parse_csl(camera_pill.CAMERA_PILL_CSL)
        names = set(module.function_names())
        for contract in spec.tasks.values():
            assert contract.entry_function in names

    def test_space_sources_parse_and_bind(self):
        module = parse(space.SPACE_SOURCE)
        spec = parse_csl(space.SPACE_CSL)
        names = set(module.function_names())
        for contract in spec.tasks.values():
            assert contract.entry_function in names

    def test_uav_task_sets_match_contracts(self):
        spec = parse_csl(uav.SAR_CSL)
        assert {t.name for t in uav.SAR_TASKS} == set(spec.tasks)
        assert any(t.gpu_capable for t in uav.SAR_TASKS)

    def test_parking_workload_matches_contract(self):
        spec = parse_csl(deep_learning.PARKING_CSL)
        tasks = deep_learning.tk1_workload(work_scale=100)
        assert {t.name for t in tasks} == set(spec.tasks)

    def test_uav_platform_selection(self):
        assert uav.platform("jetson-nano").name == "jetson-nano"
        with pytest.raises(ValueError):
            uav.platform("esp32")

    def test_camera_pill_fpga_implementation(self):
        board = camera_pill.platform()
        implementation = camera_pill.fpga_filter_implementation(board)
        assert implementation.core == "fpga-imaging"
        assert implementation.wcet_s > 0
        assert implementation.energy_j > 0

    def test_flight_time_monotone_in_software_power(self):
        assert uav.flight_time_s(2.0) > uav.flight_time_s(10.0)
