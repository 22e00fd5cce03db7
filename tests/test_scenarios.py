"""Scenario subsystem: registry semantics, CLI, runner and golden parity.

The golden-parity classes pin the refactored use-case drivers to JSON
fixtures captured from the pre-refactor hand-rolled pipelines
(``tests/golden/capture.py``): every float must match bit-for-bit, proving
the declarative scenario layer changed the architecture, not the numbers.
"""

import hashlib
import json
import pathlib

import pytest

from repro.compiler.config import CompilerConfig
from repro.compiler.engine import process_analysis_cache, process_cache_store
from repro.scenarios import (
    BuildOptions,
    ScenarioRegistryError,
    ScenarioSpec,
    ScenarioSpecError,
    UnknownScenarioError,
    get_scenario,
    list_scenarios,
    register_scenario,
    run_scenario,
    unregister_scenario,
)
from repro.scenarios.__main__ import main as cli_main

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"

#: All built-in scenarios: the six paper experiments (including the two
#: custom-kind ones, E4/E5) plus the two extras proving the abstraction
#: generalises.
BUILTIN_SCENARIOS = {
    "camera-pill", "space-spacewire", "uav-sar", "parking-dl-tk1",
    "uav-pa", "parking-dl-m0",
    "ecg-wearable", "smart-meter",
}

TINY_SOURCE = """
int samples[16];

#pragma teamplay task(avg) poi(avg)
int moving_average(int gain) {
    int acc = 0;
    for (int i = 0; i < 16; i = i + 1) {
        acc = acc + samples[i] * gain;
    }
    return acc / 16;
}
"""

TINY_CSL = """
system tiny {
    period 10 ms;
    deadline 10 ms;
    task avg { implements moving_average; budget time 5 ms; budget energy 50 uJ; }
    graph { avg; }
}
"""


def tiny_spec(name: str = "tiny-test") -> ScenarioSpec:
    return ScenarioSpec(
        name=name,
        title="Tiny test scenario",
        kind="predictable",
        platform="nucleo-stm32f091rc",
        source=TINY_SOURCE,
        csl=TINY_CSL,
        baseline=BuildOptions(config=CompilerConfig.baseline()),
        teamplay=BuildOptions(generations=1, population_size=2),
    )


@pytest.fixture
def registered_tiny():
    spec = tiny_spec()
    register_scenario(spec)
    try:
        yield spec
    finally:
        unregister_scenario(spec.name)


def golden(filename: str) -> dict:
    with open(GOLDEN_DIR / filename, "r", encoding="utf-8") as handle:
        return json.load(handle)


def assert_report_matches(report, expected: dict) -> None:
    assert report.name == expected["name"]
    assert report.baseline_time_s == expected["baseline_time_s"]
    assert report.teamplay_time_s == expected["teamplay_time_s"]
    assert report.baseline_energy_j == expected["baseline_energy_j"]
    assert report.teamplay_energy_j == expected["teamplay_energy_j"]
    assert report.deadline_s == expected["deadline_s"]
    assert report.deadlines_met == expected["deadlines_met"]
    assert (report.performance_improvement_pct
            == expected["performance_improvement_pct"])
    assert report.energy_improvement_pct == expected["energy_improvement_pct"]


def assert_front_matches(front, expected: list) -> None:
    assert [v.config.short_name() for v in front] \
        == [e["config"] for e in expected]
    assert [v.wcet_time_s for v in front] == [e["wcet_time_s"] for e in expected]
    assert [v.energy_j for v in front] == [e["energy_j"] for e in expected]
    assert [v.code_size_bytes for v in front] \
        == [e["code_size_bytes"] for e in expected]


# ---------------------------------------------------------------------------
# Registry semantics
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_builtins_are_registered(self):
        names = {spec.name for spec in list_scenarios()}
        assert BUILTIN_SCENARIOS <= names

    def test_paper_and_extra_scenario_split(self):
        tags = {spec.name: spec.tags for spec in list_scenarios()
                if spec.name in BUILTIN_SCENARIOS}
        assert sum("paper" in t for t in tags.values()) == 6
        assert sum("custom" in t for t in tags.values()) == 2
        assert sum("extra" in t for t in tags.values()) >= 2

    def test_duplicate_name_rejected(self, registered_tiny):
        with pytest.raises(ScenarioRegistryError, match="already registered"):
            register_scenario(tiny_spec())

    def test_replace_overwrites(self, registered_tiny):
        replacement = tiny_spec().with_(title="Replaced")
        register_scenario(replacement, replace=True)
        assert get_scenario(registered_tiny.name).title == "Replaced"

    def test_unknown_scenario_error(self):
        with pytest.raises(UnknownScenarioError, match="no-such-scenario"):
            get_scenario("no-such-scenario")

    def test_unknown_scenario_error_lists_available(self):
        with pytest.raises(UnknownScenarioError, match="camera-pill"):
            get_scenario("no-such-scenario")

    def test_unregister_returns_spec(self):
        spec = tiny_spec("tiny-unregister")
        register_scenario(spec)
        assert unregister_scenario("tiny-unregister") is spec
        assert unregister_scenario("tiny-unregister") is None

    def test_list_is_sorted(self):
        names = [spec.name for spec in list_scenarios()]
        assert names == sorted(names)


class TestSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ScenarioSpecError, match="kind"):
            ScenarioSpec(name="x", title="x", kind="quantum",
                         platform="gr712rc", csl=TINY_CSL, source=TINY_SOURCE)

    def test_predictable_needs_source(self):
        with pytest.raises(ScenarioSpecError, match="source"):
            ScenarioSpec(name="x", title="x", kind="predictable",
                         platform="gr712rc", csl=TINY_CSL)

    def test_complex_needs_workload(self):
        with pytest.raises(ScenarioSpecError, match="workload"):
            ScenarioSpec(name="x", title="x", kind="complex",
                         platform="apalis-tk1", csl=TINY_CSL)

    def test_unknown_energy_model_rejected(self):
        with pytest.raises(ScenarioSpecError, match="energy model"):
            ScenarioSpec(name="x", title="x", kind="predictable",
                         platform="gr712rc", csl=TINY_CSL, source=TINY_SOURCE,
                         energy_model="vibes")

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ScenarioSpecError, match="scheduler"):
            ScenarioSpec(name="x", title="x", kind="predictable",
                         platform="gr712rc", csl=TINY_CSL, source=TINY_SOURCE,
                         teamplay=BuildOptions(scheduler="random"))

    def test_complex_with_custom_teamplay_still_needs_workload(self):
        # A non-custom baseline needs tasks even when teamplay is custom.
        with pytest.raises(ScenarioSpecError, match="workload"):
            ScenarioSpec(name="x", title="x", kind="complex",
                         platform="apalis-tk1", csl=TINY_CSL,
                         teamplay=BuildOptions(custom=lambda ctx: None))

    def test_custom_kind_needs_custom_run(self):
        with pytest.raises(ScenarioSpecError, match="custom_run"):
            ScenarioSpec(name="x", title="x", kind="custom",
                         platform="gr712rc")

    def test_custom_run_rejected_for_build_kinds(self):
        with pytest.raises(ScenarioSpecError, match="only valid"):
            ScenarioSpec(name="x", title="x", kind="predictable",
                         platform="gr712rc", csl=TINY_CSL, source=TINY_SOURCE,
                         custom_run=lambda ctx: None)

    def test_build_kinds_need_csl(self):
        with pytest.raises(ScenarioSpecError, match="CSL"):
            ScenarioSpec(name="x", title="x", kind="predictable",
                         platform="gr712rc", source=TINY_SOURCE)

    def test_windowless_contract_rejected_for_window_models(self):
        from repro.errors import TeamPlayError
        from repro.scenarios import ScenarioRunner

        csl = ("system bare { task avg { implements moving_average; } "
               "graph { avg; } }")
        spec = tiny_spec("tiny-windowless").with_(
            csl=csl, energy_model="total",
            teamplay=BuildOptions(config=CompilerConfig.baseline()))
        with pytest.raises(TeamPlayError, match="period or deadline"):
            ScenarioRunner().run(spec)


# ---------------------------------------------------------------------------
# Runner + CLI
# ---------------------------------------------------------------------------
class TestRunnerAndCli:
    def test_run_scenario_by_name(self, registered_tiny):
        result = run_scenario(registered_tiny.name)
        assert result.spec is registered_tiny
        assert result.report.deadlines_met
        assert result.teamplay.build.certificate.valid
        summary = result.summary()
        assert summary["name"] == registered_tiny.name
        assert summary["teamplay_energy_j"] > 0

    def test_cli_list_json(self, capsys):
        assert cli_main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = {row["name"] for row in payload["scenarios"]}
        assert BUILTIN_SCENARIOS <= names

    def test_cli_run_json(self, registered_tiny, capsys):
        assert cli_main(["run", registered_tiny.name, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["scenarios"]) == 1
        row = payload["scenarios"][0]
        assert row["name"] == registered_tiny.name
        assert row["deadlines_met"] is True
        assert row["baseline_time_s"] > 0

    def test_cli_run_unknown_scenario(self, capsys):
        assert cli_main(["run", "no-such-scenario"]) == 2
        captured = capsys.readouterr()
        assert "unknown scenario" in captured.err

    def test_cli_run_without_names(self, capsys):
        assert cli_main(["run"]) == 2
        assert "nothing to run" in capsys.readouterr().err

    def test_cli_run_all_with_names_rejected(self, capsys):
        assert cli_main(["run", "--all", "camera-pil"]) == 2
        assert "not both" in capsys.readouterr().err

    def test_json_summary_surfaces_cache_stats(self, registered_tiny,
                                               capsys):
        assert cli_main(["run", registered_tiny.name, "--json"]) == 0
        row = json.loads(capsys.readouterr().out)["scenarios"][0]
        stats = row["cache_stats"]
        assert set(stats) == {"variant", "lowering", "ir_stage", "analysis"}
        for stage in stats.values():
            assert {"hits", "misses", "evictions"} <= set(stage)
        # The run evaluates at least one variant, so the caches saw traffic.
        assert stats["variant"]["misses"] >= 1
        # Every run shares one analysis cache per platform.
        assert stats["analysis"]["shared"] is True

    def test_shared_cache_json_reports_analysis_cache(self, registered_tiny,
                                                      capsys):
        assert cli_main(["run", registered_tiny.name, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenarios"][0]["cache_stats"]["analysis"]["shared"] \
            is True
        # The service's analysis-cache document, as GET /stats serves it.
        analysis = payload["analysis_cache"]
        assert registered_tiny.platform in analysis["platforms"]
        assert analysis["combined"] == analysis["platforms"]
        assert analysis["workers"] == {}
        assert analysis["store"] is None
        assert "cache_store" not in payload

    def test_cli_run_leaves_no_shared_cache_behind(self, registered_tiny,
                                                   tmp_path, capsys):
        # Calling the CLI in-process must not leak its shared cache or its
        # persistent store into whatever runs next in the process.
        assert cli_main(["run", registered_tiny.name, "--json",
                         "--cache-dir", str(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cache_store"]["entries"] > 0
        platform = get_scenario(registered_tiny.name).make_platform()
        assert process_analysis_cache(platform) is None
        assert process_cache_store() is None


# ---------------------------------------------------------------------------
# Custom-kind scenarios: E4 and E5 in the registry sweep
# ---------------------------------------------------------------------------
class TestCustomScenarios:
    def test_uav_pa_mission_through_registry(self):
        result = run_scenario("uav-pa")
        assert result.report is None
        assert result.baseline is None and result.teamplay is None
        # The paper's claim: adaptation completes the mission the static
        # full-detection mode cannot finish.
        assert result.detail.outcome.completed
        assert not result.detail.static_outcome.completed
        summary = result.summary()
        assert summary["kind"] == "custom"
        assert summary["detail"]["adaptive_completed"] is True
        assert summary["detail"]["static_completed"] is False

    def test_uav_pa_matches_usecase_api(self):
        from repro.usecases import uav
        direct = uav.run_pa_mission()
        via_registry = run_scenario("uav-pa").detail
        assert (via_registry.outcome.flight_time_s
                == direct.outcome.flight_time_s)
        assert (via_registry.outcome.final_state_of_charge
                == direct.outcome.final_state_of_charge)
        assert (via_registry.static_outcome.flight_time_s
                == direct.static_outcome.flight_time_s)

    def test_m0_variant_table_through_registry(self):
        from repro.usecases.deep_learning import M0_CONFIGS
        result = run_scenario("parking-dl-m0")
        rows = result.detail
        assert result.report is None
        # One row per (kernel, config, operating point).
        kernels = {row.kernel for row in rows}
        assert kernels == {"conv2d", "matmul"}
        assert {row.config for row in rows} == set(M0_CONFIGS)
        assert len(rows) % (len(kernels) * len(M0_CONFIGS)) == 0
        summary = result.summary()
        assert summary["detail"]["rows"] == len(rows)
        assert set(summary["detail"]["nominal_best"]) == kernels
        for best in summary["detail"]["nominal_best"].values():
            assert best["lowest_energy_uJ"] > 0

    def test_m0_variant_table_builds_each_variant_once(self, monkeypatch):
        """E5 rows stay bit-identical while each kernel function is
        lowered once per effective configuration and every variant is
        costed per operating point by query."""
        from repro.compiler.pipeline import CompilationPipeline
        from repro.usecases.deep_learning import M0_CONFIGS, run_m0_variants
        lowerings = []
        unroll_and_lower = CompilationPipeline.unroll_and_lower

        def counted(pipeline, *args, **kwargs):
            lowerings.append(1)
            return unroll_and_lower(pipeline, *args, **kwargs)

        monkeypatch.setattr(CompilationPipeline, "unroll_and_lower", counted)
        rows = run_m0_variants()
        document = json.dumps([row.as_dict() for row in rows])
        assert len(rows) == 40
        assert hashlib.sha256(document.encode()).hexdigest() == (
            "9bb8f28994902c79fde663cdaa69866bb08e938a1d8025aab76520184faa6511")
        # Each kernel is one function, lowered once per unroll limit that
        # unrolls a different set of its loops: conv2d at 0, 4 and 8;
        # matmul, whose loops all run 8 times, at 0 (shared by 4) and 8.
        assert len(M0_CONFIGS) == 5
        assert len(lowerings) == 5

    def test_m0_variant_builds_reach_the_profile(self, capsys):
        """The E5 table builds through its own compiler; ``--profile``
        still shows its 5 function lowerings."""
        assert cli_main(["run", "parking-dl-m0", "--profile", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        rows = {row["pass"]: row for row in document["pipeline_profile"]}
        assert rows["lower-to-ir"]["invocations"] == 5
        assert "pipeline_stats" in document["scenarios"][0]

    def test_cli_runs_custom_scenario(self, capsys):
        assert cli_main(["run", "uav-pa", "--json"]) == 0
        row = json.loads(capsys.readouterr().out)["scenarios"][0]
        assert row["kind"] == "custom"
        assert row["detail"]["adaptive_completed"] is True


class TestBuiltinLoadRollback:
    def test_failed_builtin_import_rolls_back_and_retries(self, monkeypatch):
        import importlib as importlib_module
        import sys
        import types

        from repro.scenarios import registry as registry_module

        # Simulate a fresh process where the library import blows up after
        # registering one scenario and caching one use-case module.
        saved = dict(registry_module._REGISTRY)
        registry_module._REGISTRY.clear()
        registry_module._builtins_loaded = False
        real_import = importlib_module.import_module
        fake_module = "repro.usecases._rollback_probe"

        def failing_import(name, *args, **kwargs):
            if name == "repro.scenarios.library":
                register_scenario(tiny_spec("tiny-partial"))
                sys.modules[fake_module] = types.ModuleType(fake_module)
                raise RuntimeError("boom")
            return real_import(name, *args, **kwargs)

        try:
            monkeypatch.setattr(registry_module.importlib, "import_module",
                                failing_import)
            with pytest.raises(RuntimeError, match="boom"):
                list_scenarios()
            # Rollback: the partial registration is gone AND the use-case
            # module cached during the failed attempt was evicted, so a
            # retry re-executes registration instead of silently skipping
            # the cached module bodies.
            assert not registry_module._REGISTRY.get("tiny-partial")
            assert fake_module not in sys.modules
            with pytest.raises(RuntimeError, match="boom"):
                list_scenarios()
            assert fake_module not in sys.modules
        finally:
            sys.modules.pop(fake_module, None)
            registry_module._REGISTRY.clear()
            registry_module._REGISTRY.update(saved)
            registry_module._builtins_loaded = True
        assert {s.name for s in list_scenarios()} >= BUILTIN_SCENARIOS


# ---------------------------------------------------------------------------
# Golden parity: refactored drivers == pre-refactor pipelines, bit for bit
# ---------------------------------------------------------------------------
class TestCameraPillParity:
    @pytest.fixture(scope="class")
    def comparison(self):
        from repro.usecases import camera_pill
        return camera_pill.run_comparison()

    def test_report_bit_identical(self, comparison):
        assert_report_matches(comparison.report,
                              golden("camera_pill_e1.json")["report"])

    def test_radio_energy_and_certificate(self, comparison):
        expected = golden("camera_pill_e1.json")
        assert (comparison.radio_energy_per_frame_j
                == expected["radio_energy_per_frame_j"])
        assert comparison.certificate_valid == expected["certificate_valid"]

    def test_selected_variant_and_front(self, comparison):
        expected = golden("camera_pill_e1.json")
        assert (comparison.teamplay.variant.config.short_name()
                == expected["selected_config"])
        assert_front_matches(comparison.teamplay.pareto_front,
                             expected["pareto_front"])


class TestSpaceParity:
    @pytest.fixture(scope="class")
    def comparison(self):
        from repro.usecases import space
        return space.run_comparison()

    def test_report_bit_identical(self, comparison):
        assert_report_matches(comparison.report,
                              golden("space_e2.json")["report"])

    def test_energy_split_bit_identical(self, comparison):
        expected = golden("space_e2.json")
        assert (comparison.baseline_energy_per_period_j
                == expected["baseline_energy_per_period_j"])
        assert (comparison.teamplay_energy_per_period_j
                == expected["teamplay_energy_per_period_j"])
        assert (comparison.spacewire_energy_per_period_j
                == expected["spacewire_energy_per_period_j"])

    def test_dynamic_validation_matches(self, comparison):
        expected = golden("space_e2.json")
        assert (comparison.executive_log.deadline_misses
                == expected["deadline_misses"])
        assert comparison.all_deadlines_met == expected["all_deadlines_met"]

    def test_selected_variant_and_front(self, comparison):
        expected = golden("space_e2.json")
        assert (comparison.teamplay.variant.config.short_name()
                == expected["selected_config"])
        assert_front_matches(comparison.teamplay.pareto_front,
                             expected["pareto_front"])


class TestUavSarParity:
    @pytest.fixture(scope="class")
    def comparison(self):
        from repro.usecases import uav
        return uav.run_sar_comparison()

    def test_report_bit_identical(self, comparison):
        assert_report_matches(comparison.report,
                              golden("uav_sar_e3.json")["report"])

    def test_power_and_flight_time_bit_identical(self, comparison):
        expected = golden("uav_sar_e3.json")
        assert (comparison.baseline_software_power_w
                == expected["baseline_software_power_w"])
        assert (comparison.teamplay_software_power_w
                == expected["teamplay_software_power_w"])
        assert (comparison.baseline_flight_time_s
                == expected["baseline_flight_time_s"])
        assert (comparison.teamplay_flight_time_s
                == expected["teamplay_flight_time_s"])
        assert comparison.flight_time_gain_s == expected["flight_time_gain_s"]


class TestParkingTk1Parity:
    @pytest.fixture(scope="class")
    def comparison(self):
        from repro.usecases import deep_learning
        return deep_learning.run_tk1_comparison()

    def test_report_bit_identical(self, comparison):
        assert_report_matches(comparison.report,
                              golden("parking_tk1_e6.json")["report"])

    def test_energies_and_ratios_bit_identical(self, comparison):
        expected = golden("parking_tk1_e6.json")
        assert comparison.teamplay_energy_j == expected["teamplay_energy_j"]
        assert comparison.manual_energy_j == expected["manual_energy_j"]
        assert comparison.energy_ratio == expected["energy_ratio"]
        assert comparison.time_ratio == expected["time_ratio"]


class TestEcgWearableParity:
    """The extra scenario whose TeamPlay side analyses path-sensitively.

    Its golden pins the comparison *with* infeasible-path pruning enabled:
    the selected configuration carries the ``paths`` flag and the pruning
    counters reproduce exactly (wall time excluded — nondeterministic).
    """

    @pytest.fixture(scope="class")
    def result(self):
        from repro.scenarios.runner import run_scenario
        return run_scenario("ecg-wearable")

    def test_report_bit_identical(self, result):
        assert_report_matches(result.report,
                              golden("ecg_wearable.json")["report"])

    def test_selected_configs_carry_analysis_mode(self, result):
        expected = golden("ecg_wearable.json")
        assert (result.teamplay.build.variant.config.short_name()
                == expected["selected_config"])
        assert (result.baseline.build.variant.config.short_name()
                == expected["baseline_config"])
        assert result.teamplay.build.variant.config.path_sensitive
        assert not result.baseline.build.variant.config.path_sensitive

    def test_path_counters_reproduce(self, result):
        expected = golden("ecg_wearable.json")["path_counters"]
        analysis = result.cache_stats["analysis"]
        assert {key: analysis[key] for key in expected} == expected
        # The synthetic profile row mirrors the same counters.
        row = result.pipeline_stats["path-feasibility"]
        assert row["stage"] == "analysis"
        assert row["invocations"] == expected["path_units"]
        assert row["paths_enumerated"] == expected["paths_enumerated"]
