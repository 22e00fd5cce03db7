"""The unified compilation pipeline: pass manager, build keys, routing.

Covers the declarative pass list (registration, ordering, enablement), the
pass-list-derived build and variant keys the engine caches use, the per-pass
wall-time/invocation counters, and end-to-end equivalence: compiling
through the engine's staged caches produces bit-for-bit the variants of
the uncached reference build (``CompilationPipeline.build`` + the stock
analysers), in both analysis modes.
"""

import json

import pytest

from oracles import build_program, evaluate_config
from repro.compiler.config import CompilerConfig
from repro.compiler.driver import MultiCriteriaCompiler
from repro.compiler.engine import EvaluationEngine, program_fingerprint
from repro.compiler.pipeline import (
    ANALYSIS_PASS,
    PARSE_PASS,
    STAGES,
    CompilationPipeline,
    Pass,
    PassContext,
    PassManager,
    default_compile_passes,
    profile_rows,
    render_profile,
)
from repro.counters import sum_counters
from repro.errors import CompilationError
from repro.frontend.parser import parse
from repro.hw.presets import nucleo_stm32f091rc, platform_by_name
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import BuildOptions, ScenarioSpec
from repro.usecases import camera_pill

CONFIGS = [
    CompilerConfig.baseline(),
    CompilerConfig.performance(),
    CompilerConfig.baseline().with_(unroll_limit=8),
    CompilerConfig.performance().with_(spm_allocation=False),
    CompilerConfig.baseline().with_(harden_security=True),
    CompilerConfig.performance().with_(strength_reduction=False,
                                       dead_code_elimination=False),
    CompilerConfig.baseline().with_(enable_cse=True),
    CompilerConfig.baseline().with_(enable_peephole=True),
    CompilerConfig.performance().with_(enable_cse=True,
                                       enable_peephole=True),
    CompilerConfig.baseline().with_(path_sensitive=True),
    CompilerConfig.performance().with_(path_sensitive=True),
]

#: The WP1 guard-heavy kernel (``benchmarks/test_bench_wcet_paths.py``) as a
#: TeamPlay task: per iteration at most one of the range guards on ``gain``
#: can hold, so infeasible-path pruning tightens its bound.
GUARDED_TASK_SOURCE = """
int samples[64];

#pragma teamplay task(t)
int task(int gain) {
    int acc = 0;
    for (int i = 0; i < 64; i = i + 1) {
        int value = samples[i];
        if (gain > 12) {
            acc = acc + value * gain;
            acc = acc + (value >> 2) * 3;
            acc = acc + gain * 5;
        }
        if (gain < 4) {
            acc = acc - value * gain;
            acc = acc - (value >> 1) * 7;
            acc = acc + gain * 9;
            acc = acc - i;
        }
        if (gain == 8) {
            acc = acc + value + i;
            acc = acc + value * 11;
        }
        if (gain > 20) {
            acc = acc + value * 13;
        }
        if (gain < 0) {
            acc = acc - value * 17;
            acc = acc - gain;
        }
    }
    return acc;
}
"""


#: A secret function with a counted loop over an inlinable helper, so each
#: narrowed key contribution (hardening, unrolling) has something to read.
KEY_SOURCE = """
int helper(int x) { return x * 4 + 1; }

#pragma teamplay secret(key)
int kernel(int key) {
    int acc = 0;
    for (int i = 0; i < 8; i = i + 1) { acc = acc + helper(i) * key; }
    return acc;
}
"""


def chain_keys(manager, config, function):
    """``function``'s key after the AST steps, the lowering step and the
    IR steps of its build chain, derived by ``step_key`` as the engine
    derives it, but from the parsed function at every step, reading no
    callees, and as if every step changed the function."""
    keys, key, memo = {}, (function.name,), {}
    for stage in ("ast", "lower", "ir"):
        for registered in manager.steps(stage):
            if registered.enabled(config):
                key = manager.step_key(config, registered, key, function,
                                       memo)
        keys[stage] = key
    return keys


@pytest.fixture(scope="module")
def platform():
    return platform_by_name("camera-pill")


@pytest.fixture(scope="module")
def module():
    return parse(camera_pill.CAMERA_PILL_SOURCE)


# ---------------------------------------------------------------------------
# Pass manager: registry and ordering
# ---------------------------------------------------------------------------
class TestPassManager:
    def test_default_pass_list_is_stage_ordered(self):
        manager = PassManager()
        names = [p.name for p in manager.passes()]
        assert names[0] == PARSE_PASS
        assert names[-1] == ANALYSIS_PASS
        ranks = [STAGES.index(p.stage) for p in manager.passes()]
        assert ranks == sorted(ranks)

    def test_passes_filter_by_stage(self):
        manager = PassManager()
        assert {p.name for p in manager.passes("ir")} \
            == {"common-subexpression-elimination", "dead-code-elimination",
                "strength-reduction", "peephole", "path-feasibility"}

    def test_unknown_pass_and_stage_raise(self):
        manager = PassManager()
        with pytest.raises(CompilationError):
            manager.pass_named("no-such-pass")
        with pytest.raises(CompilationError):
            manager.steps("no-such-stage")
        with pytest.raises(ValueError):
            Pass("bad", "no-such-stage")

    def test_reads_callees_outside_the_inline_segment_raises(self):
        # Callee bodies are read only from inlining up to unrolling: an
        # IR pass is given none, so anywhere else the declaration is
        # refused rather than silently ignored.
        def reader(name, stage):
            return Pass(name, stage, lambda ctx: None,
                        reads_callees=lambda callee: True)

        manager = PassManager()
        with pytest.raises(CompilationError, match="read callees"):
            manager.register(reader("early", "ast"),
                             before="inline-simple-functions")
        with pytest.raises(CompilationError, match="read callees"):
            manager.register(reader("late", "ast"), after="unroll-loops")
        with pytest.raises(CompilationError, match="read callees"):
            PassManager([reader("ir-reader", "ir")])
        assert [p.name for p in manager.passes()] \
            == [p.name for p in PassManager().passes()]
        manager.register(reader("reader", "ast"),
                         after="inline-simple-functions")
        assert manager.pass_named("reader") in manager.steps("ast")

    def test_register_defaults_to_end_of_stage(self):
        manager = PassManager()
        manager.register(Pass("extra-ir", "ir", lambda ctx: None))
        names = [p.name for p in manager.passes()]
        assert names.index("extra-ir") == names.index("path-feasibility") + 1
        assert names.index("extra-ir") < names.index("spm-allocation")

    def test_register_with_anchors(self):
        manager = PassManager()
        manager.register(Pass("pre-dce", "ir", lambda ctx: None),
                         before="dead-code-elimination")
        manager.register(Pass("post-dce", "ir", lambda ctx: None),
                         after="dead-code-elimination")
        names = [p.name for p in manager.passes("ir")]
        assert names == ["common-subexpression-elimination", "pre-dce",
                         "dead-code-elimination", "post-dce",
                         "strength-reduction", "peephole",
                         "path-feasibility"]

    def test_register_rejects_stage_disorder_and_duplicates(self):
        manager = PassManager()
        with pytest.raises(CompilationError):
            manager.register(Pass("too-late", "ast", lambda ctx: None),
                             after="strength-reduction")
        with pytest.raises(CompilationError):
            manager.register(Pass("lower-to-ir", "lower", lambda ctx: None))
        with pytest.raises(CompilationError):
            manager.register(Pass("both", "ir", lambda ctx: None),
                             before="strength-reduction",
                             after="dead-code-elimination")
        # Failed registrations must not corrupt the pass list.
        assert [p.name for p in PassManager().passes()] \
            == [p.name for p in manager.passes()]

    def test_marker_pass_rejects_run(self):
        manager = PassManager()
        ctx = PassContext(config=CompilerConfig.baseline())
        with pytest.raises(CompilationError):
            manager.run(PARSE_PASS, ctx)


# ---------------------------------------------------------------------------
# Build and variant keys: derived from the pass list
# ---------------------------------------------------------------------------
class TestStageKeys:
    def test_registered_pass_widens_downstream_keys(self):
        manager = PassManager()
        base = CompilerConfig.baseline()
        tweaked = base.with_(unroll_limit=4)
        # A hypothetical IR pass keyed on the unroll limit: the IR-step
        # and canonical keys widen.  The function has no loop and nothing
        # to fold, so unrolling leaves it alone and its key after
        # lowering stays shared.
        manager.register(Pass(
            "unroll-aware-ir", "ir", lambda ctx: None,
            cache_key=lambda config: ("unroll-aware", config.unroll_limit)))
        function = parse("int f(int a) { return a * 3; }").functions[0]
        keys = chain_keys(manager, base, function)
        tweaked_keys = chain_keys(manager, tweaked, function)
        assert "unroll-aware" in keys["ir"]
        assert "unroll-aware" in manager.canonical_key(base)
        assert keys["ir"] != tweaked_keys["ir"]
        assert keys["lower"] == tweaked_keys["lower"]

    def test_disabled_pass_still_contributes_its_key(self):
        # Enablement is *part of the key* (the flag value), so enabled and
        # disabled configurations never alias.
        manager = PassManager()
        on = CompilerConfig.baseline().with_(dead_code_elimination=True)
        off = on.with_(dead_code_elimination=False)
        for function in parse(KEY_SOURCE).functions:
            assert chain_keys(manager, on, function)["ir"] \
                != chain_keys(manager, off, function)["ir"]
        assert manager.canonical_key(on) != manager.canonical_key(off)


# ---------------------------------------------------------------------------
# Execution: enablement, counters, ad-hoc timing
# ---------------------------------------------------------------------------
class TestExecutionAndStats:
    def test_run_respects_enablement_and_counts(self, platform, module):
        pipeline = CompilationPipeline(platform)
        config = CompilerConfig.baseline().with_(constant_folding=False)
        working, statistics = pipeline.pre_unroll(module, config)
        assert "constant_folds" not in statistics
        stats = pipeline.stats()
        assert "constant-folding" not in stats
        assert stats["loop-bound-inference"]["invocations"] == 1
        assert stats["loop-bound-inference"]["stage"] == "ast"
        assert stats["loop-bound-inference"]["wall_s"] >= 0.0

    def test_timed_blocks_accumulate(self, platform):
        manager = PassManager(passes=())
        for _ in range(3):
            with manager.timed("profile", stage="profiling"):
                pass
        stats = manager.stats()
        assert stats["profile"]["invocations"] == 3
        assert stats["profile"]["stage"] == "profiling"
        manager.reset_stats()
        assert manager.stats() == {}

    def test_timed_without_stage_needs_a_registered_pass(self):
        manager = PassManager(passes=())
        with pytest.raises(CompilationError):
            with manager.timed("parse"):
                pass


# ---------------------------------------------------------------------------
# End-to-end equivalence: staged engine == uncached reference build
# ---------------------------------------------------------------------------
class TestPipelineEquivalence:
    def test_build_matches_staged_engine_build(self, platform, module):
        pipeline = CompilationPipeline(platform)
        engine = EvaluationEngine(module, platform, ["frame_packet"])
        for config in CONFIGS:
            expected_program, expected_stats = engine._build(config)
            program, statistics = build_program(pipeline, module, config)
            assert statistics == expected_stats
            assert program_fingerprint(program) \
                == program_fingerprint(expected_program)

    def test_driver_variants_match_reference(self, platform, module):
        compiler = MultiCriteriaCompiler(platform)
        for source_module, entry in ((module, "frame_packet"),
                                     (parse(GUARDED_TASK_SOURCE), "task")):
            for config in CONFIGS:
                via_pipeline = compiler.compile(source_module, entry, config)
                reference = evaluate_config(source_module, config, platform,
                                            entry)
                assert via_pipeline.wcet_cycles == reference.wcet_cycles
                assert via_pipeline.wcet_time_s == reference.wcet_time_s
                assert via_pipeline.energy_j == reference.energy_j
                assert via_pipeline.code_size_bytes \
                    == reference.code_size_bytes
                assert via_pipeline.pass_statistics \
                    == reference.pass_statistics

    def test_ets_rows_use_the_variant_analysis_mode(self):
        board = nucleo_stm32f091rc()
        compiler = MultiCriteriaCompiler(board)
        config = CompilerConfig(path_sensitive=True)
        variant = compiler.compile(GUARDED_TASK_SOURCE, "task", config)
        row = compiler.task_properties(variant)["t"]
        assert row["wcet_cycles"] == variant.wcet_cycles == 10713
        assert row["energy_j"] == variant.energy_j
        # The structural bound of the same program is looser: the row above
        # really comes from the pruned analysis.
        structural = compiler.compile(GUARDED_TASK_SOURCE, "task",
                                      config.with_(path_sensitive=False))
        assert structural.wcet_cycles > row["wcet_cycles"]

    def test_driver_reports_pipeline_stats(self, platform):
        compiler = MultiCriteriaCompiler(platform)
        compiler.compile(camera_pill.CAMERA_PILL_SOURCE, "frame_packet",
                         CompilerConfig.performance())
        stats = compiler.pipeline_stats()
        for name in (PARSE_PASS, "lower-to-ir", "dead-code-elimination",
                     "spm-allocation", ANALYSIS_PASS):
            assert stats[name]["invocations"] >= 1
        # Cache-served revisits add no pass invocations.
        before = stats["lower-to-ir"]["invocations"]
        compiler.compile(camera_pill.CAMERA_PILL_SOURCE, "frame_packet",
                         CompilerConfig.performance())
        assert compiler.pipeline_stats()["lower-to-ir"]["invocations"] \
            == before

    def test_custom_registered_pass_runs_in_engine_builds(self, platform,
                                                          module):
        compiler = MultiCriteriaCompiler(platform)
        seen = []
        compiler.pipeline.manager.register(Pass(
            "observer", "ir", lambda ctx: seen.extend(ctx.program.functions)))
        # The stage methods iterate the registered pass list, so the
        # observer executes inside the engine-cached build and lands in
        # the same stats table as the stock passes.
        compiler.compile(module, "frame_packet", CompilerConfig.baseline())
        assert seen
        stats = compiler.pipeline_stats()
        assert stats["observer"]["stage"] == "ir"
        assert stats["observer"]["invocations"] >= 1
        # A cache-served revisit of the same configuration runs it again
        # nowhere.
        compiler.compile(module, "frame_packet", CompilerConfig.baseline())
        assert compiler.pipeline_stats()["observer"]["invocations"] \
            == stats["observer"]["invocations"]

    def test_function_local_custom_pass_runs_per_function(self, platform,
                                                          module):
        # Every pass is function-local: the observer runs once per
        # function, on a program holding only that function.
        compiler = MultiCriteriaCompiler(platform)
        seen = []
        compiler.pipeline.manager.register(Pass(
            "observer", "ir", lambda ctx: seen.extend(ctx.program.functions)))
        names = module.function_names()
        first = compiler.compile(module, "frame_packet",
                                 CompilerConfig.baseline())
        assert seen == names
        assert compiler.pipeline_stats()["observer"]["invocations"] \
            == len(names)
        # A configuration that changes only another pass's flag lowers
        # nothing again, and the observer re-runs exactly on the functions
        # that pass (CSE) changed: the others reach the observer's step
        # under their old key, as the same function objects.
        second = compiler.compile(
            module, "frame_packet",
            CompilerConfig.baseline().with_(enable_cse=True))
        changed = [name for name in names
                   if second.program.functions[name]
                   is not first.program.functions[name]]
        assert changed == ["filter_frame", "compress_frame"]
        assert seen == names + changed
        assert compiler.pipeline_stats()["observer"]["invocations"] \
            == len(names) + len(changed)
        assert compiler.pipeline_stats()["lower-to-ir"]["invocations"] \
            == len(names)

    def test_custom_ast_pass_respects_unroll_split(self, platform, module):
        # A custom AST pass registered before unroll-loops runs in
        # pre_unroll; one registered after runs in unroll_and_lower.
        pipeline = CompilationPipeline(platform)
        order = []
        pipeline.manager.register(
            Pass("pre-probe", "ast", lambda ctx: order.append("pre")),
            before="unroll-loops")
        pipeline.manager.register(
            Pass("post-probe", "ast", lambda ctx: order.append("post")),
            after="unroll-loops")
        config = CompilerConfig.baseline().with_(unroll_limit=4)
        working, statistics = pipeline.pre_unroll(module, config)
        assert order == ["pre"]
        pipeline.unroll_and_lower(working, config, statistics)
        assert order == ["pre", "post"]


# ---------------------------------------------------------------------------
# Scenario surface: per-run pipeline stats
# ---------------------------------------------------------------------------
class TestScenarioSurface:
    def test_predictable_run_carries_pipeline_stats(self):
        spec = ScenarioSpec(
            name="pipe-tiny", title="pipeline stats probe",
            kind="predictable", platform="nucleo-stm32f091rc",
            source="""
#pragma teamplay task(t) poi(t)
int work(int x) {
    int acc = 0;
    for (int i = 0; i < 4; i = i + 1) { acc = acc + x; }
    return acc;
}
""",
            csl="""
system probe {
    period 10 ms;
    deadline 10 ms;
    task t { implements work; budget time 5 ms; budget energy 50 uJ; }
    graph { t; }
}
""",
            baseline=BuildOptions(config=CompilerConfig.baseline()),
            teamplay=BuildOptions(generations=1, population_size=2),
        )
        result = run_scenario(spec)
        stats = result.pipeline_stats
        assert stats is not None
        assert stats[PARSE_PASS]["invocations"] >= 1
        assert stats["csl-parse"]["invocations"] >= 1
        assert stats[ANALYSIS_PASS]["invocations"] >= 1
        row = result.summary()
        assert row["pipeline_stats"] == stats


# ---------------------------------------------------------------------------
# New IR passes: enablement, stage keys, cache widening via miss counters
# ---------------------------------------------------------------------------
PROFILED_SOURCE = """
#pragma teamplay task(t) poi(t)
int work(int a, int b) {
    int acc = 0;
    for (int i = 0; i < 4; i = i + 1) {
        acc = acc + a / b;
        acc = acc - a / b + (i - i);
    }
    return acc;
}
"""

PROFILED_CSL = """
system probe {
    period 10 ms;
    deadline 10 ms;
    task t { implements work; budget time 5 ms; budget energy 50 uJ; }
    graph { t; }
}
"""


def profiled_spec(name: str = "pipe-profiled") -> ScenarioSpec:
    """A tiny scenario whose pinned configs enable CSE and peephole."""
    tuned = CompilerConfig.baseline().with_(enable_cse=True,
                                            enable_peephole=True)
    return ScenarioSpec(
        name=name, title="CSE/peephole probe", kind="predictable",
        platform="nucleo-stm32f091rc",
        source=PROFILED_SOURCE, csl=PROFILED_CSL,
        baseline=BuildOptions(config=CompilerConfig.baseline()),
        teamplay=BuildOptions(config=tuned),
    )


class TestNewIrPasses:
    def test_stats_report_only_enabled_passes(self, platform, module):
        pipeline = CompilationPipeline(platform)
        program, _ = build_program(pipeline, module,
                                   CompilerConfig.baseline())
        stats = pipeline.stats()
        assert "common-subexpression-elimination" not in stats
        assert "peephole" not in stats
        build_program(pipeline, module, CompilerConfig.baseline().with_(
            enable_cse=True, enable_peephole=True))
        stats = pipeline.stats()
        assert stats["common-subexpression-elimination"]["invocations"] == 1
        assert stats["common-subexpression-elimination"]["stage"] == "ir"
        assert stats["peephole"]["invocations"] == 1
        assert stats["peephole"]["stage"] == "ir"

    def test_new_flags_widen_ir_but_not_lowering_keys(self, module):
        manager = PassManager()
        base = CompilerConfig.baseline()
        for tweaked in (base.with_(enable_cse=True),
                        base.with_(enable_peephole=True)):
            for function in module.functions:
                keys = chain_keys(manager, base, function)
                tweaked_keys = chain_keys(manager, tweaked, function)
                assert keys["lower"] == tweaked_keys["lower"]
                assert keys["ir"] != tweaked_keys["ir"]
            assert manager.canonical_key(base) \
                != manager.canonical_key(tweaked)

    def test_cache_widening_observable_in_miss_counters(self, platform,
                                                        module):
        from repro.compiler.engine import EvaluationEngine
        engine = EvaluationEngine(module, platform, ["frame_packet"])
        base = CompilerConfig.baseline()
        baseline = engine.evaluate(base)
        with_cse = engine.evaluate(base.with_(enable_cse=True))
        engine.evaluate(base.with_(enable_cse=True, enable_peephole=True))
        stats = engine.stats()
        # The counters count function builds.  Each function is lowered
        # once (the new flags live after the lower stage)...
        functions = len(module.functions)
        assert stats["lowering"]["misses"] == functions
        assert stats["lowering"]["hits"] == 2 * functions
        # ...and IR-passed once per distinct (input, pass) step: DCE on
        # every lowered function, CSE on every one, DCE again on the two
        # functions CSE changed (the others reach it under their lowered
        # key, a hit), and the peephole pass on every function.
        changed = [name for name in module.function_names()
                   if with_cse.program.functions[name]
                   is not baseline.program.functions[name]]
        assert changed == ["filter_frame", "compress_frame"]
        assert stats["ir_stage"]["misses"] == 3 * functions + len(changed)
        assert stats["variant"]["misses"] == 3
        # Revisiting an already-seen point stays a pure variant-cache hit.
        engine.evaluate(base.with_(enable_cse=True))
        assert engine.stats()["variant"]["hits"] == 1
        assert engine.stats()["ir_stage"]["misses"] \
            == 3 * functions + len(changed)

    def test_enabled_passes_are_noops_without_opportunities(self, platform):
        # A program with nothing to CSE or fold builds bit-identically with
        # the new passes on — enabling them is safe, not just gated.
        from repro.compiler.engine import program_fingerprint
        source = "int work(int a, int b) { return a / b; }"
        module = parse(source)
        pipeline = CompilationPipeline(platform)
        base = CompilerConfig.baseline()
        tuned = base.with_(enable_cse=True, enable_peephole=True)
        base_program, _ = build_program(pipeline, module, base)
        tuned_program, stats = build_program(pipeline, module, tuned)
        assert stats["cse_replacements"] == 0
        assert stats["peephole_rewrites"] == 0
        assert program_fingerprint(tuned_program) \
            == program_fingerprint(base_program)


# ---------------------------------------------------------------------------
# The --profile view: aggregation, rendering, CLI and service surfaces
# ---------------------------------------------------------------------------
class TestProfileView:
    def test_profile_rows_derive_share_and_average(self):
        totals = {
            "parse": {"stage": "frontend", "invocations": 4, "wall_s": 1.0},
            "analysis": {"stage": "analysis", "invocations": 2,
                         "wall_s": 3.0},
        }
        rows = profile_rows(totals)
        assert [row["pass"] for row in rows] == ["parse", "analysis"]
        assert rows[0]["avg_ms"] == pytest.approx(250.0)
        assert rows[0]["share_pct"] == pytest.approx(25.0)
        assert rows[1]["share_pct"] == pytest.approx(75.0)
        assert sum(row["share_pct"] for row in rows) == pytest.approx(100.0)

    def test_rows_order_by_stage_then_wall_time(self):
        totals = {
            "analysis": {"stage": "analysis", "invocations": 1, "wall_s": 9.0},
            "strength-reduction": {"stage": "ir", "invocations": 1,
                                   "wall_s": 0.2},
            "dead-code-elimination": {"stage": "ir", "invocations": 1,
                                      "wall_s": 0.4},
            "parse": {"stage": "frontend", "invocations": 1, "wall_s": 0.1},
            "schedule": {"stage": "coordination", "invocations": 1,
                         "wall_s": 0.1},
        }
        assert [row["pass"] for row in profile_rows(totals)] == [
            "parse", "dead-code-elimination", "strength-reduction",
            "analysis", "schedule"]

    def test_aggregate_skips_missing_snapshots(self):
        snapshot = {"parse": {"stage": "frontend", "invocations": 1,
                              "wall_s": 0.5}}
        totals = {}
        for each in (snapshot, None, snapshot):
            sum_counters(totals, each)
        assert totals["parse"]["invocations"] == 2
        assert totals["parse"]["wall_s"] == pytest.approx(1.0)

    def test_render_profile_contains_rows_and_total(self):
        totals = {"parse": {"stage": "frontend", "invocations": 2,
                            "wall_s": 0.25}}
        text = render_profile(totals, title="probe profile")
        assert text.splitlines()[0] == "probe profile"
        assert "parse" in text and "frontend" in text
        assert "total wall time: 250.00 ms" in text
        assert render_profile({}).startswith("pipeline profile: no")

    def test_scenario_run_profiles_both_new_passes(self):
        result = run_scenario(profiled_spec())
        stats = result.pipeline_stats
        assert stats["common-subexpression-elimination"]["invocations"] >= 1
        assert stats["peephole"]["invocations"] >= 1
        text = render_profile(sum_counters({}, stats))
        assert "common-subexpression-elimination" in text
        assert "peephole" in text

    def test_cli_run_profile_renders_table(self, capsys):
        from repro.scenarios.__main__ import main as cli_main
        from repro.scenarios.registry import (
            register_scenario,
            unregister_scenario,
        )
        spec = profiled_spec("pipe-cli-profile")
        register_scenario(spec)
        try:
            assert cli_main(["run", spec.name, "--profile"]) == 0
            out = capsys.readouterr().out
            assert "pipeline profile (aggregated over 1 scenario run(s))" \
                in out
            assert "common-subexpression-elimination" in out
            assert "peephole" in out

            assert cli_main(["run", spec.name, "--profile", "--json"]) == 0
            document = json.loads(capsys.readouterr().out)
            passes = {row["pass"] for row in document["pipeline_profile"]}
            assert {"common-subexpression-elimination", "peephole",
                    PARSE_PASS, ANALYSIS_PASS} <= passes
        finally:
            unregister_scenario(spec.name)

    def test_service_stats_aggregate_new_pass_timings(self):
        from repro.scenarios.registry import (
            register_scenario,
            unregister_scenario,
        )
        from repro.service import EvaluationService
        spec = profiled_spec("pipe-service-profile")
        register_scenario(spec)
        try:
            with EvaluationService(workers=1) as service:
                service.result(service.submit(spec.name), timeout=120)
                pipeline_doc = service.stats()["pipeline"]
                assert pipeline_doc["jobs_reported"] == 1
                passes = pipeline_doc["passes"]
                assert passes["common-subexpression-elimination"][
                    "invocations"] >= 1
                assert passes["peephole"]["invocations"] >= 1
                profile_passes = {row["pass"]
                                  for row in pipeline_doc["profile"]}
                assert "common-subexpression-elimination" in profile_passes
                assert "peephole" in profile_passes
        finally:
            unregister_scenario(spec.name)


# ---------------------------------------------------------------------------
# Extended search space: the optimisers explore the new axes on request
# ---------------------------------------------------------------------------
class TestExtendedSearchSpace:
    def test_gene_roundtrip_extended(self):
        config = CompilerConfig.performance().with_(enable_cse=True,
                                                    enable_peephole=True)
        decoded = CompilerConfig.from_genes(config.to_genes(extended=True))
        assert decoded == config
        # The base encoding drops the new axes (decoding leaves them off).
        rebased = CompilerConfig.from_genes(config.to_genes())
        assert not rebased.enable_cse and not rebased.enable_peephole

    def test_gene_length_and_validation(self):
        assert CompilerConfig.gene_length() == 7
        assert CompilerConfig.gene_length(extended=True) == 10
        # Only the 7- and 10-gene spaces decode.
        with pytest.raises(ValueError):
            CompilerConfig.from_genes([0.75] * 9)
        with pytest.raises(ValueError):
            CompilerConfig.from_genes([0.5] * 8)

    def test_base_space_searches_never_touch_new_axes(self, platform,
                                                      module):
        compiler = MultiCriteriaCompiler(platform)
        front = compiler.explore(module, "frame_packet", optimizer="fpa",
                                 population_size=4, generations=2)
        assert front.variants
        assert all(not v.config.enable_cse and not v.config.enable_peephole
                   for v in front.variants)

    def test_extended_space_search_explores_new_axes(self, platform, module):
        compiler = MultiCriteriaCompiler(platform)
        engine = compiler._engine(module, "frame_packet", False)
        compiler.explore(module, "frame_packet", optimizer="fpa",
                         population_size=6, generations=2,
                         extended_space=True)
        seen = [key for key in engine.variants._variants]
        # The canonical key's last three elements are the extended axes
        # (CSE, peephole, path-sensitive analysis); the extended search
        # must have sampled at least one enabled value.
        assert any(key[-3] or key[-2] or key[-1] for key in seen)

    def test_exhaustive_grid_crosses_new_axes_on_request(self, platform,
                                                         module):
        compiler = MultiCriteriaCompiler(platform)
        base = compiler.explore(module, "frame_packet",
                                optimizer="exhaustive")
        extended = compiler.explore(module, "frame_packet",
                                    optimizer="exhaustive",
                                    extended_space=True)
        assert extended.evaluations == base.evaluations * 4
        assert all(not v.config.enable_cse and not v.config.enable_peephole
                   for v in base.variants)

    def test_extended_space_matches_base_when_axes_decode_off(self, platform,
                                                              module):
        # Same 7 leading genes -> same configuration when bits 8-10 are low.
        genes = [0.75, 0.1, 0.25, 0.75, 0.25, 0.25, 0.25]
        base = CompilerConfig.from_genes(genes)
        extended = CompilerConfig.from_genes(genes + [0.25, 0.25, 0.25])
        assert base == extended
