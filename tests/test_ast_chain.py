"""The AST half of the build chain: each AST pass runs once per distinct
input, and each function is lowered once per distinct AST.

The evaluation engine builds a function as one chain of steps: one per
enabled AST pass (loop-bound inference, hardening, folding, inlining,
unrolling with its folding round), one lowering step and one per enabled
IR pass, each cached under ``PassManager.step_key``, the AST steps in
``BuildCache.tables["ast"]``.  A step whose pass changed nothing hands on
its input key and the input module itself, so the lowering and the whole
IR chain after it are shared with the configurations that skipped the
pass (``tests/test_ir_chain.py`` pins the IR steps).  "Changed" is read
off the counters the pass reported.  A pass whose key contribution says
it leaves the function as it is (hardening a function without a
``secret`` pragma, unrolling that unrolls nothing and refolds nothing,
inlining that reads no callee) does not run at all.  These checks pin:

* the counter contract the chain reads: every AST pass's counters are 0
  exactly when the AST it returns ``==`` its input, and lowering leaves
  the AST it reads ``==`` to before (the engine lowers the shared AST);
* a fold step that folds nothing returns the input key and object;
* hardening never runs on a function without a ``secret`` pragma;
* an unroll limit that unrolls nothing shares its lowered entry with
  ``unroll_limit=0``, and lowering reads the AST inlining handed on,
  uncloned;
* unrolling's narrowed key is memoised per input, and inlining that
  reads no callee does not run;
* the lowering and IR-step miss counts of one fixed search.

``tests/test_function_builds.py`` holds the chain's builds to the
uncached ``build_program`` oracle.
"""

from __future__ import annotations

from hypothesis import example, given, settings

from test_function_builds import sources
from test_unroll_stamping import IR_PIN_SOURCES

from repro.compiler.config import UNROLL_CHOICES, CompilerConfig
from repro.compiler.driver import MultiCriteriaCompiler
from repro.compiler.engine import EvaluationEngine
from repro.compiler.pipeline import CompilationPipeline, passes
from repro.errors import TeamPlayError
from repro.frontend import ast_nodes as ast
from repro.frontend.lowering import lower_module
from repro.frontend.parser import parse
from repro.hw.presets import nucleo_stm32f091rc
from repro.scenarios.library import ECG_SOURCE
from repro.security import ciphers

PLATFORM = nucleo_stm32f091rc()

#: Both counted AST passes on, so the chain runs every step.
ALL_AST_PASSES = CompilerConfig(harden_security=True, constant_folding=True)

#: ``helper`` has a branch but no ``secret`` pragma; ``guard`` has a
#: secret branch hardening predicates; nothing folds in either.
SECRETS = """
int helper(int x) { int r = 0; if (x > 3) { r = x; } else { r = 1; }
                    return r; }
#pragma teamplay secret(key)
int guard(int key, int x) { int r = x; if (key > 0) { r = x * 2; }
                            return r + helper(x); }
"""

#: A loop no unroll limit reaches over an inlinable helper, and nothing
#: to fold.
LONG_LOOP = """
int helper(int x) { return x * 4 + 1; }
int work(int x) { int s = 0;
                  for (int i = 0; i < 40; i = i + 1) { s = s + helper(x); }
                  return s; }
"""

#: ``f`` holds a fold only after inlining ``g``.
FOLDS_AFTER_INLINING = "int g(int a){return a*3;} int f(int x){return g(2)+x;}"


def _engine(source: str, entry: str = "work") -> EvaluationEngine:
    return EvaluationEngine(parse(source), PLATFORM, [entry])


def _build_unit(engine: EvaluationEngine, name: str):
    """The parsed build unit ``(identity, module)`` of ``name``."""
    return next(unit for unit in engine._build_units()
                if unit[0] == (name,))


def _step(engine, config, pass_name, key, module):
    registered = engine.pipeline.manager.pass_named(pass_name)
    return engine._step(config, registered, key, module)


def _check_step(pipeline, config, registered, unit):
    """Run ``registered`` on ``unit`` as an AST step does: its counters
    are all 0 exactly when the output ``==`` the input."""
    output, statistics = pipeline.pre_unroll(unit, config, (registered,))
    assert (not any(statistics.values())) == (output == unit), (
        registered.name, unit.functions[0].name)
    return output


def check_counters(source: str) -> None:
    """Run each counted AST pass on every function of ``source``, as the
    chain does (the next pass reads the last one's output): hardening and
    folding on each build unit, inlining and folding again on the whole
    module (inlining reads the other functions), then unrolling with its
    folding round at every limit.  Then lowering leaves the AST it reads,
    unrolled at every limit, as it was."""
    try:
        module = parse(source)
        units = EvaluationEngine(module, PLATFORM, ["-"])._build_units()
    except TeamPlayError:
        return
    pipeline = CompilationPipeline(PLATFORM)
    manager = pipeline.manager
    config = ALL_AST_PASSES.with_(inline_simple_functions=True)
    bounds, harden, fold, inline, unroll = map(manager.pass_named, (
        "loop-bound-inference", "harden-security", "constant-folding",
        "inline-simple-functions", "unroll-loops"))
    for _identity, unit in units:
        unit, _ = pipeline.pre_unroll(unit, config, (bounds,))
        for registered in (harden, fold):
            unit = _check_step(pipeline, config, registered, unit)
    folded, _ = pipeline.pre_unroll(module, config.with_(
        inline_simple_functions=False))
    inlined = _check_step(pipeline, config, inline, folded)
    inlined = _check_step(pipeline, config, fold, inlined)
    for limit in UNROLL_CHOICES:
        working = _check_step(pipeline, config.with_(unroll_limit=limit),
                              unroll, inlined)
        before = ast.clone_module(working)
        try:
            lower_module(working)
        except TeamPlayError:
            return
        assert working == before, limit


class TestCounterContract:
    @given(source=sources)
    @settings(max_examples=60, deadline=None)
    # Secret functions hardening predicates (modexp, pin_check) and
    # leaves alone (the ladder, the constant-time compare, xtea).
    @example(source=SECRETS)
    @example(source=ciphers.MODEXP_LEAKY_SOURCE)
    @example(source=ciphers.PIN_COMPARE_LEAKY_SOURCE)
    @example(source=ciphers.MODEXP_LADDER_SOURCE)
    @example(source=ciphers.XTEA_SOURCE)
    def test_counters_are_zero_exactly_when_nothing_changed(self, source):
        check_counters(source)

    def test_every_embedded_source_keeps_the_contract(self):
        for _name, source in IR_PIN_SOURCES:
            check_counters(source)


class TestFoldStep:
    def test_a_fold_step_that_folds_nothing_hands_on_its_input(self):
        config = CompilerConfig(constant_folding=True)
        engine = _engine("int work(int x) { return x * 3; }")
        identity, module = _build_unit(engine, "work")
        key, bounded, _ = _step(engine, config, "loop-bound-inference",
                                identity, module)
        out_key, out, statistics = _step(engine, config, "constant-folding",
                                         key, bounded)
        assert statistics == {"constant_folds": 0}
        assert out is bounded and out_key is key
        # Cached under its own key all the same: a repeat is a hit that
        # hands on the same input.
        table = engine.builds.tables["ast"]
        assert _step(engine, config, "constant-folding", key,
                     bounded)[1] is bounded
        assert (table.misses, table.hits) == (2, 1)

    def test_a_fold_step_that_folds_hands_on_its_clone(self):
        config = CompilerConfig(constant_folding=True)
        engine = _engine("int work(int x) { return x * (1 + 2); }")
        identity, module = _build_unit(engine, "work")
        key, bounded, _ = _step(engine, config, "loop-bound-inference",
                                identity, module)
        out_key, out, statistics = _step(engine, config, "constant-folding",
                                         key, bounded)
        assert statistics == {"constant_folds": 1}
        assert out is not bounded and out != bounded
        assert out_key == (key, "constant-folding", True)

    def test_folding_that_folds_nothing_shares_every_later_build(self):
        engine = _engine("int work(int x) { return x * 3; }")
        on = engine.evaluate(CompilerConfig(constant_folding=True))
        off = engine.evaluate(CompilerConfig(constant_folding=False))
        assert on.pass_statistics["constant_folds"] == 0
        assert "constant_folds" not in off.pass_statistics
        assert off.program.functions["work"] is on.program.functions["work"]
        assert engine.lowering.misses == 1


class TestHardeningRunsOnSecretsOnly:
    def test_hardening_never_runs_on_a_non_secret_function(self):
        engine = _engine(SECRETS, "guard")
        off = engine.evaluate(CompilerConfig())
        on = engine.evaluate(CompilerConfig(harden_security=True))
        rows = engine.pipeline.stats()
        assert rows["harden-security"]["invocations"] == 1
        assert on.pass_statistics["hardened_branches"] == 1
        assert on.program.functions["helper"] \
            is off.program.functions["helper"]
        assert on.program.functions["guard"] \
            is not off.program.functions["guard"]

    def test_a_module_without_secrets_never_hardens(self):
        engine = _engine(ECG_SOURCE, "sample_ecg")
        variant = engine.evaluate(CompilerConfig(harden_security=True))
        assert variant.pass_statistics["hardened_branches"] == 0
        assert "harden-security" not in engine.pipeline.stats()
        assert engine.lowering.misses == len(variant.program.functions)

    def test_a_secret_function_hardening_leaves_alone_is_handed_on(self):
        name = "modexp_ladder"
        engine = _engine(ciphers.MODEXP_LADDER_SOURCE, name)
        off = engine.evaluate(CompilerConfig())
        on = engine.evaluate(CompilerConfig(harden_security=True))
        assert engine.pipeline.stats()["harden-security"]["invocations"] == 1
        assert on.pass_statistics["hardened_branches"] == 0
        assert on.program.functions[name] is off.program.functions[name]


class TestUnrollThatUnrollsNothing:
    def test_shares_the_lowered_entry_of_unroll_limit_zero(self,
                                                           monkeypatch):
        lowered = []
        unroll_and_lower = CompilationPipeline.unroll_and_lower

        def recorded(pipeline, working, *args, **kwargs):
            lowered.append(working)
            return unroll_and_lower(pipeline, working, *args, **kwargs)

        monkeypatch.setattr(CompilationPipeline, "unroll_and_lower",
                            recorded)
        engine = _engine(LONG_LOOP)
        config = CompilerConfig(inline_simple_functions=True)
        first = engine.evaluate(config.with_(unroll_limit=32))
        assert first.pass_statistics["inlined_calls"] == 1
        # Lowering read the unit the inline step handed on, uncloned.
        inlined = [entry[1] for key, entry
                   in engine.builds.tables["ast"]._entries.items()
                   if key[1] == "inline-simple-functions"]
        assert len(inlined) == 1
        assert any(module is inlined[0] for module in lowered)
        for limit in UNROLL_CHOICES:
            variant = engine.evaluate(config.with_(unroll_limit=limit))
            assert variant.pass_statistics.get("unrolled_loops", 0) == 0
            assert variant.program.functions["work"] \
                is first.program.functions["work"]
        assert engine.lowering.misses == len(lowered) == 2
        assert "unroll-loops" not in engine.pipeline.stats()


class TestUnrollStep:
    def test_its_narrowed_key_is_memoised_per_input(self, monkeypatch):
        calls = []
        bound = passes.largest_unrollable_bound

        def counted(function, limit):
            calls.append((function.name, limit))
            return bound(function, limit)

        monkeypatch.setattr(passes, "largest_unrollable_bound", counted)
        engine = _engine(FOLDS_AFTER_INLINING, "f")
        config = CompilerConfig(constant_folding=True,
                                inline_simple_functions=True)
        # The third build differs from the first only in an IR flag: it
        # reads the first one's memo.
        for tweaked in (config.with_(unroll_limit=4),
                        config.with_(unroll_limit=8),
                        config.with_(unroll_limit=4, enable_cse=True)):
            engine.evaluate(tweaked)
        assert sorted(calls) == [("f", 4), ("f", 8), ("g", 4), ("g", 8)]
        assert len([key for key in engine.builds.function_keys
                    if key[0] == "unroll-loops"]) == 4
        # Both limits narrow to the same key on ``f`` (nothing to unroll,
        # a refold), so the step runs once, and never on ``g``.
        assert engine.pipeline.stats()["unroll-loops"]["invocations"] == 1


class TestInlineStep:
    def test_inlining_that_reads_no_callee_does_not_run(self):
        engine = _engine("int work(int x) { return x * 3; }")
        off = engine.evaluate(CompilerConfig())
        on = engine.evaluate(CompilerConfig(inline_simple_functions=True))
        assert on.pass_statistics["inlined_calls"] == 0
        assert "inline-simple-functions" not in engine.pipeline.stats()
        assert on.program.functions["work"] is off.program.functions["work"]


class TestFixedSearchMissCounts:
    def test_lowering_and_ir_step_misses(self):
        # One extended-space search on the ECG wearable's first task.
        compiler = MultiCriteriaCompiler(PLATFORM)
        front = compiler.explore(ECG_SOURCE, "sample_ecg", optimizer="nsga2",
                                 population_size=4, generations=2, seed=1,
                                 extended_space=True)
        stats = compiler.cache_stats()
        assert front.evaluations == 12
        assert (stats["lowering"]["misses"], stats["ir_stage"]["misses"]) \
            == (7, 31)
