"""The AST pass chain: each AST pass before inlining runs once per
distinct input, and each function is lowered once per distinct AST.

The evaluation engine runs a function's enabled passes of the ``ast``
build segment (loop-bound inference, hardening, folding) as a chain of
steps, each cached in ``BuildCache.tables["ast"]`` under
``PassManager.step_key``, by the same rule as the IR chain
(``tests/test_ir_chain.py``).  A step whose pass changed nothing hands on
its input key and the input module itself, so the ``inline`` and
``lower`` keys after it, and the whole IR chain, are shared with the
configurations that skipped the pass.  "Changed" is read off the pass's
declared counter.  A pass whose key contribution says it leaves the
function as it is (hardening a function without a ``secret`` pragma,
unrolling that unrolls nothing and refolds nothing) does not run at all.
These checks pin:

* the counter contract the chain reads: folding's and hardening's
  counters are 0 exactly when the AST they return ``==`` their input,
  and lowering leaves the AST it reads ``==`` to before (the engine
  lowers the shared AST when no AST pass of the ``lower`` segment runs);
* a fold step that folds nothing returns the input key and object;
* hardening never runs on a function without a ``secret`` pragma;
* an unroll limit that unrolls nothing shares its lowered entry with
  ``unroll_limit=0``, and lowers the unit it was handed, uncloned;
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
from repro.compiler.pipeline import CompilationPipeline
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

#: A loop no unroll limit reaches and nothing to fold.
LONG_LOOP = """
int work(int x) { int s = 0;
                  for (int i = 0; i < 40; i = i + 1) { s = s + x; }
                  return s; }
"""


def _engine(source: str, entry: str = "work") -> EvaluationEngine:
    return EvaluationEngine(parse(source), PLATFORM, [entry])


def _unit(engine: EvaluationEngine, name: str):
    """The parsed build unit ``(identity, module)`` of ``name``."""
    return next(unit for unit in engine._build_units()
                if unit[0] == (name,))


def _step(engine, config, pass_name, key, module):
    registered = engine.pipeline.manager.pass_named(pass_name)
    return engine._step(config, registered, key, module)


def _counted_passes(pipeline: CompilationPipeline):
    """The counted passes of the ``ast`` segment: hardening, folding."""
    return [p for p in pipeline.manager.segment("ast")
            if p.statistic is not None]


def check_counters(source: str) -> None:
    """Run each counted pass of the ``ast`` chain on every function of
    ``source``, as the chain does (the next pass reads the last one's
    output), and folding again after inlining: each counter is 0 exactly
    when the output ``==`` the input.  Then lowering leaves the AST it
    reads, unrolled at every limit, as it was."""
    try:
        module = parse(source)
        units = EvaluationEngine(module, PLATFORM, ["-"])._build_units()
    except TeamPlayError:
        return
    pipeline = CompilationPipeline(PLATFORM)
    manager = pipeline.manager
    config = ALL_AST_PASSES.with_(inline_simple_functions=True)
    bounds = manager.pass_named("loop-bound-inference")
    fold = manager.pass_named("constant-folding")
    for _identity, unit in units:
        unit, _ = pipeline.pre_unroll(unit, config, (bounds,))
        for registered in _counted_passes(pipeline):
            output, statistics = pipeline.pre_unroll(unit, config,
                                                     (registered,))
            assert (statistics[registered.statistic] == 0) \
                == (output == unit), (registered.name, unit.functions[0].name)
            unit = output
    inlined, _ = pipeline.pre_unroll(module, config)
    output, statistics = pipeline.pre_unroll(inlined, config, (fold,))
    assert (statistics["constant_folds"] == 0) == (output == inlined)
    unroll = [p for p in manager.segment("lower") if p.stage == "ast"]
    for limit in UNROLL_CHOICES:
        working = ast.clone_module(inlined)
        pipeline.unroll_and_lower(working, config.with_(unroll_limit=limit),
                                  {}, unroll)
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
        identity, module = _unit(engine, "work")
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
        identity, module = _unit(engine, "work")
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
        first = engine.evaluate(CompilerConfig(unroll_limit=32))
        # Lowering read the unit the inline segment handed on, uncloned.
        inline = [entry[1] for entry
                  in engine.builds.tables["inline"]._entries.values()]
        assert len(lowered) == 1 and lowered[0] is inline[0]
        for limit in UNROLL_CHOICES:
            variant = engine.evaluate(CompilerConfig(unroll_limit=limit))
            assert variant.pass_statistics.get("unrolled_loops", 0) == 0
            assert variant.program.functions["work"] \
                is first.program.functions["work"]
        assert engine.lowering.misses == 1
        assert "unroll-loops" not in engine.pipeline.stats()


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
