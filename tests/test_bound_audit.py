"""Bound audit: no simulated run costs more than its analysed bound.

The simulator charges every instruction the one price of
:func:`repro.hw.price.price`; the analysers charge its worst case
(:func:`repro.hw.price.worst_price`).  These tests hold the product's
promise, a *safe* bound, on generated programs across the whole
configuration space:

* every predictable preset core, at every operating point, in both path
  modes: simulated cycles <= WCET, simulated dynamic energy <= the WCEC's
  dynamic part and simulated energy <= WCEC;
* the camera-pill ``capture_frame(9)`` on ``gr712rc`` at every LEON3
  operating point, the case whose memory-access energy the simulator once
  left unscaled by ``V^2`` (+0.66% over the WCEC at ``leon3-20MHz``);
* a divider whose table latency is below the data-dependent early exit
  (``cycle_table["div"] = 1``) never finishes later than its table says.

The same cases also hold the optimisations to program semantics: each
configuration of a sequence built through one evaluation engine (whose
variants share every function their pass chains reach equally) returns
what the unoptimised build returns and leaves the same globals, on one
core; an input the unoptimised build cannot run either is skipped.  Both
tier-1 checks draw the generated sources only (the bound audit adds one
cheap embedded kernel); their ``bench`` twins add the embedded ones.

Sources come from the generators ``tests/test_function_builds.py``
combines (branchy, frontend, call-graph and every embedded source); every
function with a bound is run on drawn arguments, and a run the simulator
rejects (an out-of-bounds index, a division by zero) is skipped.  Larger
budgets run under ``bench`` (``benchmarks/test_bench_bound_audit.py``).
"""

from __future__ import annotations

from typing import List, Sequence

from hypothesis import example, given, settings, strategies as st

from oracles import build_program
from test_function_builds import _CALLS, configs, generated_sources

from repro.compiler.config import CompilerConfig
from repro.compiler.engine import EvaluationEngine
from repro.compiler.engine.cache import AnalysisCache
from repro.compiler.pipeline import CompilationPipeline
from repro.dl.kernels import matmul_kernel_source
from repro.errors import AnalysisError, SimulationError, TeamPlayError
from repro.frontend.lowering import compile_source
from repro.frontend.parser import parse
from repro.hw import presets
from repro.hw.platform import Platform
from repro.sim.machine import Simulator
from repro.usecases.camera_pill import CAMERA_PILL_SOURCE
from repro.wcet.analyzer import WCETAnalyzer

#: Every preset board with a predictable core.
PREDICTABLE_PRESETS = ("nucleo-stm32f091rc", "camera-pill", "gr712rc")

#: Arguments drawn per case; a function takes as many as it has
#: parameters, cycling.
arguments = st.lists(st.integers(min_value=-12, max_value=12), min_size=3,
                     max_size=3)


def audit(program, platform: Platform, calls) -> int:
    """Run each ``(function, args)`` of ``calls`` on every predictable core
    of ``platform`` at every operating point and check it against both
    path modes' bounds; returns how many runs were checked."""
    cache = AnalysisCache(platform)
    checked = 0
    for core in platform.predictable_cores:
        for opp in core.operating_points:
            simulator = Simulator(program, platform, core=core, opp=opp)
            for name, args in calls:
                try:
                    bounds = [(cache.wcet(program, name, core, opp, paths),
                               cache.wcec(program, name, core, opp, paths))
                              for paths in (False, True)]
                    observed = simulator.run(name, args)
                except (AnalysisError, SimulationError):
                    continue
                for wcet, wcec in bounds:
                    where = (platform.name, core.name, opp.label, name, args)
                    assert observed.cycles <= wcet.cycles, where
                    assert observed.dynamic_energy_j <= \
                        wcec.dynamic_energy_j, where
                    assert observed.energy_j <= wcec.energy_j, where
                checked += 1
    return checked


def _calls(program, values: Sequence[int]) -> List:
    return [(name, [values[i % len(values)]
                    for i in range(len(function.params))])
            for name, function in program.functions.items()]


def check_case(source: str, config: CompilerConfig,
               values: Sequence[int]) -> None:
    """Build ``source`` with ``config`` for every predictable preset and
    audit every function on ``values``."""
    try:
        module = parse(source)
    except TeamPlayError:
        return
    for name in PREDICTABLE_PRESETS:
        platform = presets.platform_by_name(name)
        try:
            program, _ = build_program(CompilationPipeline(platform), module,
                                       config)
        except TeamPlayError:
            return
        audit(program, platform, _calls(program, values))


#: Every optimisation off: the build every configuration must agree with.
UNOPTIMISED = CompilerConfig(constant_folding=False,
                             dead_code_elimination=False)


def check_semantics(source: str, sequence: Sequence[CompilerConfig],
                    values: Sequence[int]) -> int:
    """Build ``sequence`` through one engine on ``source``: every function
    of every variant returns what the unoptimised build returns on
    ``values`` and leaves the same globals, on the default core at its
    nominal operating point.  Returns how many runs were compared."""
    platform = presets.nucleo_stm32f091rc()
    try:
        module = parse(source)
        reference, _ = build_program(CompilationPipeline(platform), module,
                                     UNOPTIMISED)
    except TeamPlayError:
        return 0
    expected = {}
    simulator = Simulator(reference, platform)
    for name, args in _calls(reference, values):
        try:
            run = simulator.run(name, args)
        except SimulationError:  # the unoptimised build cannot run it
            continue
        expected[name, tuple(args)] = (run.return_value, run.globals_after)
    engine = EvaluationEngine(module, platform, [module.functions[0].name])
    compared = 0
    for config in sequence:
        program, _ = engine._build(config)
        simulator = Simulator(program, platform)
        for (name, args), outcome in expected.items():
            run = simulator.run(name, list(args))
            assert (run.return_value, run.globals_after) == outcome, \
                (config, name, args)
            compared += 1
    return compared


class TestBoundAudit:
    def test_every_predictable_preset_is_audited(self):
        predictable = [name for name in presets._FACTORIES
                       if presets.platform_by_name(name).predictable_cores]
        assert sorted(predictable) == sorted(PREDICTABLE_PRESETS)

    # The generated sources only, as the semantics check below: an
    # embedded source built at ``unroll_limit=32`` and simulated on every
    # core at every operating point costs seconds, so those run under
    # ``bench``.  One cheap embedded kernel, unrolled and inlined, runs
    # here.
    @given(source=generated_sources, config=configs, values=arguments)
    @settings(max_examples=25, deadline=None)
    @example(source=matmul_kernel_source(),
             config=CompilerConfig.performance(), values=[5, -3, 7])
    def test_simulation_within_the_bound_at_every_opp(self, source, config,
                                                      values):
        check_case(source, config, values)

    def test_camera_pill_capture_frame_on_gr712rc(self):
        # With memory-access energy unscaled in the simulator, leon3-20MHz
        # simulated 3.1202e-4 J against a WCEC of 3.0999e-4 J, and
        # leon3-40MHz ran 0.58% over.
        platform = presets.gr712rc()
        program, _ = build_program(CompilationPipeline(platform),
                                   parse(CAMERA_PILL_SOURCE),
                                   CompilerConfig())
        core = platform.predictable_cores[0]
        assert "leon3-20MHz" in [opp.label for opp in core.operating_points]
        assert audit(program, platform, [("capture_frame", [9])]) == \
            2 * len(core.operating_points)


class TestEngineVariantSemantics:
    # The generated sources only: an embedded source simulated at
    # ``unroll_limit=32`` costs seconds, so those run under ``bench``.
    @given(source=generated_sources,
           sequence=st.lists(configs, min_size=2, max_size=3),
           values=arguments)
    @settings(max_examples=50, deadline=None)
    def test_variants_compute_what_the_unoptimised_build_computes(
            self, source, sequence, values):
        check_semantics(source, sequence, values)

    def test_every_function_of_every_variant_is_compared(self):
        # Inlining, hardening, unrolling and every IR pass, on callers of
        # an inlinable callee, one of them secret.
        sequence = [CompilerConfig(), CompilerConfig.performance(),
                    CompilerConfig.secure(), CompilerConfig.secure().with_(
                        enable_cse=True, enable_peephole=True)]
        assert check_semantics(_CALLS, sequence, [5, -3, 7]) == \
            len(sequence) * len(parse(_CALLS).functions)


class TestDividerLatency:
    def test_a_one_cycle_divider_never_exceeds_its_table(self):
        # Validation accepts a divider table below the data-dependent early
        # exit; the simulator once charged it at least 2 cycles, above the
        # WCET's table latency (10 cycles against 9 for ``a / 3``).
        platform = presets.nucleo_stm32f091rc()
        platform.cores[0].cycle_table["div"] = 1
        program = compile_source("int f(int a) { return a / 3; }")
        wcet = WCETAnalyzer(platform).analyze(program, "f")
        for a in (0, 1, 7, -1000, 2 ** 30):
            observed = Simulator(program, platform).run("f", [a])
            assert observed.cycles <= wcet.cycles
        assert audit(program, platform, [("f", [123456])]) == \
            len(platform.cores[0].operating_points)
