"""ENG1/ENG2 — headline benchmark for the batched variant-evaluation engine.

Not a paper experiment: demonstrates the PR-1 engine's caching stages on the
paper's own workloads.  ENG1 evaluates a camera-pill configuration
population through the engine versus the uncached reference pipeline
(the ``evaluate_config`` oracle in ``tests/oracles.py``), asserting
bit-for-bit identical variants and a wall-clock win; ENG2 shows the ablation workload (repeated ``compile`` calls
on one driver) hitting the staged caches.
"""

import pathlib
import sys
import time

from conftest import print_experiment

from repro.compiler import CompilerConfig, MultiCriteriaCompiler
from repro.compiler.engine import BatchEvaluator, EvaluationEngine
from repro.frontend.parser import parse
from repro.usecases import camera_pill

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tests"))
from oracles import evaluate_config  # noqa: E402  (tests/ is not a package)

#: The ablation ladder plus the search's usual seeds — a realistic
#: generation's worth of distinct configurations with shared sub-structure.
POPULATION = [
    camera_pill.BASELINE_CONFIG,
    camera_pill.BASELINE_CONFIG.with_(strength_reduction=True),
    camera_pill.BASELINE_CONFIG.with_(strength_reduction=True, unroll_limit=16),
    camera_pill.BASELINE_CONFIG.with_(spm_allocation=True),
    CompilerConfig.baseline(),
    CompilerConfig.performance(),
    CompilerConfig.performance().with_(strength_reduction=False),
    CompilerConfig.performance().with_(spm_allocation=False),
]


def _variant_key(variant):
    return (variant.wcet_cycles, variant.wcet_time_s, variant.energy_j,
            variant.code_size_bytes, variant.pass_statistics)


def test_eng1_engine_vs_uncached_population(benchmark):
    """ENG1: batched engine vs from-scratch evaluation of one population."""
    board = camera_pill.platform()
    module = parse(camera_pill.CAMERA_PILL_SOURCE)

    t0 = time.perf_counter()
    uncached = [evaluate_config(module, config, board, "frame_packet")
                for config in POPULATION]
    uncached_s = time.perf_counter() - t0

    engine = EvaluationEngine(module, board, ["frame_packet"])

    def run_engine():
        return BatchEvaluator(engine).evaluate(POPULATION)

    batched = benchmark.pedantic(run_engine, rounds=1, iterations=1)
    t0 = time.perf_counter()
    revisited = BatchEvaluator(engine).evaluate(POPULATION)
    warm_s = time.perf_counter() - t0
    stats = engine.stats()

    print_experiment(
        "ENG1 — batched evaluation engine (camera-pill population)",
        "staged caching: same variants, less work",
        [
            f"uncached pipeline : {uncached_s * 1e3:7.1f} ms",
            f"engine, cold      : {benchmark.stats['mean'] * 1e3:7.1f} ms",
            f"engine, revisit   : {warm_s * 1e3:7.1f} ms",
            f"lowering  {stats['lowering']['hits']} hits / "
            f"{stats['lowering']['misses']} misses; "
            f"ir-stage {stats['ir_stage']['hits']}/"
            f"{stats['ir_stage']['misses']}; "
            f"analysis {stats['analysis']['hits']}/"
            f"{stats['analysis']['misses']}; "
            f"variants {stats['variant']['hits']}/"
            f"{stats['variant']['misses']}",
        ],
        notes="identical Variant values are asserted below",
    )

    for reference, cached, warm in zip(uncached, batched, revisited):
        assert _variant_key(reference) == _variant_key(cached)
        assert cached is warm  # revisits are cache hits, not re-evaluations
    # The population shares lowered functions and analysis tables:
    # strictly less work than the from-scratch pipeline, which lowers
    # every function of every variant.
    assert stats["lowering"]["misses"] < len(POPULATION) * len(module.functions)
    assert stats["variant"]["hits"] >= len(POPULATION)  # the whole revisit pass


def test_eng2_driver_compile_reuses_caches(benchmark):
    """ENG2: repeated driver compiles hit the staged caches."""
    board = camera_pill.platform()
    compiler = MultiCriteriaCompiler(board)

    def compile_ladder():
        return [compiler.compile(camera_pill.CAMERA_PILL_SOURCE,
                                 "frame_packet", config)
                for config in POPULATION]

    first = benchmark.pedantic(compile_ladder, rounds=1, iterations=1)
    t0 = time.perf_counter()
    second = compile_ladder()
    warm_s = time.perf_counter() - t0

    print_experiment(
        "ENG2 — driver-level cache reuse (ablation ladder ×2)",
        "revisited configurations are dictionary lookups",
        [
            f"first pass  : {benchmark.stats['mean'] * 1e3:7.1f} ms",
            f"second pass : {warm_s * 1e3:7.1f} ms",
        ],
    )
    for a, b in zip(first, second):
        assert a is b