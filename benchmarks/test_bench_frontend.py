"""FE1-FE4 — frontend benchmarks for the token-cursor parser rewrite.

Not a paper experiment: pins the frontend win of the unified-pipeline and
token-cursor PRs.  ROADMAP flagged the frontend as the dominant cold-start
cost; the scanner rewrite capped the end-to-end speedup at ~1.4x because the
Token-object recursive-descent parser still dominated, so the cursor rewrite
attacks the parse half and adds a process-wide parse cache.

- FE1 measures the scanner itself — the seed's character-loop tokenizer
  (``tokenize``, the exact scanner) against ``scan``, the
  single-compiled-regex scanner ``parse`` runs — and asserts the >= 1.5x
  bar.
- FE2 measures the end-to-end cold parse through
  ``CompilationPipeline.parse`` (cache cleared every call) against the seed
  call path (character loop + the Token-object parser, now the
  ``parse_reference`` oracle in ``tests/oracles.py``) and asserts the >= 3x
  acceptance bar; a secondary row keeps the >= 1.5x bar against the
  previous main path, which since the regex compatibility lexer was deleted
  is the same seed lexer + seed parser.
- FE3 sanity-checks that ``scan`` time stays roughly linear in source size.
- FE4 measures the warm parse served by the fingerprint-keyed parse cache
  and asserts it is >= 10x faster than the cold cursor parse.

The measured numbers land in ``.bench_work/benchmarks/BENCH_frontend.json``
(ignored) so the CI bench-smoke job can archive the trajectory.

The container has one vCPU and a noisy clock: every comparison interleaves
its contestants across rounds and scores the per-round minimum, following
the engine benchmarks.
"""

import pathlib
import sys
import time

from conftest import print_experiment, write_results

from repro.compiler.pipeline import CompilationPipeline
from repro.frontend import parser
from repro.frontend.lexer import KIND_NAMES, scan, tokenize
from repro.hw.presets import platform_by_name
from repro.usecases import camera_pill, space

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tests"))
from oracles import parse_reference  # noqa: E402  (tests/ is not a package)

#: One large translation unit: the repo's TeamPlay-C sources, concatenated
#: a few times so per-call overhead vanishes in the noise.
SMALL_SOURCE = "\n".join([camera_pill.CAMERA_PILL_SOURCE,
                          space.SPACE_SOURCE])
BIG_SOURCE = "\n".join([SMALL_SOURCE] * 4)

ROUNDS = 7
INNER = 5

_RESULTS = {}


def _record(experiment: str, **numbers) -> None:
    """Accumulate one experiment's numbers and rewrite the JSON artifact."""
    _RESULTS[experiment] = numbers
    write_results("BENCH_frontend.json",
                  {"source_chars": len(BIG_SOURCE), "experiments": _RESULTS})


def _best_of(rounds, func, *args):
    """Minimum per-round mean over interleaved timing rounds."""
    times = []
    for _ in range(rounds):
        started = time.perf_counter()
        for _ in range(INNER):
            func(*args)
        times.append((time.perf_counter() - started) / INNER)
    return min(times)


def _interleaved(*funcs):
    """Best-of-ROUNDS for each function, alternating so noise hits all."""
    best = [float("inf")] * len(funcs)
    for _ in range(ROUNDS):
        for index, func in enumerate(funcs):
            best[index] = min(best[index], _best_of(1, func))
    return best


def test_fe1_scanner_vs_character_loop(benchmark):
    """FE1: the pipeline scanner must beat the old call path >= 1.5x cold."""
    tokens = tokenize(BIG_SOURCE)
    stream = scan(BIG_SOURCE)
    streams_match = (
        [KIND_NAMES[kind] for kind in stream.kinds] == [t.kind for t in tokens]
        and stream.values == [t.value for t in tokens]
        and stream.lines == [t.line for t in tokens])
    assert streams_match, "scan diverged from the character-loop stream"

    old_best, new_best = _interleaved(
        lambda: tokenize(BIG_SOURCE),
        lambda: scan(BIG_SOURCE))
    speedup = old_best / new_best

    benchmark.pedantic(scan, args=(BIG_SOURCE,),
                       rounds=3, iterations=INNER)
    print_experiment(
        "FE1 — pipeline scanner vs seed character loop",
        "cold scan >= 1.5x faster than the seed character loop",
        [
            f"old call path (char loop) : {old_best * 1e3:7.2f} ms",
            f"pipeline scanner          : {new_best * 1e3:7.2f} ms",
            f"speedup                   : {speedup:7.2f}x",
            f"source                    : {len(BIG_SOURCE)} chars, "
            f"{len(tokens)} tokens",
        ],
        notes="the character loop is the seed tokenizer, kept verbatim as "
              "tokenize(), the exact scanner scan() falls back to",
    )
    _record("FE1_scanner", char_loop_s=old_best, scanner_s=new_best,
            speedup=speedup)
    assert speedup >= 1.5, (
        f"scanner speedup {speedup:.2f}x below the 1.5x acceptance bar")


def test_fe2_cold_parse_through_the_pipeline():
    """FE2: end-to-end cold parse must beat the seed frontend >= 3x."""
    pipeline = CompilationPipeline(platform_by_name("camera-pill"))

    def cold_parse_pipeline():
        parser.clear_parse_cache()
        return pipeline.parse(BIG_SOURCE)

    def cold_parse_seed():
        # The seed frontend exactly: character-loop lexer feeding the
        # Token-object recursive-descent parser.
        return parse_reference(BIG_SOURCE)

    def cold_parse_previous_main():
        # Previous main: tokenize() + the Token-object parser.  With the
        # regex compatibility lexer deleted, tokenize() is the seed
        # character loop, so this is the seed path timed a second time.
        return parse_reference(BIG_SOURCE)

    assert cold_parse_seed() == cold_parse_pipeline(), (
        "cursor parser diverged from the seed parser")

    seed_best, prev_best, new_best = _interleaved(
        cold_parse_seed, cold_parse_previous_main, cold_parse_pipeline)
    speedup_seed = seed_best / new_best
    speedup_prev = prev_best / new_best
    stats = pipeline.stats()

    print_experiment(
        "FE2 — end-to-end cold parse through CompilationPipeline.parse",
        "token-cursor parser + indexed scan >= 3x over the seed frontend",
        [
            f"seed path (chars+Token parse) : {seed_best * 1e3:7.2f} ms",
            f"prev main (chars+Token parse) : {prev_best * 1e3:7.2f} ms",
            f"pipeline cold parse           : {new_best * 1e3:7.2f} ms",
            f"speedup vs seed               : {speedup_seed:7.2f}x",
            f"speedup vs previous main      : {speedup_prev:7.2f}x",
            f"parse pass counters           : "
            f"{stats['parse']['invocations']} invocations, "
            f"{stats['parse']['wall_s'] * 1e3:.2f} ms wall",
        ],
        notes="the Token-object parser survives as parse_reference in "
              "tests/oracles.py; the cursor parser runs over the scan arrays",
    )
    _record("FE2_cold_parse", seed_s=seed_best, previous_main_s=prev_best,
            pipeline_s=new_best, speedup_vs_seed=speedup_seed,
            speedup_vs_previous_main=speedup_prev)
    assert speedup_seed >= 3.0, (
        f"cold parse speedup {speedup_seed:.2f}x below the 3x acceptance bar")
    assert speedup_prev >= 1.5, (
        f"cold parse only {speedup_prev:.2f}x over the previous main path")
    assert stats["parse"]["invocations"] >= ROUNDS * INNER


def test_fe3_scanner_scaling_sanity():
    """FE3: scanner time grows roughly linearly with source size."""
    t_small = _best_of(3, scan, SMALL_SOURCE)
    t_big = _best_of(3, scan, BIG_SOURCE)
    ratio = t_big / t_small
    print_experiment(
        "FE3 — scanner scaling",
        "single-regex scan is O(n): 4x the source ~ 4x the time",
        [f"quarter source : {t_small * 1e3:6.2f} ms",
         f"full source    : {t_big * 1e3:6.2f} ms ({ratio:.1f}x)"],
    )
    _record("FE3_scaling", small_s=t_small, big_s=t_big, ratio=ratio)
    assert ratio < 16, "scanner scaling grossly super-linear"


def test_fe4_warm_parse_via_the_fingerprint_cache():
    """FE4: a warm parse is a fingerprint lookup — >= 10x the cold parse."""
    pipeline = CompilationPipeline(platform_by_name("camera-pill"))

    def cold_parse():
        parser.clear_parse_cache()
        return pipeline.parse(BIG_SOURCE)

    def warm_parse():
        return pipeline.parse(BIG_SOURCE)

    cold_parse()  # prime the cache once so every warm_parse call hits
    assert warm_parse() is warm_parse(), "warm parse must return the cached AST"

    cold_best, warm_best = _interleaved(cold_parse, warm_parse)
    speedup = cold_best / warm_best
    cache = parser.parse_cache_stats()

    print_experiment(
        "FE4 — warm parse via the process-wide parse cache",
        "repeat builds of an unchanged module skip the frontend entirely",
        [
            f"cold cursor parse : {cold_best * 1e3:8.3f} ms",
            f"warm cache hit    : {warm_best * 1e6:8.1f} us",
            f"speedup           : {speedup:8.1f}x",
            f"cache counters    : {cache['hits']} hit(s), "
            f"{cache['misses']} miss(es), {cache['evictions']} eviction(s)",
        ],
        notes="keyed by (source_name, frontend pass names, source text); "
              "LRU, 256 modules",
    )
    _record("FE4_warm_parse", cold_s=cold_best, warm_s=warm_best,
            speedup=speedup, cache_hits=cache["hits"],
            cache_misses=cache["misses"])
    assert cache["hits"] > 0, "warm parses never hit the cache"
    assert speedup >= 10.0, (
        f"warm parse only {speedup:.1f}x faster — cache not being served")
