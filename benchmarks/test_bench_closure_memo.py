"""The on-demand analysis differential at ten times its tier-1 budget.

Runs ``tests/test_closure_memo.py``'s check (variants of one generated
source built through one engine, every query in a shuffled order on one
shared analysis cache equal to the uncached analysers) over 1,200
generated (source, configurations) cases.
"""

import pathlib
import sys

from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tests"))
from test_closure_memo import (  # noqa: E402  (tests/ is not a package)
    PLATFORM,
    build_variants,
    check_queries,
)
from test_function_builds import configs, sources  # noqa: E402

from repro.compiler.engine import AnalysisCache  # noqa: E402

_SHARED = AnalysisCache(PLATFORM)


@given(source=sources, sequence=st.lists(configs, min_size=1, max_size=5),
       rng=st.randoms(use_true_random=False))
@settings(max_examples=1200, deadline=None)
def test_bench_shuffled_queries_match_the_analysers(source, sequence, rng):
    check_queries(_SHARED, build_variants(source, sequence), rng)
