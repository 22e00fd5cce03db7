"""The engine-vs-oracle build differential at ten times its tier-1 budget.

Runs ``tests/test_function_builds.py``'s configuration-sequence check
(one engine per source, every build equal to a fresh ``build_program``)
over 3,000 generated (source, sequence) cases.
"""

import pathlib
import sys

from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tests"))
from test_function_builds import (  # noqa: E402  (tests/ is not a package)
    check_sequence,
    configs,
    sources,
)


@given(source=sources, sequence=st.lists(configs, min_size=2, max_size=8))
@settings(max_examples=3000, deadline=None)
def test_bench_sequences_match_fresh_builds(source, sequence):
    check_sequence(source, sequence)
