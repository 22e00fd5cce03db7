"""The bound audit and its semantics check at 200 cases each (eight and
ten times their tier-1 budgets).

Runs ``tests/test_bound_audit.py``'s checks over 200 generated cases:
every function of a program built for every predictable preset,
simulated on every predictable core at every operating point, within both
path modes' WCET and WCEC; and every function of each configuration of a
sequence built through one engine, returning what the unoptimised build
returns and leaving the same globals.
"""

import pathlib
import sys

from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tests"))
from test_bound_audit import (  # noqa: E402  (tests/ is not a package)
    arguments,
    check_case,
    check_semantics,
)
from test_function_builds import configs, sources  # noqa: E402


@given(source=sources, config=configs, values=arguments)
@settings(max_examples=200, deadline=None)
def test_bench_simulation_within_the_bound_at_every_opp(source, config,
                                                        values):
    check_case(source, config, values)


@given(source=sources, sequence=st.lists(configs, min_size=2, max_size=3),
       values=arguments)
@settings(max_examples=200, deadline=None)
def test_bench_variants_compute_what_the_unoptimised_build_computes(
        source, sequence, values):
    check_semantics(source, sequence, values)
