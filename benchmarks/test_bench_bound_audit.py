"""The bound audit at eight times its tier-1 budget.

Runs ``tests/test_bound_audit.py``'s check (every function of a generated
program built for every predictable preset, simulated on every
predictable core at every operating point, within both path modes'
WCET and WCEC) over 200 generated (source, configuration, arguments)
cases.
"""

import pathlib
import sys

from hypothesis import given, settings

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tests"))
from test_bound_audit import (  # noqa: E402  (tests/ is not a package)
    arguments,
    check_case,
)
from test_function_builds import configs, sources  # noqa: E402


@given(source=sources, config=configs, values=arguments)
@settings(max_examples=200, deadline=None)
def test_bench_simulation_within_the_bound_at_every_opp(source, config,
                                                        values):
    check_case(source, config, values)
