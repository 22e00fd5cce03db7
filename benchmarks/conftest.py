"""Shared helpers for the benchmark harness.

Every benchmark regenerates one experiment of the paper's evaluation
(Section IV) and prints a paper-vs-measured comparison table.  Absolute
numbers are not expected to match (the substrate is a simulator, not the
authors' boards); the assertions check the *shape* of each result: who wins,
by roughly what factor, and whether deadlines/certificates hold.
"""

from __future__ import annotations

import json
import pathlib
from typing import Optional

import pytest

_BENCH_DIR = pathlib.Path(__file__).resolve().parent

#: Where benchmarks write their ``BENCH_*.json`` numbers: an ignored
#: directory, so a bench run leaves the committed files alone.
RESULTS_DIR = _BENCH_DIR.parent / ".bench_work" / "benchmarks"


def pytest_collection_modifyitems(items):
    """Mark every benchmark in this directory ``bench`` (opt-in via -m bench).

    The hook receives the whole session's items, so filter to this
    directory — tier-1 tests must stay unmarked.
    """
    for item in items:
        if _BENCH_DIR in pathlib.Path(str(item.fspath)).resolve().parents:
            item.add_marker(pytest.mark.bench)


def write_results(name: str, document: dict) -> None:
    """Write one benchmark's JSON numbers to ``RESULTS_DIR / name``."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / name).write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n")


def print_experiment(experiment: str, claim: str,
                     rows: list, notes: Optional[str] = None) -> None:
    """Print a uniform paper-vs-measured block under ``-s``/captured output."""
    print(f"\n=== {experiment} ===")
    print(f"paper claim : {claim}")
    for row in rows:
        print(f"  {row}")
    if notes:
        print(f"note: {notes}")
