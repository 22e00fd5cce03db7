"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``.

They run each workload with a tiny op count, so they take about a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402

harness.require_program()

import run  # noqa: E402
import scenario_sweep  # noqa: E402

CONFIG = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in CONFIG["workloads"]]


def _run(workload: str, trace: int, ops: int, seed: int = 1) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(CONFIG["run_seconds"]),
         "--trace", str(trace), "--ops", str(ops)],
        cwd=harness.ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _units(section: str) -> dict:
    return {entry["name"]: entry["unit"] for entry in CONFIG[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(workload):
    result = _run(workload, trace=0, ops=3)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == 3
    assert {name: metric["unit"] for name, metric
            in result["metrics"].items()} == _units("end_to_end")
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    result = _run(workload, trace=1, ops=2)
    assert result["correct"] is True
    assert {name: metric["unit"] for name, metric
            in result["metrics"].items()} == _units("per_layer")


def test_tampered_golden_counts_in_fail_ratio(monkeypatch):
    from repro.scenarios import list_scenarios

    registry = [spec.name for spec in list_scenarios()]
    # A seed whose first op is uav-sar, the cheapest golden scenario.
    seed = next(seed for seed in range(1000)
                if random.Random(seed).randrange(len(registry))
                == registry.index("uav-sar"))
    goldens = scenario_sweep.load_goldens()
    goldens["uav-sar"]["teamplay_energy_j"] += 1e-12
    monkeypatch.setattr(scenario_sweep, "load_goldens", lambda: goldens)
    monkeypatch.setattr(harness, "SETUP_SAMPLES", 1)
    output = io.StringIO()
    with contextlib.redirect_stdout(output):
        run.main(["--workload", "scenario-sweep", "--seed", str(seed),
                  "--seconds", "20", "--ops", "1"])
    lines = output.getvalue().strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert "  scenario-sweep fail_ratio: 1 ratio" in lines


def test_service_check_flags_a_tampered_golden():
    import svc_keepalive

    goldens = scenario_sweep.load_goldens()
    goldens["uav-sar"]["deadline_s"] *= 2
    state = svc_keepalive.State(bursts=[[{"scenario": "uav-sar"}]],
                                goldens=goldens)
    measurement = svc_keepalive.measure(state)
    assert list(svc_keepalive.check(state, measurement)) == [0]


def test_exits_non_zero_without_the_program():
    bare = harness.WORK / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(harness.ROOT / "BENCHMARK.json", bare)
    try:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "dse-cold",
             "--seed", "1", "--seconds", "20", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert done.stdout == ""
