"""``scenario-sweep``: every registered scenario through ``run_scenario``.

This is the paper workflow end to end: search, ETS derivation (which
queries the warm analysis cache once per core and operating point),
scheduling and the contract check, plus the complex flow, DL training and
the custom kinds.  Each scenario run at its default budget is one op; a run
is a fixed number of rounds over the registry.  The seed picks where in the
registry order the first round starts, so every seed does the same work.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Dict, List

from harness import ROOT, Measurement
from tracing import op_scope

NAME = "scenario-sweep"
UNIT = "scenario runs"
#: Whether the ops run in the benchmark process (timed with speed samples).
IN_PROCESS = True
#: Rounds over the registry per second of ``--seconds`` (one round takes
#: about 9 s on a 2-vCPU Xeon VM).
ROUNDS_PER_S = 0.15
#: Scenarios with a hand-pinned golden report under ``tests/golden``.
GOLDENS = {
    "camera-pill": "camera_pill_e1.json",
    "space-spacewire": "space_e2.json",
    "uav-sar": "uav_sar_e3.json",
    "parking-dl-tk1": "parking_tk1_e6.json",
    "ecg-wearable": "ecg_wearable.json",
}
#: The report fields a golden pins (``tests/golden/capture.py``).
REPORT_FIELDS = ("name", "baseline_time_s", "teamplay_time_s",
                 "baseline_energy_j", "teamplay_energy_j", "deadline_s",
                 "deadlines_met", "performance_improvement_pct",
                 "energy_improvement_pct")


@dataclass
class State:
    names: List[str]
    goldens: Dict[str, dict]


def load_goldens() -> Dict[str, dict]:
    """The pinned ``report`` of every golden scenario (read-only)."""
    return {name: json.loads((ROOT / "tests" / "golden" / filename)
                             .read_text())["report"]
            for name, filename in GOLDENS.items()}


def prepare(seed: int, seconds: float, limit: int = 0) -> State:
    from repro.scenarios import list_scenarios

    registry = [spec.name for spec in list_scenarios()]
    start = random.Random(seed).randrange(len(registry))
    rounds = max(1, round(seconds * ROUNDS_PER_S))
    names = [registry[(start + index) % len(registry)]
             for index in range(rounds * len(registry))]
    return State(names=names[:limit] if limit else names,
                 goldens=load_goldens())


def custom_ok(name: str, detail: dict) -> bool:
    """Success criterion of a custom-kind scenario's summary detail."""
    if name == "uav-pa":
        return detail.get("adaptive_completed") is True
    if name == "parking-dl-m0":
        best = detail.get("nominal_best", {})
        return (detail.get("rows", 0) > 0 and set(best) == {"conv2d", "matmul"}
                and all(row["fastest_wcet_ms"] > 0 for row in best.values()))
    return bool(detail)


def check_summary(name: str, summary: dict, goldens: Dict[str, dict],
                  report_name=None) -> str:
    """Empty string when a run's summary is correct, else the reason.

    Golden scenarios must match their pinned report bit for bit, other
    comparisons must meet their deadlines, custom kinds their own criterion.
    """
    if name in goldens:
        golden = goldens[name]
        for key in REPORT_FIELDS:
            if key == "name" and report_name is None:
                continue
            value = report_name if key == "name" else summary.get(key)
            if value != golden[key]:
                return f"{key} = {value!r}, golden {golden[key]!r}"
        return ""
    if "deadlines_met" in summary:
        return "" if summary["deadlines_met"] is True else "deadline missed"
    return ("" if custom_ok(name, summary.get("detail") or {})
            else "custom scenario criterion failed")


def measure(state: State, tracer=None) -> Measurement:
    from repro.scenarios import run_scenario

    result = Measurement(tracer=tracer)
    result.between_ops()
    for index, name in enumerate(state.names):
        try:
            with result.timed(), op_scope(tracer, index):
                run = run_scenario(name)
        except Exception as error:  # counted as a failed op
            result.errors[index] = f"{type(error).__name__}: {error}"
            result.outputs.append(None)
        else:
            result.units += 1
            report_name = run.report.name if run.report is not None else None
            result.outputs.append(check_summary(name, run.summary(),
                                                state.goldens, report_name))
        result.between_ops()
    result.wall_s = sum(result.latencies)
    return result


def check(state: State, measurement: Measurement) -> Dict[int, str]:
    return {index: reason for index, reason in enumerate(measurement.outputs)
            if reason}
