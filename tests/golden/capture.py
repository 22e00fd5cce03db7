#!/usr/bin/env python3
"""Regenerate the golden-parity fixtures for the scenario subsystem.

Run from the repo root (``PYTHONPATH=src python tests/golden/capture.py``)
*before* touching the use-case drivers: the JSON files pin the exact outputs
of the paper comparisons (E1, E2, E3, E6) for the default fixed seeds, and
``tests/test_scenarios.py`` asserts the refactored pipeline reproduces every
float bit-for-bit.
"""

from __future__ import annotations

import json
import pathlib

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent


def report_dict(report) -> dict:
    return {
        "name": report.name,
        "baseline_time_s": report.baseline_time_s,
        "teamplay_time_s": report.teamplay_time_s,
        "baseline_energy_j": report.baseline_energy_j,
        "teamplay_energy_j": report.teamplay_energy_j,
        "deadline_s": report.deadline_s,
        "deadlines_met": report.deadlines_met,
        "performance_improvement_pct": report.performance_improvement_pct,
        "energy_improvement_pct": report.energy_improvement_pct,
    }


def front_dict(front) -> list:
    return [
        {
            "config": variant.config.short_name(),
            "wcet_time_s": variant.wcet_time_s,
            "energy_j": variant.energy_j,
            "code_size_bytes": variant.code_size_bytes,
        }
        for variant in front
    ]


def capture_camera_pill() -> dict:
    from repro.usecases import camera_pill

    comparison = camera_pill.run_comparison()
    return {
        "report": report_dict(comparison.report),
        "radio_energy_per_frame_j": comparison.radio_energy_per_frame_j,
        "certificate_valid": comparison.certificate_valid,
        "selected_config": comparison.teamplay.variant.config.short_name(),
        "pareto_front": front_dict(comparison.teamplay.pareto_front),
    }


def capture_space() -> dict:
    from repro.usecases import space

    comparison = space.run_comparison()
    return {
        "report": report_dict(comparison.report),
        "baseline_energy_per_period_j": comparison.baseline_energy_per_period_j,
        "teamplay_energy_per_period_j": comparison.teamplay_energy_per_period_j,
        "spacewire_energy_per_period_j": comparison.spacewire_energy_per_period_j,
        "deadline_misses": comparison.executive_log.deadline_misses,
        "all_deadlines_met": comparison.all_deadlines_met,
        "selected_config": comparison.teamplay.variant.config.short_name(),
        "pareto_front": front_dict(comparison.teamplay.pareto_front),
    }


def capture_uav_sar() -> dict:
    from repro.usecases import uav

    comparison = uav.run_sar_comparison()
    return {
        "report": report_dict(comparison.report),
        "baseline_software_power_w": comparison.baseline_software_power_w,
        "teamplay_software_power_w": comparison.teamplay_software_power_w,
        "baseline_flight_time_s": comparison.baseline_flight_time_s,
        "teamplay_flight_time_s": comparison.teamplay_flight_time_s,
        "flight_time_gain_s": comparison.flight_time_gain_s,
    }


def capture_ecg_wearable() -> dict:
    """The extra scenario whose TeamPlay side analyses path-sensitively.

    Pins the full comparison plus the pruning counters (wall time excluded
    — it is nondeterministic) and the selected configuration's short name,
    which must carry the ``paths`` flag.
    """
    from repro.scenarios.runner import run_scenario

    result = run_scenario("ecg-wearable")
    analysis = result.cache_stats["analysis"]
    return {
        "report": report_dict(result.report),
        "selected_config":
            result.teamplay.build.variant.config.short_name(),
        "baseline_config":
            result.baseline.build.variant.config.short_name(),
        "path_counters": {
            key: analysis[key]
            for key in ("path_units", "path_unit_hits", "paths_enumerated",
                        "paths_pruned", "path_cap_fallbacks",
                        "path_irregular_fallbacks")
        },
    }


def capture_parking_tk1() -> dict:
    from repro.usecases import deep_learning

    comparison = deep_learning.run_tk1_comparison()
    return {
        "report": report_dict(comparison.report),
        "teamplay_energy_j": comparison.teamplay_energy_j,
        "manual_energy_j": comparison.manual_energy_j,
        "energy_ratio": comparison.energy_ratio,
        "time_ratio": comparison.time_ratio,
    }


# -- AST goldens -------------------------------------------------------------
# One parse tree per experiment source, serialised by ``ast_to_dict``: E1/E2
# are the TeamPlay-C programs of the simple-architecture use cases, E3/E6
# are complex-kind scenarios whose compiled kernels come from ``repro.dl``
# (the SAR track task runs matmul, the parking detector conv2d).
# ``tests/test_frontend_cursor.py`` asserts the parser reproduces these
# bit-for-bit.

def _ast_capture(source_fn):
    def capture() -> dict:
        from repro.frontend import parse
        from repro.frontend.ast_nodes import ast_to_dict

        return ast_to_dict(parse(source_fn()))
    return capture


def _camera_pill_source() -> str:
    from repro.usecases.camera_pill import CAMERA_PILL_SOURCE
    return CAMERA_PILL_SOURCE


def _space_source() -> str:
    from repro.usecases.space import SPACE_SOURCE
    return SPACE_SOURCE


def _matmul_source() -> str:
    from repro.dl.kernels import matmul_kernel_source
    return matmul_kernel_source()


def _conv2d_source() -> str:
    from repro.dl.kernels import conv2d_kernel_source
    return conv2d_kernel_source()


def main() -> None:
    captures = {
        "camera_pill_e1.json": capture_camera_pill,
        "space_e2.json": capture_space,
        "uav_sar_e3.json": capture_uav_sar,
        "parking_tk1_e6.json": capture_parking_tk1,
        "ecg_wearable.json": capture_ecg_wearable,
        "ast_camera_pill_e1.json": _ast_capture(_camera_pill_source),
        "ast_space_e2.json": _ast_capture(_space_source),
        "ast_matmul_e3.json": _ast_capture(_matmul_source),
        "ast_conv2d_e6.json": _ast_capture(_conv2d_source),
    }
    for filename, capture in captures.items():
        path = GOLDEN_DIR / filename
        path.write_text(json.dumps(capture(), indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
