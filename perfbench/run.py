#!/usr/bin/env python3
"""The repository benchmark: one workload, one run, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload {dse-cold,scenario-sweep,svc-keepalive}
                             --seed N --seconds S --trace {0,1} [--ops N]

Every run does the same work for a given ``--seconds``: the op count is
fixed from it, never bounded by the clock.  ``--ops`` truncates the op
sequence (self-tests).  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
pass, which replays the same op sequence after an untraced one so the gap
in ``work_per_s`` gives the tracing overhead.  Output checks run outside the
timed region; an op that raised, ended unsuccessfully or failed its check
counts in ``failed``.  The full record (environment, per-op statistics,
per-layer self-time shares) goes to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import sys

import harness

harness.require_program()

import tracing  # noqa: E402

#: End-to-end metrics of the untraced run, with their units.
END_TO_END = {"setup_s": "s", "op_p50_s": "s", "work_per_s": "1/s",
              "peak_rss_mb": "MB"}
#: ``op_p90_s`` needs at least ten samples beyond it.
P90_MIN_OPS = 100


def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=0,
                        help="truncate the op sequence to N ops")
    return parser.parse_args(argv)


def setup_samples(module, args) -> list:
    """``SETUP_SAMPLES`` fresh-process set-ups, each normalised to the
    reference machine speed (set-up is CPU-bound imports)."""
    if module.IN_PROCESS:
        return [harness.probe_setup_s(args.workload, args.seed, args.seconds,
                                      args.ops)
                for _ in range(harness.SETUP_SAMPLES)]
    return [module.probe_setup_s(args.seed, args.seconds, args.ops)
            for _ in range(harness.SETUP_SAMPLES)]


def traced_measure(module, state):
    """Measure once with every layer boundary wrapped."""
    tracer = tracing.Tracer()
    if module.IN_PROCESS:
        tracing.install(tracer)
    try:
        measurement = module.measure(state, tracer)
    finally:
        tracer.restore()
    return measurement, tracer


def end_to_end(measurement, setup, failed: int):
    latencies = measurement.normalized()
    values = {
        "setup_s": statistics.median(setup),
        "op_p50_s": harness.quantile(latencies, 0.5),
        "work_per_s": measurement.rate(),
        "peak_rss_mb": measurement.extra.get("peak_rss_mb",
                                             harness.peak_rss_mb()),
    }
    extra = {"fail_ratio": (failed / len(latencies), "ratio")}
    if len(latencies) >= P90_MIN_OPS:
        extra["op_p90_s"] = (harness.quantile(latencies, 0.9), "s")
    return values, extra


def main(argv=None) -> int:
    args = _parse(argv)
    module = importlib.import_module(harness.WORKLOADS[args.workload])
    allowed, pinned_cpu = harness.pin_to_current_cpu()
    setup = setup_samples(module, args)
    state = module.prepare(args.seed, args.seconds, args.ops)
    if not module.IN_PROCESS:
        # Server and client each get a CPU while the stream runs.
        os.sched_setaffinity(0, allowed)

    measurement = module.measure(state)
    tracer = None
    if args.trace:
        plain = measurement
        measurement, tracer = traced_measure(module, state)
    failures = dict(measurement.errors)
    failures.update(module.check(state, measurement))
    attempted = len(measurement.latencies)

    env = harness.environment(args.workload, args.seed, attempted, allowed,
                              pinned_cpu)
    values, extra = end_to_end(measurement, setup, len(failures))
    record = {"environment": env, "setup_samples_s": setup,
              "unit_of_work": module.UNIT, "failures": failures,
              "raw": {"op_p50_s": harness.quantile(measurement.latencies,
                                                   0.5),
                      "work_per_s": measurement.units / measurement.wall_s,
                      "latencies_s": measurement.latencies,
                      "speed_samples_s": measurement.speed,
                      "speed_slices": measurement.speed_slices}}
    if tracer is None:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        printed = {name: (values[name], unit)
                   for name, unit in END_TO_END.items()}
        printed.update(extra)
    else:
        spans = tracer.export()["spans"]
        requests = measurement.extra.get("requests", 0)
        layer = tracing.layer_metrics(spans, tracer.counters, attempted,
                                      requests)
        plain_rate = plain.rate()
        layer["trace.overhead_pct"] = (
            100.0 * (plain_rate - values["work_per_s"]) / plain_rate)
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in tracing.PER_LAYER_UNITS.items()}
        printed = {name: (layer[name], unit)
                   for name, unit in tracing.PER_LAYER_UNITS.items()}
        record["layer_shares"] = tracing.layer_shares(
            spans, sum(measurement.latencies))
        for row in record["layer_shares"]:
            print(f"  layer {row['layer']:<14} self {row['self_s']:.4f} s  "
                  f"share {row['share_of_op_time']:.4f}")
    record["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in printed.items()}
    harness.write_record(
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json", record)

    for name, (value, unit) in printed.items():
        print(f"  {args.workload} {name}: {value:.6g} {unit}")
    print("env: " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
