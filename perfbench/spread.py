#!/usr/bin/env python3
"""Same-code spread of the end-to-end metrics behind the bounds.

Runs ``perfbench/run.py`` once per seed on each workload, one run at a time,
and reports per workload and metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread: the
interquartile distance as a share of the median.  ``--traced`` adds one
traced run per workload (first seed): its per-layer metrics and each
layer's self time as a share of the op time.  Usage::

    python3 perfbench/spread.py --seeds 1-10 [--traced] [--out FILE]

The workloads and the run length are always those of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _record(workload: str, seed: int, trace: int) -> dict:
    """The full record ``run.py`` stored for one run."""
    path = (ROOT / ".bench_work" / "results"
            / f"{workload}-seed{seed}-trace{trace}.json")
    return json.loads(path.read_text())


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else 0.0,
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/spread.py")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = config["run_seconds"]
    workloads = [entry["name"] for entry in config["workloads"]]
    bounds = {entry["name"]: entry["bound"] for entry in config["end_to_end"]}
    report = {"seeds": args.seeds, "seconds": seconds, "workloads": {}}
    for workload in workloads:
        results = []
        for seed in _seeds(args.seeds):
            result = run_once(workload, seed, seconds)
            results.append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name}={metric['value']:.4g}"
                for name, metric in result["metrics"].items())
                + f", failed={result['failed']}", flush=True)
        rows = {}
        for name in bounds:
            row = summarize([result["metrics"][name]["value"]
                             for result in results])
            row["bound"] = bounds[name]
            rows[name] = row
            print(f"  {workload} {name}: median {row['median']:.4g} "
                  f"spread {row['spread']:.3f} (bound {bounds[name]})",
                  flush=True)
        report["workloads"][workload] = {
            "metrics": rows,
            "failed": sum(result["failed"] for result in results),
            "attempted": sum(result["attempted"] for result in results),
            "environment": _record(workload, _seeds(args.seeds)[-1],
                                   0)["environment"],
        }
        if args.traced:
            seed = _seeds(args.seeds)[0]
            traced = run_once(workload, seed, seconds, trace=1)
            record = _record(workload, seed, 1)
            report["workloads"][workload]["traced"] = {
                "seed": seed, "failed": traced["failed"],
                "metrics": record["metrics"],
                "layer_shares": record["layer_shares"],
            }
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
