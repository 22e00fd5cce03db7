"""Rendering per-pass pipeline timings: the ``--profile`` view.

The :class:`~repro.compiler.pipeline.manager.PassManager` counts every
pass's invocations and wall time; this module turns one ``stats()``
snapshot — or many folded with :func:`repro.counters.sum_counters` (e.g.
the ``pipeline_stats`` of every
:class:`~repro.scenarios.spec.ScenarioResult` in a sweep) — into
something a human can read:

* :func:`profile_rows` — JSON-ready rows with derived per-pass metrics
  (average milliseconds per invocation, share of the total wall time),
  ordered by pipeline stage and descending wall time,
* :func:`render_profile` — the plain-text table printed by
  ``python -m repro.scenarios run --profile``.

The same rows appear as the ``profile`` field of ``run --profile --json``
and inside the evaluation service's ``GET /stats`` ``pipeline`` document,
so the CLI view and the service rollup read identically.
"""

from __future__ import annotations

from typing import Dict, List

from repro.compiler.pipeline.passes import STAGES

#: Stages the toolchains time through ``PassManager.timed`` without
#: registering a pass (CSL parsing reports as ``frontend``; profiling and
#: scheduling belong to the complex workflow / coordination layer).  They
#: sort after the registered pipeline stages, in this order.
_EXTRA_STAGES = ("profiling", "coordination")


def _stage_rank(stage: str) -> int:
    if stage in STAGES:
        return STAGES.index(stage)
    if stage in _EXTRA_STAGES:
        return len(STAGES) + _EXTRA_STAGES.index(stage)
    return len(STAGES) + len(_EXTRA_STAGES)


def profile_rows(totals: Dict[str, Dict[str, object]]
                 ) -> List[Dict[str, object]]:
    """JSON-ready profile rows derived from an aggregated stats mapping.

    Each row carries the raw counters (``stage``, ``invocations``,
    ``wall_s``) plus ``avg_ms`` (mean wall time per invocation) and
    ``share_pct`` (this pass's share of the total wall time).  Rows are
    ordered by pipeline stage, then by descending wall time within a stage
    — the order the table renders in.
    """
    total_wall = sum(float(row["wall_s"]) for row in totals.values())
    rows = []
    for name, row in totals.items():
        invocations = int(row["invocations"])
        wall_s = float(row["wall_s"])
        derived = {
            "pass": name,
            "stage": row["stage"],
            "invocations": invocations,
            "wall_s": wall_s,
            "avg_ms": (wall_s / invocations * 1e3) if invocations else 0.0,
            "share_pct": (wall_s / total_wall * 100.0) if total_wall else 0.0,
        }
        # Synthetic rows may carry extra counters (the path-feasibility
        # row's paths_enumerated/paths_pruned etc.); pass them through so
        # `--profile --json` and the service `GET /stats` expose them.
        for key, value in row.items():
            if key not in derived and key != "stage":
                derived[key] = value
        rows.append(derived)
    rows.sort(key=lambda r: (_stage_rank(str(r["stage"])), -r["wall_s"],
                             r["pass"]))
    return rows


def render_profile(totals: Dict[str, Dict[str, object]],
                   title: str = "pipeline profile") -> str:
    """The plain-text per-pass timing table (the ``--profile`` output)."""
    rows = profile_rows(totals)
    if not rows:
        return f"{title}: no pipeline timings recorded"
    headers = ("pass", "stage", "invocations", "wall ms", "avg ms", "share")
    body = [(str(row["pass"]), str(row["stage"]),
             str(row["invocations"]),
             f"{row['wall_s'] * 1e3:.2f}",
             f"{row['avg_ms']:.3f}",
             f"{row['share_pct']:5.1f}%")
            for row in rows]
    widths = [max(len(headers[i]), *(len(line[i]) for line in body))
              for i in range(len(headers))]
    def fmt(line):
        left = line[0].ljust(widths[0]) + "  " + line[1].ljust(widths[1])
        right = "  ".join(line[i].rjust(widths[i])
                          for i in range(2, len(headers)))
        return left + "  " + right
    total_wall = sum(float(row["wall_s"]) for row in totals.values())
    lines = [title, fmt(headers), "-" * len(fmt(headers))]
    lines.extend(fmt(line) for line in body)
    lines.append(f"total wall time: {total_wall * 1e3:.2f} ms")
    return "\n".join(lines)
