"""In-memory span tracing around the program's public layer boundaries.

The traced run installs wrappers around the calls each layer exposes (see
:func:`install`).  A wrapper records one span — name, start, end, parent
span and op id — in memory; nothing is written until the run ends.
Wrappers that also count (cache hit deltas, IR size, unique
configurations) add to ``Tracer.counters``.  A layer's self time is its
span minus the time its direct child spans cover.

Module-level functions are patched where their caller looks them up (for
example ``analyse_schedule`` in both toolchain modules), methods on their
class, so every caller of a boundary is seen.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from typing import Dict, List, Optional

#: Metrics of the traced run: name -> unit.  Times are seconds per op
#: (``http.*``: per HTTP request); ratios are over the whole traced run.
PER_LAYER_UNITS: Dict[str, str] = {
    "pipeline.parse_s": "s",
    "frontend.parse_cache_hit_ratio": "ratio",
    "pipeline.pre_unroll_s": "s",
    "pipeline.unroll_s": "s",
    "pipeline.lower_s": "s",
    "pipeline.ir_passes_s": "s",
    "pipeline.backend_s": "s",
    "pipeline.ir_instructions": "count",
    "engine.builds": "count",
    "engine.variant_hit_ratio": "ratio",
    "engine.lowering_hit_ratio": "ratio",
    "engine.ir_stage_hit_ratio": "ratio",
    "analysis.queries": "count",
    "analysis.hit_ratio": "ratio",
    "analysis.query_s": "s",
    "analysis.table_s": "s",
    "analysis.fingerprint_s": "s",
    "analysis.lookup_s": "s",
    "wcet.paths_enumerated": "count",
    "wcet.paths_pruned": "count",
    "search.self_s": "s",
    "search.front_s": "s",
    "search.unique_ratio": "ratio",
    "toolchain.build_s": "s",
    "coordination.schedule_s": "s",
    "coordination.schedulability_s": "s",
    "coordination.glue_s": "s",
    "contracts.check_s": "s",
    "security.analyze_s": "s",
    "dl.train_s": "s",
    "http.rtt_s": "s",
    "http.handler_s": "s",
    "http.transport_s": "s",
    "service.submit_s": "s",
    "queue.wait_s": "s",
    "worker.run_s": "s",
    "store.hit_ratio": "ratio",
    "queue.dedup_ratio": "ratio",
    "journal.append_s": "s",
    "journal.bytes_per_job": "bytes",
    "persist.put_s": "s",
    "trace.spans": "count",
    "trace.overhead_pct": "%",
}

#: Span name -> per-layer time metric (inclusive time of outermost spans).
_TIME_METRICS = {
    "frontend.parse": "pipeline.parse_s",
    "pipeline.pre_unroll": "pipeline.pre_unroll_s",
    "pipeline.unroll": "pipeline.unroll_s",
    "pipeline.lower": "pipeline.lower_s",
    "pipeline.ir_passes": "pipeline.ir_passes_s",
    "pipeline.backend": "pipeline.backend_s",
    "analysis.query": "analysis.query_s",
    "analysis.table": "analysis.table_s",
    "analysis.fingerprint": "analysis.fingerprint_s",
    "search.front": "search.front_s",
    "toolchain.build": "toolchain.build_s",
    "coordination.schedule": "coordination.schedule_s",
    "coordination.schedulability": "coordination.schedulability_s",
    "coordination.glue": "coordination.glue_s",
    "contracts.check": "contracts.check_s",
    "security.analyze": "security.analyze_s",
    "dl.train": "dl.train_s",
    "service.submit": "service.submit_s",
    "journal.append": "journal.append_s",
    "persist.put": "persist.put_s",
}


class Tracer:
    """Collects spans and counters in memory for one traced run."""

    def __init__(self):
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[tuple] = []

    # ------------------------------------------------------------- spans --
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def op(self):
        """The op id spans of this thread are attributed to."""
        return getattr(self._local, "op", None)

    @op.setter
    def op(self, value) -> None:
        self._local.op = value

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        record = [name, time.perf_counter(), 0.0,
                  stack[-1] if stack else None, self.op]
        self.spans.append(record)
        stack.append(record)
        try:
            yield record
        finally:
            stack.pop()
            record[2] = time.perf_counter()

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] += value

    # ----------------------------------------------------------- patching --
    def wrap(self, owner, attr: str, name, before=None, after=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``name`` is a span name or a callable ``(args) -> name or None``
        (``None``: call through without a span).  ``before(args)`` returns
        a state handed to ``after(state, args, result)``.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            if span_name is None:
                return original(*args, **kwargs)
            state = before(args) if before is not None else None
            with tracer.span(span_name):
                result = original(*args, **kwargs)
            if after is not None:
                after(state, args, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def absorb(self, exported: dict) -> None:
        """Add the spans and counters another process exported."""
        rows = exported["spans"]
        records = [[name, start, end, None, op]
                   for name, start, end, _parent, op in rows]
        for record, row in zip(records, rows):
            if row[3] is not None:
                record[3] = records[row[3]]
        self.spans.extend(records)
        for key, value in exported["counters"].items():
            self.count(key, value)

    # -------------------------------------------------------------- export --
    def export(self) -> dict:
        """Spans as plain rows (parent as an index) plus the counters."""
        index = {id(record): position
                 for position, record in enumerate(self.spans)}
        rows = [[name, start, end,
                 index.get(id(parent)) if parent is not None else None, op]
                for name, start, end, parent, op in self.spans]
        return {"spans": rows, "counters": dict(self.counters)}


def op_scope(tracer: Optional[Tracer], index: int):
    """The root ``op`` span of op ``index`` (no-op when untraced)."""
    if tracer is None:
        return nullcontext()
    tracer.op = index
    return tracer.span("op")


def install(tracer: Tracer, service: bool = False) -> None:
    """Wrap every layer boundary the benchmark times or counts.

    ``service=True`` also wraps the evaluation service's HTTP handler,
    submission, journal and persistent-store boundaries (used inside the
    traced server process).
    """
    from repro.compiler.engine.batch import BatchEvaluator
    from repro.compiler.engine.cache import AnalysisCache
    from repro.compiler.engine.evaluator import EvaluationEngine
    from repro.compiler.fpa import FlowerPollinationOptimizer
    from repro.compiler.nsga2 import Nsga2Optimizer
    from repro.compiler.pipeline import CompilationPipeline, PassManager
    from repro.contracts.checker import ContractChecker
    from repro.coordination import schedulers
    from repro.dl.network import ParkingNet
    from repro.frontend import parse_cache_stats
    from repro.scenarios.runner import ScenarioRunner
    from repro.security.analyzer import SecurityAnalyzer
    from repro.toolchain.complexflow import ComplexToolchain
    from repro.toolchain.predictable import PredictableToolchain
    from repro.wcet.structural import StructuralCostEngine

    count = tracer.count

    # -- frontend + pipeline ------------------------------------------------
    def parse_before(args):
        return parse_cache_stats()

    def parse_after(state, args, result):
        now = parse_cache_stats()
        count("parse.hits", now["hits"] - state["hits"])
        count("parse.misses", now["misses"] - state["misses"])

    tracer.wrap(CompilationPipeline, "parse", "frontend.parse",
                parse_before, parse_after)
    tracer.wrap(CompilationPipeline, "pre_unroll", "pipeline.pre_unroll")
    tracer.wrap(CompilationPipeline, "unroll_and_lower",
                "pipeline.unroll_and_lower", after=lambda s, a, program:
                count("pipeline.ir_instructions",
                      program.total_instructions))
    tracer.wrap(CompilationPipeline, "ir_passes", "pipeline.ir_passes")
    tracer.wrap(CompilationPipeline, "backend_passes", "pipeline.backend")
    pass_spans = {"unroll-loops": "pipeline.unroll",
                  "lower-to-ir": "pipeline.lower"}
    tracer.wrap(PassManager, "run", lambda args: pass_spans.get(args[1]))

    # -- evaluation engine --------------------------------------------------
    def engine_counts(engine):
        return (engine.variants.hits, engine.variants.misses,
                engine.lowering.hits, engine.lowering.misses,
                engine.ir_stage.hits, engine.ir_stage.misses)

    def engine_after(state, args, result):
        delta = [b - a for a, b in zip(state, engine_counts(args[0]))]
        for key, value in zip(("variant.hits", "variant.misses",
                               "lowering.hits", "lowering.misses",
                               "ir_stage.hits", "ir_stage.misses"), delta):
            count(key, value)

    tracer.wrap(EvaluationEngine, "evaluate", "engine.evaluate",
                lambda args: engine_counts(args[0]), engine_after)

    # -- analysis -----------------------------------------------------------
    def analysis_name(args):
        # wcec calls wcet internally: only the outermost call is a query.
        stack = tracer._stack()
        return (None if stack and stack[-1][0] == "analysis.query"
                else "analysis.query")

    def analysis_before(args):
        cache = args[0]
        path = cache.path_stats()["totals"]
        return (cache.hits, cache.misses, path["paths_enumerated"],
                path["paths_pruned"])

    def analysis_after(state, args, result):
        cache = args[0]
        path = cache.path_stats()["totals"]
        count("analysis.queries")
        count("analysis.hits", cache.hits - state[0])
        count("analysis.misses", cache.misses - state[1])
        count("wcet.paths_enumerated", path["paths_enumerated"] - state[2])
        count("wcet.paths_pruned", path["paths_pruned"] - state[3])

    for method in ("wcet", "wcec"):
        tracer.wrap(AnalysisCache, method, analysis_name,
                    analysis_before, analysis_after)
    tracer.wrap(StructuralCostEngine, "function_cost", "analysis.table")
    tracer.wrap(importlib.import_module("repro.compiler.engine.cache"),
                "program_fingerprint", "analysis.fingerprint")

    # -- search -------------------------------------------------------------
    tracer.wrap(FlowerPollinationOptimizer, "optimize", "search.optimize")
    tracer.wrap(Nsga2Optimizer, "optimize", "search.optimize")

    def batch_after(state, args, result):
        configs = list(args[1])
        transform = args[0].config_transform
        if transform is not None:
            configs = [transform(config) for config in configs]
        count("search.requested", len(configs))
        count("search.unique", len(set(configs)))

    tracer.wrap(BatchEvaluator, "evaluate", "search.batch", after=batch_after)
    for path in ("repro.compiler.fpa", "repro.compiler.nsga2",
                 "repro.compiler.driver", "repro.toolchain.predictable"):
        tracer.wrap(importlib.import_module(path), "pareto_front",
                    "search.front")
    tracer.wrap(importlib.import_module("repro.compiler.nsga2"),
                "non_dominated_sort", "search.front")

    # -- toolchain, coordination, contracts, security, dl -------------------
    tracer.wrap(ScenarioRunner, "run", "scenario.run")
    tracer.wrap(PredictableToolchain, "build", "toolchain.build")
    tracer.wrap(ComplexToolchain, "build", "toolchain.build")
    for cls in (schedulers.SequentialScheduler,
                schedulers.TimeGreedyScheduler,
                schedulers.EnergyAwareScheduler):
        tracer.wrap(cls, "schedule", "coordination.schedule")
    for path in ("repro.toolchain.predictable", "repro.toolchain.complexflow"):
        tracer.wrap(importlib.import_module(path), "analyse_schedule",
                    "coordination.schedulability")
        tracer.wrap(importlib.import_module(path), "generate_glue_code",
                    "coordination.glue")
    tracer.wrap(ContractChecker, "check", "contracts.check")
    tracer.wrap(SecurityAnalyzer, "analyze_task", "security.analyze")
    tracer.wrap(ParkingNet, "train", "dl.train")

    if service:
        _install_service(tracer)


def _install_service(tracer: Tracer) -> None:
    from repro.compiler.engine.persist import PersistentCacheStore
    from repro.service.core import EvaluationService
    from repro.service.http import ServiceRequestHandler
    from repro.service.journal import JobJournal

    def handler_name(args):
        # The client tags each request with its op id; server spans of the
        # handler thread are attributed to that op.
        tracer.op = args[0].headers.get("X-Bench-Op")
        return "http.handler"

    for method in ("do_GET", "do_POST"):
        tracer.wrap(ServiceRequestHandler, method, handler_name)
    for method in ("submit", "submit_batch"):
        tracer.wrap(EvaluationService, method, "service.submit")
    for method in ("record_submit", "record_finish"):
        tracer.wrap(JobJournal, method, "journal.append")
    tracer.wrap(PersistentCacheStore, "put", "persist.put")


# ---------------------------------------------------------------------------
# Span analysis
# ---------------------------------------------------------------------------
def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def span_totals(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """Per span name: inclusive time of its outermost spans, and self time.

    ``spans`` rows are ``[name, start, end, parent_index, op]``.
    """
    children_time = defaultdict(float)
    for name, start, end, parent, _op in spans:
        if parent is not None:
            children_time[parent] += end - start
    totals: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"inclusive_s": 0.0, "self_s": 0.0, "count": 0})
    for position, (name, start, end, parent, _op) in enumerate(spans):
        row = totals[name]
        row["count"] += 1
        row["self_s"] += (end - start) - children_time[position]
        ancestor = parent
        nested = False
        while ancestor is not None:
            if spans[ancestor][0] == name:
                nested = True
                break
            ancestor = spans[ancestor][3]
        if not nested:
            row["inclusive_s"] += end - start
    return dict(totals)


def layer_shares(spans: List[list], op_time_s: float) -> List[dict]:
    """Rows of each layer's self time and its share of the summed op time."""
    self_by_layer = defaultdict(float)
    for name, row in span_totals(spans).items():
        self_by_layer[_layer(name)] += row["self_s"]
    return [{"layer": layer, "self_s": round(value, 6),
             "share_of_op_time": round(value / op_time_s, 4)
             if op_time_s > 0 else 0.0}
            for layer, value in sorted(self_by_layer.items(),
                                       key=lambda item: -item[1])]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: List[list], counters: Dict[str, float], ops: int,
                  requests: int) -> Dict[str, float]:
    """Derive every per-layer metric except ``trace.overhead_pct``."""
    totals = span_totals(spans)

    def inclusive(name: str) -> float:
        return totals.get(name, {}).get("inclusive_s", 0.0)

    metrics = {metric: inclusive(name) / ops
               for name, metric in _TIME_METRICS.items()}
    c = defaultdict(float, counters)
    metrics["frontend.parse_cache_hit_ratio"] = _ratio(
        c["parse.hits"], c["parse.hits"] + c["parse.misses"])
    metrics["pipeline.ir_instructions"] = c["pipeline.ir_instructions"]
    metrics["engine.builds"] = c["variant.misses"]
    for key in ("variant", "lowering", "ir_stage"):
        metrics[f"engine.{key}_hit_ratio"] = _ratio(
            c[f"{key}.hits"], c[f"{key}.hits"] + c[f"{key}.misses"])
    metrics["analysis.queries"] = c["analysis.queries"]
    metrics["analysis.hit_ratio"] = _ratio(
        c["analysis.hits"], c["analysis.hits"] + c["analysis.misses"])
    metrics["analysis.lookup_s"] = max(
        0.0, metrics["analysis.query_s"] - metrics["analysis.table_s"]
        - metrics["analysis.fingerprint_s"])
    metrics["wcet.paths_enumerated"] = c["wcet.paths_enumerated"]
    metrics["wcet.paths_pruned"] = c["wcet.paths_pruned"]
    metrics["search.self_s"] = (
        totals.get("search.optimize", {}).get("self_s", 0.0) / ops)
    metrics["search.unique_ratio"] = _ratio(c["search.unique"],
                                            c["search.requested"])
    rtt = inclusive("client.request")
    handler = inclusive("http.handler")
    metrics["http.rtt_s"] = _ratio(rtt, requests)
    metrics["http.handler_s"] = _ratio(handler, requests)
    metrics["http.transport_s"] = _ratio(rtt - handler, requests)
    metrics["queue.wait_s"] = _ratio(c["queue.wait_total_s"],
                                     c["jobs.computed"])
    metrics["worker.run_s"] = _ratio(c["worker.run_total_s"],
                                     c["jobs.computed"])
    metrics["store.hit_ratio"] = _ratio(
        c["store.hits"], c["store.hits"] + c["store.misses"])
    metrics["queue.dedup_ratio"] = _ratio(c["queue.deduplicated"],
                                          c["queue.submitted"])
    metrics["journal.bytes_per_job"] = _ratio(c["journal.bytes"],
                                              c["journal.jobs"])
    metrics["trace.spans"] = len(spans)
    return metrics
