"""Caches of the batched variant-evaluation engine.

Three cache stages, from coarsest to finest.  Every config-keyed stage
takes its key from the pipeline's
:class:`~repro.compiler.pipeline.PassManager`, so registering a
configurable pass widens every downstream key:

1. :class:`VariantCache` — fully evaluated :class:`Variant` objects keyed on
   the *canonical key* of their :class:`CompilerConfig`.  Configurations that
   compare equal (however they were constructed: directly, via ``with_`` or
   decoded from genes) share one entry, so revisited points of the search
   space cost a dictionary lookup across generations *and* across optimiser
   runs.  It is the one variant memo: the optimisers keep none of their own.
2. :class:`BuildCache` — one source module's build units (its functions)
   after each step of their build chains (each AST pass, lowering, each
   IR pass), one :class:`BuildTable` per stage keyed by
   :meth:`~repro.compiler.pipeline.PassManager.step_key`.  A function's
   key holds only the configuration fields that can change it, and a
   pass that changed nothing leaves it as it was, so a configuration
   re-lowers and re-optimises only what it changes, and every variant's
   program is assembled from shared functions.
3. :class:`AnalysisCache` — worst-case costs, computed on demand: a query
   costs only its entry's call closure.  Each function's cost is memoised
   across programs per cost scope (analysis kind, the core's cost model,
   operating point, path mode) under the function's structural
   fingerprint and its callees' costs, so a function shared by many
   variants is costed once per distinct callee costs, and twin cores share
   every scope.  What reads no price, a path-sensitive unit's feasible
   paths, is derived once for every scope.  Every further query of the
   same program — other task entry points, other operating points (cycle
   counts are frequency-independent), the coordination layer's per-core
   sweeps — is a lookup in that program's lazily filled table.

All stages are exact: cached results are bit-for-bit identical to what
the uncached pipeline produces (covered by ``tests/test_engine.py`` and
``tests/test_function_builds.py``).

Every cache reports hit/miss counters through ``stats()``.  The variant
cache and the build tables are unbounded: they live as long as the driver
that owns them.  Only the :class:`AnalysisCache` takes a ``max_entries``
cap (its least-recently-used program tables are evicted and counted; its
function memos are bounded by :data:`~repro.wcet.structural.MEMO_LIMIT`),
because the process-wide one outlives every driver in a long-running
service.
Inside a :func:`shared_analysis_caches` scope every driver and toolchain
targeting the same platform shares one *process-wide* :class:`AnalysisCache`,
so cross-scenario sweeps reuse WCET/WCEC tables; the evaluation service and
``python -m repro.scenarios run`` run inside one.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import asdict, fields
from operator import attrgetter
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

from repro.compiler.config import CompilerConfig
from repro.compiler.engine import persist as _persist
from repro.counters import _BoundedCacheMixin
from repro.energy.static_analyzer import EnergyAnalyzer, WCECResult
from repro.hw.core import Core
from repro.hw.dvfs import OperatingPoint
from repro.hw.platform import Platform
from repro.ir.cfg import Function, Program
from repro.ir.instructions import Reg
from repro.ir.regions import (
    BlockRegion,
    IfRegion,
    LoopRegion,
    Region,
    SeqRegion,
)
from repro.ir.runs import Run, flat_map
from repro.wcet.analyzer import WCETResult, reject_recursion, worst_cost
from repro.wcet.paths import PathSensitiveCostEngine, PathStats, contains_if
from repro.wcet.structural import (CalleeKeyedMemo, StructuralCostEngine,
                                   call_closure, memo_put, memoised_callees)

if TYPE_CHECKING:
    from repro.compiler.pipeline.manager import PassManager

#: Attribute used to memoise a program's structural fingerprint.  The engine
#: computes it only after all IR passes have run; the IR is immutable from
#: then on as far as the evaluation pipeline is concerned.
_FINGERPRINT_ATTR = "_engine_fingerprint"

#: Attribute used to memoise a program's path-sensitive fingerprint.
_PATH_FINGERPRINT_ATTR = "_engine_path_fingerprint"

#: Attribute used to memoise a program's call closures, by entry.
_CLOSURES_ATTR = "_engine_closures"

#: The same two memos per function: the engine's programs share their
#: functions, so each is fingerprinted once, not once per variant.
_FUNCTION_FINGERPRINT_ATTR = "_engine_function_fingerprint"
_FUNCTION_OPERANDS_ATTR = "_engine_function_operands"
#: A function's path-sensitive memo key (fingerprint and operands), and
#: whether it passed :meth:`Function.validate`.
_FUNCTION_PATH_KEY_ATTR = "_engine_function_path_key"
_FUNCTION_VALIDATED_ATTR = "_engine_function_validated"

#: Version of the cost analyses, in every on-disk digest: bump it when a
#: change to the analysers changes a bound, so a warm ``--cache-dir``
#: misses instead of serving the old one.
ANALYSIS_VERSION = 1

#: Local alias for the fingerprint hot path.  Enum members (not ``.value``)
#: keep it fast: accessing ``Opcode.value`` goes through a descriptor on
#: every instruction.
_signature_of = attrgetter("opcode", "callee", "array")
_operands_of = attrgetter("dst", "srcs", "args", "true_target",
                          "false_target")


class VariantCache(_BoundedCacheMixin):
    """Cross-generation cache of fully evaluated variants.

    Keyed by ``manager``'s full-pipeline key
    (:meth:`~repro.compiler.pipeline.PassManager.canonical_key`), so a
    registered pass widens the key.  Every repeat of a configuration on
    one engine, within a search or across searches, is a hit here.
    """

    def __init__(self, manager: "PassManager"):
        super().__init__()
        self.key = manager.canonical_key
        self._variants: Dict[Tuple, object] = {}

    def __len__(self) -> int:
        return len(self._variants)

    def get(self, config: CompilerConfig):
        variant = self._variants.get(self.key(config))
        if variant is not None:
            self.hits += 1
        return variant

    def put(self, config: CompilerConfig, variant) -> None:
        self.misses += 1
        self._variants[self.key(config)] = variant


class BuildTable(_BoundedCacheMixin):
    """The steps of one stage of the build chains, keyed by
    :meth:`~repro.compiler.pipeline.PassManager.step_key`.

    An entry is ``(key, unit, statistics)``: the unit's key, its module
    (an AST step), program (lowering) or function (an IR step), and its
    pass's counters.  An entry's key is the key it is stored under,
    except for a step whose pass changed nothing: that entry holds the
    step's input key and input.  Entries are shared and never mutated: a
    later step that changes a unit runs on a copy, and lowering only
    reads it.  ``get`` counts a hit, ``put`` a miss (one build).
    """

    def __init__(self):
        super().__init__()
        self._entries: Dict[Tuple, Tuple] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Tuple) -> Optional[Tuple]:
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
        return entry

    def put(self, key: Tuple, unit, statistics: Dict[str, int],
            unit_key: Optional[Tuple] = None) -> Tuple:
        """Store ``unit`` under ``key``, as the unit of ``unit_key``
        (default: ``key``)."""
        self.misses += 1
        entry = self._entries[key] = (
            key if unit_key is None else unit_key, unit, statistics)
        return entry


class BuildCache:
    """One source module's build units, one :class:`BuildTable` per stage
    of their build chains: ``ast``, ``lower`` and ``ir``.

    Shared by every engine of the module.  Each table's counters count
    steps: a miss of the ``ast`` table or of ``ir_stage`` (the ``ir``
    table) is one pass run on one function, a miss of ``lowering`` (the
    ``lower`` table) one function lowering.  ``callees`` memoises, per
    key of a function a callee-reading pass gets, the build units of the
    functions it calls, and ``function_keys`` the narrowed key
    contributions (see
    :meth:`~repro.compiler.pipeline.PassManager.step_key`).
    """

    def __init__(self):
        self.tables = {stage: BuildTable() for stage in ("ast", "lower", "ir")}
        self.lowering = self.tables["lower"]
        self.ir_stage = self.tables["ir"]
        self.callees: Dict[Tuple, List[Tuple]] = {}
        self.function_keys: Dict[Tuple, Optional[Tuple]] = {}


def _region_signature(region: Region) -> Tuple:
    """Cost-relevant serialisation of a region tree (labels and loop bounds)."""
    if isinstance(region, BlockRegion):
        return ("B", region.label)
    if isinstance(region, SeqRegion):
        return ("S",) + tuple(_region_signature(c) for c in region.children)
    if isinstance(region, IfRegion):
        return ("I", region.cond_label,
                _region_signature(region.then_region),
                _region_signature(region.else_region))
    if isinstance(region, LoopRegion):
        return ("L", region.cond_label, region.bound,
                _region_signature(region.body_region))
    raise TypeError(f"unknown region type {type(region)!r}")  # pragma: no cover


class _Fingerprint(tuple):
    """A structural fingerprint that hashes its nested contents only once.

    Equal to, and hashing like, the plain tuple it wraps.  Tuples do not
    cache their hash, so every analysis-table lookup would otherwise re-hash
    the whole nested fingerprint.  The stored hash is never pickled: string
    hashes are salted per process, so unpickling recomputes it.  An
    :class:`AnalysisCache` with a persistent store memoises the on-disk
    digest here too (``_digest``, not pickled either).
    """

    def __new__(cls, items):
        self = super().__new__(cls, items)
        self._hash = tuple.__hash__(self)
        return self

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return _Fingerprint, (tuple(self),)


#: Interned ``(opcode, callee, array)`` signatures: equal programs share
#: their per-instruction tuples, so comparing two equal but distinct
#: fingerprints (a table hit on a rebuilt program) short-circuits on
#: identity.  Only speed depends on identity, so a full table is emptied.
_SIGNATURES: Dict[Tuple, Tuple] = {}
_SIGNATURES_LIMIT = 2 ** 16


def program_fingerprint(program: Program) -> Tuple:
    """Structural fingerprint capturing everything the cost analyses read.

    Two programs with equal fingerprints have identical worst-case cost
    tables on any core of the platform: the fingerprint covers each
    function's placement (``code_region``), its region tree including loop
    bounds, and each block's instruction sequence (opcode, callee, accessed
    array).  Memoised on the program object and on each function — only
    fingerprint programs that will no longer be mutated.  The nested
    tuple's hash is computed once,
    when the fingerprint is built, and recomputed (never unpickled) after a
    pickle round trip.
    """
    cached = getattr(program, _FINGERPRINT_ATTR, None)
    if cached is not None:
        return cached
    table = _SIGNATURES
    if len(table) >= _SIGNATURES_LIMIT:
        table.clear()
    intern = table.setdefault

    def signature_of(instr):
        triple = _signature_of(instr)
        return intern(triple, triple)

    functions = []
    for name, function in program.functions.items():
        cached = getattr(function, _FUNCTION_FINGERPRINT_ATTR, None)
        if cached is None:
            blocks = []
            for label, block in function.blocks.items():
                signature = [label]
                parts = block.parts
                if parts.__class__ is list:
                    triples = list(map(_signature_of, parts))
                    signature.extend(map(intern, triples, triples))
                else:
                    # An unrolled run contributes its template's triples
                    # once per copy, as its flattened instructions would.
                    signature.extend(flat_map(parts, signature_of))
                blocks.append(tuple(signature))
            # Its own hash memo, so hashing the program's fingerprint
            # does not re-hash a shared function's blocks.
            cached = _Fingerprint((name, function.code_region, function.entry,
                                   _region_signature(function.region),
                                   tuple(blocks)))
            setattr(function, _FUNCTION_FINGERPRINT_ATTR, cached)
        functions.append(cached)
    fingerprint = _Fingerprint(functions)
    setattr(program, _FINGERPRINT_ATTR, fingerprint)
    return fingerprint


def _operand_signature(part) -> Tuple:
    """What one instruction reads and writes, registers by name and
    immediates by value (plain JSON for the on-disk digest); a run by its
    renaming and template, which determine every copy."""
    if part.__class__ is Run:
        return (part.count, part.prefix, part.first, part.width,
                tuple(map(_operand_signature, part.template())))
    dst, srcs, args, true_target, false_target = _operands_of(part)
    return (dst and dst.name,
            tuple([op.name if op.__class__ is Reg else op.value
                   for op in srcs]),
            tuple([op.name if op.__class__ is Reg else op.value
                   for op in args]) if args else (),
            true_target, false_target)


def _function_operands(function: Function) -> Optional[Tuple]:
    """The operands of ``function``'s instructions, or ``None`` without an
    ``if``; memoised on the function."""
    try:
        return getattr(function, _FUNCTION_OPERANDS_ATTR)
    except AttributeError:
        signature = (tuple(tuple(map(_operand_signature, block.parts))
                           for block in function.blocks.values())
                     if contains_if(function.region) else None)
        setattr(function, _FUNCTION_OPERANDS_ATTR, signature)
        return signature


def path_fingerprint(program: Program) -> Tuple:
    """:func:`program_fingerprint` plus every instruction's operands.

    The path-sensitive engine prunes on operand values (the constants a
    branch condition compares against, the registers it tests), which the
    structural fingerprint leaves out: ``x > 5`` and ``x > 7`` share a
    structural fingerprint but not a path-sensitive bound.  Only functions
    with an ``if`` contribute operands: the bound of one without reads
    none.  Memoised on the program and each function like the structural
    fingerprint; unrolled runs are not expanded.
    """
    cached = getattr(program, _PATH_FINGERPRINT_ATTR, None)
    if cached is not None:
        return cached
    operands = tuple(map(_function_operands, program.functions.values()))
    fingerprint = _Fingerprint((program_fingerprint(program), operands))
    setattr(program, _PATH_FINGERPRINT_ATTR, fingerprint)
    return fingerprint


#: A function's structural fingerprint, memoised by the program's
#: :func:`program_fingerprint`.
_function_fingerprint = attrgetter(_FUNCTION_FINGERPRINT_ATTR)


def _function_path_key(function: Function) -> Tuple:
    """A function's fingerprint and operands, memoised on the function."""
    key = getattr(function, _FUNCTION_PATH_KEY_ATTR, None)
    if key is None:
        key = _Fingerprint((_function_fingerprint(function),
                            _function_operands(function)))
        setattr(function, _FUNCTION_PATH_KEY_ATTR, key)
    return key


def _closure(program: Program, name: str) -> List[str]:
    """:func:`~repro.wcet.structural.call_closure` of ``name``, memoised on
    the program."""
    closures = getattr(program, _CLOSURES_ATTR, None)
    if closures is None:
        closures = {}
        setattr(program, _CLOSURES_ATTR, closures)
    closure = closures.get(name)
    if closure is None:
        closure = closures[name] = call_closure(program, name,
                                                memoised_callees)
    return closure


def _validate_once(function: Function) -> None:
    """:meth:`Function.validate`, memoised on the function once passed."""
    if not getattr(function, _FUNCTION_VALIDATED_ATTR, False):
        function.validate()
        setattr(function, _FUNCTION_VALIDATED_ATTR, True)


def _model_fields(core: Core) -> Tuple:
    """Every field of ``core`` but its name: its cost model."""
    return tuple([getattr(core, field.name) for field in fields(core)
                  if field.name != "name"])


def _model_digest(core: Core) -> str:
    """A digest of ``core``'s cost model, plain JSON for on-disk keys."""
    model = asdict(core)
    del model["name"]
    return _persist.key_digest("core", model)


class _StructuralCosts(CalleeKeyedMemo, StructuralCostEngine):
    """The cache's structural engine: function costs from one scope."""


class _PathCosts(CalleeKeyedMemo, PathSensitiveCostEngine):
    """The cache's path-sensitive engine: function costs from one scope."""


class _Scope:
    """One cost scope of an :class:`AnalysisCache`: analysis kind, the
    core's cost model (:meth:`AnalysisCache._cost_model`), operating point
    and path mode.

    Holds the scope's cost function and memos, and is the function memo of
    its engines (:class:`~repro.wcet.structural.CalleeKeyedMemo`): a
    function's outcome is keyed by its fingerprint (plus its operands in
    the path-sensitive mode) and its callees' outcomes, bounded by
    :data:`~repro.wcet.structural.MEMO_LIMIT`, and backed by the cache's
    persistent store under the same key.
    """

    def __init__(self, cache: "AnalysisCache", name: Tuple[str, ...],
                 instr_cost, block_memo: Dict, unit_memo: Optional[Dict]):
        self.cache = cache
        self.name = name
        self.instr_cost = instr_cost
        self.block_memo = block_memo
        self.unit_memo = unit_memo
        self.functions: Dict[Tuple, object] = {}
        self.key_of = (_function_fingerprint if unit_memo is None
                       else _function_path_key)

    def engine(self, program: Program, outcomes: Dict[str, object]):
        if self.unit_memo is None:
            return _StructuralCosts(program, self.instr_cost, self.block_memo,
                                    memo=self, outcomes=outcomes)
        return _PathCosts(program, self.instr_cost, self.block_memo,
                          memo=self, outcomes=outcomes,
                          unit_memo=self.unit_memo)

    def recall(self, function: Function, callees: Tuple):
        key = (self.key_of(function), callees)
        outcome = self.functions.get(key)
        if outcome is None and self.cache._store is not None:
            outcome = self.cache._disk_get(self._digest(*key))
            if outcome is not None:
                memo_put(self.functions, key, outcome)
        return outcome

    def remember(self, function: Function, callees: Tuple, outcome) -> None:
        key = (self.key_of(function), callees)
        memo_put(self.functions, key, outcome)
        if self.cache._store is not None:
            self.cache._disk_put(self._digest(*key), outcome)

    def _digest(self, function_key: Tuple, callees: Tuple) -> str:
        """On-disk key of one function outcome: the cache's cost model and
        pass list, this scope, the function and its callees' outcomes.

        Every scope and callee-cost key of a function shares its
        fingerprint's digest, so that is memoised on the fingerprint.
        """
        digest = getattr(function_key, "_digest", None)
        if digest is None:
            digest = function_key._digest = _persist.key_digest(function_key)
        return _persist.key_digest("analysis", self.cache._model_key(),
                                   list(self.name), digest, callees)


class AnalysisCache(_BoundedCacheMixin):
    """Shared WCET/WCEC results, costed on demand per function.

    Bound to one :class:`Platform`.  A query costs only its entry's call
    closure.  Each function's cost (or the analysis error of one that has
    none, e.g. a loop without a bound) goes through one memo per cost scope
    (:class:`_Scope`), shared across programs and keyed by the function's
    fingerprint and its callees' costs; equal callee costs give the same
    left-to-right sum, so a hit is exact.  Per program and scope, a table
    keyed by :func:`program_fingerprint` (:func:`path_fingerprint` in the
    path-sensitive mode) is filled as its functions are queried, so every
    repeated query — other entries, DVFS sweeps, per-core ETS derivation —
    is a dictionary lookup.  Scopes and tables are keyed by the core's
    cost model, never its name, so twin cores share them.  The
    path-sensitive unit memo is shared by every scope: a unit's feasible
    paths are enumerated once, and each scope prices them.

    ``max_entries`` bounds the cycle and energy program tables
    independently.  The per-instruction cost memos stay unbounded (they are
    keyed by opcode and code region, whose population is fixed); the
    block-cost, path-sensitive unit and function memos are emptied when
    they reach :data:`~repro.wcet.structural.MEMO_LIMIT` entries.

    ``store`` attaches a persistent tier
    (:class:`~repro.compiler.engine.persist.PersistentCacheStore`): a
    function the memo misses is looked up on disk before it is costed, and
    each computed function outcome is written through, one record each, so
    warm costs survive process boundaries and restarts.  Its digests cover
    a digest of the whole :class:`Platform` (timing and energy tables,
    memory wait states), :data:`ANALYSIS_VERSION` and ``pass_list_key``
    (defaults to the stock pipeline's
    :func:`~repro.compiler.engine.persist.default_pass_list_key`).
    """

    def __init__(self, platform: Platform, max_entries: Optional[int] = None,
                 store: Optional["_persist.PersistentCacheStore"] = None,
                 pass_list_key: Optional[Tuple] = None):
        super().__init__(max_entries)
        self.platform = platform
        self._store = store
        self._pass_list_key = pass_list_key
        self._model = None
        self.disk_hits = 0
        self.disk_misses = 0
        self.disk_errors = 0
        # Serialises lookups *and* fills: the LRU bookkeeping is a compound
        # read-modify-write over OrderedDicts, and the process-wide shared
        # cache is queried concurrently by the evaluation service's worker
        # threads.  Reentrant because ``wcec`` calls ``wcet``.
        self._lock = threading.RLock()
        self._checked: "OrderedDict[Tuple, bool]" = OrderedDict()
        # Per program and scope: function name -> cost or analysis error.
        self._cycle_tables: "OrderedDict[Tuple, Dict]" = OrderedDict()
        self._energy_tables: "OrderedDict[Tuple, Dict]" = OrderedDict()
        # By the key of their core's cost model.
        self._energy_analyzers: Dict[str, EnergyAnalyzer] = {}
        self._scopes: Dict[Tuple, _Scope] = {}
        # Per-instruction cost memos, per (kind, cost model[, OPP]), keyed by
        # (code region, opcode): all an instruction's worst-case price
        # depends on, so each distinct cost is computed once per scope ever,
        # not once per instruction occurrence per program.
        self._instr_costs: Dict[Tuple, Dict] = {}
        # Cross-program block-cost memos (call-free blocks only), same
        # scopes, and one path-sensitive unit memo for every scope (a
        # unit's feasible paths read no price); all bounded by
        # ``repro.wcet.structural.MEMO_LIMIT``.
        self._block_costs: Dict[Tuple, Dict[Tuple, float]] = {}
        self._unit_outcomes: Dict[Tuple, object] = {}
        # Per core object (``None``: the default core): the core, its
        # energy analyser and the key of its cost model.
        self._analyzers: Dict[int, Tuple[Optional[Core],
                                         Tuple[EnergyAnalyzer, str]]] = {}
        # Path-feasibility counters, accumulated on computes only (memory and
        # disk hits reuse costs whose pruning already happened elsewhere).
        # The per-thread copy lets one run report only its own pruning work
        # on a shared cache: a job runs on one worker thread.
        self._path_totals = PathStats()
        self._thread_paths = threading.local()

    def __len__(self) -> int:
        return len(self._cycle_tables) + len(self._energy_tables)

    def stats(self) -> Dict[str, int]:
        stats = super().stats()
        stats["disk_hits"] = self.disk_hits
        stats["disk_misses"] = self.disk_misses
        stats["disk_errors"] = self.disk_errors
        stats["persistent"] = self._store is not None
        stats["path_units"] = self._path_totals.units
        stats["path_unit_hits"] = self._path_totals.unit_hits
        stats["paths_enumerated"] = self._path_totals.paths_enumerated
        stats["paths_pruned"] = self._path_totals.paths_pruned
        stats["path_cap_fallbacks"] = self._path_totals.cap_fallbacks
        stats["path_irregular_fallbacks"] = \
            self._path_totals.irregular_fallbacks
        return stats

    def path_stats(self) -> Dict[str, Dict[str, float]]:
        """Pruning counters of every path-sensitive analysis this cache ran.

        ``totals`` aggregates across functions: units enumerated, paths
        enumerated / pruned, cap and irregular-flow fallbacks, units served
        by the unit memo (``unit_hits``, which add to nothing else) and the
        wall time of both.
        """
        with self._lock:
            return {"totals": self._path_totals.as_dict()}

    def thread_path_totals(self) -> Dict[str, float]:
        """``path_stats()["totals"]`` of the analyses the calling thread ran.

        Subtracting two readings on one thread gives the pruning work done
        between them, even while other threads use the same cache.
        """
        totals = getattr(self._thread_paths, "totals", None)
        return (totals or PathStats()).as_dict()

    def _note_path_stats(self, engine: PathSensitiveCostEngine) -> None:
        """Fold one engine run's pruning counters into the cache's totals."""
        thread_totals = getattr(self._thread_paths, "totals", None)
        if thread_totals is None:
            self._thread_paths.totals = thread_totals = PathStats()
        for stats in engine.path_stats.values():
            if not (stats.units or stats.unit_hits):
                continue
            self._path_totals.merge(stats)
            thread_totals.merge(stats)

    # -- persistent tier -------------------------------------------------------
    def _model_key(self) -> Tuple:
        """What every on-disk digest of this cache shares: a digest of the
        platform's cost model, :data:`ANALYSIS_VERSION` and the pass list."""
        if self._model is None:
            if self._pass_list_key is None:
                self._pass_list_key = _persist.default_pass_list_key()
            self._model = (_persist.key_digest("platform",
                                               asdict(self.platform)),
                           ANALYSIS_VERSION, self._pass_list_key)
        return self._model

    def _disk_get(self, digest: str):
        """Decode a persisted outcome, or ``None`` (undecodable counts a
        miss)."""
        payload = self._store.get(digest)
        if payload is not None:
            try:
                outcome = _persist.decode_outcome(payload)
            except _persist.PersistError:
                pass
            else:
                self.disk_hits += 1
                return outcome
        self.disk_misses += 1
        return None

    def _disk_put(self, digest: str, outcome) -> None:
        try:
            self._store.put(digest, _persist.encode_outcome(outcome))
        except OSError:
            # A failing disk tier (full, read-only, gone) must not fail the
            # query: detach it from this cache and keep serving from memory,
            # counted in ``stats()["disk_errors"]``.
            self._store = None
            self.disk_errors += 1

    # -- analyzer instances (cost models are deterministic per core) ----------
    def _cost_model(self, core: Core) -> str:
        """The key of ``core``'s cost model, every field but its name: the
        name of the platform's first predictable core with that model (the
        platform digest every on-disk key holds covers it), else a digest
        of the model.  So twin cores share their scopes, and a core keeping
        a platform core's name with other tables shares none of them."""
        model = _model_fields(core)
        for known in self.platform.predictable_cores:
            if _model_fields(known) == model:
                return known.name
        return _model_digest(core)

    def _energy_analyzer(self, core: Optional[Core]
                         ) -> Tuple[EnergyAnalyzer, str]:
        """The energy analyser of ``core``'s cost model (default: the
        platform's first predictable core), whose ``.wcet`` prices cycles,
        and the key of that model.  Memoised per core object (a core is not
        mutated once analysed, like a program)."""
        entry = self._analyzers.get(id(core))
        if entry is not None and entry[0] is core:
            return entry[1]
        fresh = EnergyAnalyzer(self.platform, core=core)
        model = self._cost_model(fresh.core)
        found = self._energy_analyzers.setdefault(model, fresh), model
        memo_put(self._analyzers, id(core), (core, found))
        return found

    def _check_analysable(self, program: Program, fingerprint: Tuple) -> None:
        """:func:`~repro.wcet.analyzer.check_analysable`, once per distinct
        program."""
        if self._touch(self._checked, fingerprint):
            return
        # check_analysable, with each shared function validated once.
        for function in program.functions.values():
            _validate_once(function)
            program.check_callees(function, memoised_callees(function))
        reject_recursion(program, memoised_callees)
        # Bounded like the result tables, but eviction only means a future
        # re-check, so it is not reported in the eviction counter.
        self._checked[fingerprint] = True
        if self.max_entries is not None and len(self._checked) > self.max_entries:
            self._checked.popitem(last=False)

    # -- costs ------------------------------------------------------------------
    def _scope(self, core: Core, model: str, opp: Optional[OperatingPoint],
               path_sensitive: bool) -> _Scope:
        """The cost scope of one analysis on ``core``, whose cost model's
        key is ``model``; ``opp=None`` selects cycles (cycle bounds are
        frequency-independent), an operating point energy."""
        # Instruction and block costs are the same in both analysis modes,
        # so their memos are scoped by kind, cost model and operating point
        # only.
        base = (("cycles", model) if opp is None
                else ("energy", model, opp.label))
        name = base + ("paths",) if path_sensitive else base
        scope = self._scopes.get(name)
        if scope is not None:
            return scope
        instr_cost = worst_cost(core, self.platform.memory, opp,
                                self._instr_costs.setdefault(base, {}))
        scope = self._scopes[name] = _Scope(
            self, name, instr_cost, self._block_costs.setdefault(base, {}),
            self._unit_outcomes if path_sensitive else None)
        return scope

    def _table(self, program: Program, core: Core, model: str,
               opp: Optional[OperatingPoint], path_sensitive: bool,
               name: str) -> Dict[str, float]:
        """``program``'s table in one scope, holding ``name``'s cost;
        ``model`` is the key of ``core``'s cost model.

        ``opp=None`` selects cycles (cycle bounds are
        frequency-independent), an operating point energy.  A table that
        holds ``name`` counts a hit; anything else a miss, which costs
        ``name``'s call closure through the scope's function memo into the
        table.  Raises ``name``'s analysis error.  Path-sensitive tables are
        keyed by :func:`path_fingerprint`, which also covers operands, and
        marked ``"paths"``.
        """
        fingerprint = program_fingerprint(program)
        if opp is None:
            tables, key = self._cycle_tables, (fingerprint, model)
        else:
            tables = self._energy_tables
            key = (fingerprint, model, opp.label)
        if path_sensitive:
            key = (path_fingerprint(program), *key[1:], "paths")
        table = self._touch(tables, key)
        if table is None:
            table = {}
            self._insert(tables, key, table)
        outcome = table.get(name)
        if outcome is not None:
            self.hits += 1
        else:
            self.misses += 1
            self._check_analysable(program, fingerprint)
            engine = self._scope(core, model, opp,
                                 path_sensitive).engine(program, table)
            try:
                outcome = engine.outcome(name)
            finally:
                if path_sensitive:
                    self._note_path_stats(engine)
        if isinstance(outcome, Exception):
            raise outcome
        return table

    # -- public API mirroring the stock analysers ------------------------------
    def wcet(self, program: Program, function_name: str,
             core: Optional[Core] = None,
             opp: Optional[OperatingPoint] = None,
             path_sensitive: bool = False) -> WCETResult:
        """Cached equivalent of ``WCETAnalyzer(...).analyze(...)``.

        ``path_sensitive`` enables infeasible-path pruning
        (:mod:`repro.wcet.paths`); its costs are cached independently of
        the default mode's.
        """
        with self._lock:
            energy, model = self._energy_analyzer(core)
            analyzer = energy.wcet
            table = self._table(program, analyzer.core, model, None,
                                path_sensitive, function_name)
            # The closure's costs are all in the table once its entry is.
            return analyzer.result(program, function_name, table.__getitem__,
                                   opp, _closure(program, function_name))

    def wcec(self, program: Program, function_name: str,
             core: Optional[Core] = None,
             opp: Optional[OperatingPoint] = None,
             path_sensitive: bool = False) -> WCECResult:
        """Cached equivalent of ``EnergyAnalyzer(...).analyze(...)``.

        With ``path_sensitive`` both the dynamic-energy maximisation and the
        WCET bound behind the static-leakage term prune infeasible paths.
        """
        with self._lock:
            analyzer, model = self._energy_analyzer(core)
            opp = opp or analyzer.core.nominal_opp
            dynamic = self._table(program, analyzer.core, model, opp,
                                  path_sensitive, function_name)[function_name]
            wcet_result = self.wcet(program, function_name, analyzer.core,
                                    opp, path_sensitive)
        return analyzer.result(function_name, dynamic, wcet_result, opp)


# ---------------------------------------------------------------------------
# Process-wide analysis caches, shared inside a scope
# ---------------------------------------------------------------------------
#: Bound of every process-wide analysis cache: large enough for a full
#: cross-scenario sweep, small enough to cap a long-running service.
PROCESS_CACHE_DEFAULT_MAX_ENTRIES = 256

#: One ``(per-platform caches, attached store)`` entry per open scope; the
#: last one is in force.  A joining scope's entry shares its outer's caches.
_process_cache_scopes: List[Tuple[Dict[str, AnalysisCache],
                                  Optional["_persist.PersistentCacheStore"]]
                            ] = []
#: Guards the scopes: worker threads of the evaluation service may race to
#: instantiate the cache for one platform.
_process_cache_lock = threading.Lock()


@contextmanager
def shared_analysis_caches(cache_dir: Optional[str] = None
                           ) -> Iterator[
                               Optional["_persist.PersistentCacheStore"]]:
    """Share one bounded :class:`AnalysisCache` per platform inside the block.

    Every toolchain and compiler driver created inside shares the cache of
    its platform *name* (presets are deterministic, so equal names imply
    equal cost models), letting cross-scenario runs reuse WCET/WCEC tables
    across drivers.  ``cache_dir`` attaches a persistent
    :class:`~repro.compiler.engine.persist.PersistentCacheStore` under the
    caches, so tables survive LRU eviction, process boundaries
    (``ProcessPoolExecutor`` workers forked inside inherit the scope and
    open their own handle on the same directory) and restarts.  Yields the
    attached store, or ``None``.

    A scope opened inside another with no directory, or with the directory
    already attached, joins the outer caches and changes nothing on exit.
    Any other scope starts empty caches.  On exit a scope restores exactly
    the state it found: the on/off flag, the attached store and the
    per-platform caches; a scope that outlives the one it was opened in
    keeps its caches until it exits too.  An unusable directory raises
    :class:`~repro.compiler.engine.persist.PersistError` before any state
    changes.
    """
    directory = (None if cache_dir is None
                 else _persist.validate_cache_dir(cache_dir))
    with _process_cache_lock:
        outer = _process_cache_scopes[-1] if _process_cache_scopes else None
    joins = outer is not None and (
        directory is None
        or (outer[1] is not None and outer[1].directory == directory))
    if joins:
        entry = (outer[0], outer[1])
    else:
        entry = ({}, None if directory is None
                 else _persist.PersistentCacheStore(directory))
    with _process_cache_lock:
        _process_cache_scopes.append(entry)
    try:
        yield entry[1]
    finally:
        with _process_cache_lock:
            # By identity: a joining scope's entry equals its outer's.
            position = next(index for index, open_entry
                            in enumerate(_process_cache_scopes)
                            if open_entry is entry)
            del _process_cache_scopes[position]


def process_analysis_cache(platform: Platform) -> Optional[AnalysisCache]:
    """The shared cache for ``platform``, or ``None`` outside every scope.

    Also returns ``None`` for a platform that *names* a cached one but is
    structurally different (e.g. a customised preset keeping the stock
    name): its cost model would not match the cached analyzers, so the
    caller falls back to a private cache instead of silently reusing wrong
    WCET/WCEC tables.
    """
    with _process_cache_lock:
        if not _process_cache_scopes:
            return None
        caches, store = _process_cache_scopes[-1]
        cache = caches.get(platform.name)
        if cache is None:
            cache = AnalysisCache(
                platform, max_entries=PROCESS_CACHE_DEFAULT_MAX_ENTRIES,
                store=store)
            caches[platform.name] = cache
            return cache
    if cache.platform is not platform and cache.platform != platform:
        return None
    return cache


def process_analysis_cache_stats() -> Dict[str, Dict[str, int]]:
    """Per-platform counters of the process-wide analysis caches."""
    with _process_cache_lock:
        caches = (list(_process_cache_scopes[-1][0].items())
                  if _process_cache_scopes else [])
    return {name: cache.stats() for name, cache in caches}


def process_cache_store() -> Optional["_persist.PersistentCacheStore"]:
    """The persistent store behind the process-wide cache, if attached."""
    with _process_cache_lock:
        return _process_cache_scopes[-1][1] if _process_cache_scopes else None


def process_cache_store_stats() -> Optional[Dict[str, object]]:
    """Counters of the persistent tier, or ``None`` when not attached."""
    store = process_cache_store()
    return None if store is None else store.stats()
