"""Staged caches for the batched variant-evaluation engine.

Four cache stages, from coarsest to finest.  Every config-keyed stage
takes its key from the pipeline's
:class:`~repro.compiler.pipeline.PassManager`, so registering a
configurable pass widens every downstream key:

1. :class:`VariantCache` — fully evaluated :class:`Variant` objects keyed on
   the *canonical key* of their :class:`CompilerConfig`.  Configurations that
   compare equal (however they were constructed: directly, via ``with_`` or
   decoded from genes) share one entry, so revisited points of the search
   space cost a dictionary lookup across generations *and* across optimiser
   runs.
2. :class:`LoweringCache` — lowered IR programs keyed on the ``lower``
   stage key: the contributions of the passes that run before/during
   lowering (hardening, constant folding, inlining, unrolling).
   Configurations that differ only in IR-level flags (CSE, DCE, strength
   reduction, peephole, SPM allocation) skip the
   clone/bound-inference/AST-pass/lowering pipeline entirely and receive an
   independent :meth:`Program.clone` to run their IR passes on.
   :class:`IrStageCache` does the same one stage later, keyed on the ``ir``
   stage key, for configurations differing only in the backend.
3. :class:`AnalysisCache` — per-function worst-case cost tables keyed on a
   structural fingerprint of the analysed program.  One
   :class:`StructuralCostEngine` run computes every function's cycles (or
   joules) at once; every further WCET/WCEC query against the same program —
   other task entry points, other operating points (cycle counts are
   frequency-independent), the coordination layer's per-core sweeps — is a
   table lookup.

All stages are exact: cached results are bit-for-bit identical to what
the uncached pipeline produces (covered by ``tests/test_engine.py``).

Every cache accepts an optional ``max_entries`` cap: when set, the
fingerprint/config-keyed tables evict their least-recently-used entries, and
each cache reports hit/miss/eviction counters through ``stats()`` — required
before long-running service use, where searches arrive indefinitely.  An
opt-in *process-wide* :class:`AnalysisCache` (see
:func:`enable_process_analysis_cache`) additionally lets every driver and
toolchain targeting the same platform share one set of WCET/WCEC tables,
which pays off in cross-scenario sweeps such as
``python -m repro.scenarios run --all --shared-cache``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.compiler.config import CompilerConfig
from repro.compiler.engine import persist as _persist
from repro.counters import _BoundedCacheMixin
from repro.errors import AnalysisError
from repro.energy.static_analyzer import EnergyAnalyzer, WCECResult
from repro.hw.core import Core
from repro.hw.dvfs import OperatingPoint
from repro.hw.platform import Platform
from repro.ir.cfg import Program
from repro.ir.instructions import Opcode
from repro.ir.regions import (
    BlockRegion,
    IfRegion,
    LoopRegion,
    Region,
    SeqRegion,
)
from repro.wcet.analyzer import WCETResult
from repro.wcet.paths import PathSensitiveMixin, PathStats
from repro.wcet.structural import StructuralCostEngine

if TYPE_CHECKING:
    from repro.compiler.pipeline.manager import PassManager

#: Attribute used to memoise a program's structural fingerprint.  The engine
#: computes it only after all IR passes have run; the IR is immutable from
#: then on as far as the evaluation pipeline is concerned.
_FINGERPRINT_ATTR = "_engine_fingerprint"

#: Local alias, avoids an attribute lookup in the block-cost hot loop.
_CALL_OPCODE = Opcode.CALL


class VariantCache(_BoundedCacheMixin):
    """Cross-generation cache of fully evaluated variants.

    Keyed by ``manager``'s full-pipeline key
    (:meth:`~repro.compiler.pipeline.PassManager.canonical_key`; the stock
    pass manager when omitted), so a registered pass widens the key.
    """

    def __init__(self, max_entries: Optional[int] = None,
                 manager: Optional["PassManager"] = None):
        super().__init__(max_entries)
        if manager is None:
            manager = _persist.stock_pass_manager()
        self.key = manager.canonical_key
        self._variants: "OrderedDict[Tuple, object]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._variants)

    def __contains__(self, config: CompilerConfig) -> bool:
        return self.key(config) in self._variants

    def get(self, config: CompilerConfig):
        variant = self._touch(self._variants, self.key(config))
        if variant is not None:
            self.hits += 1
        return variant

    def put(self, config: CompilerConfig, variant) -> None:
        self.misses += 1
        self._insert(self._variants, self.key(config), variant)


class _ProgramStageCache(_BoundedCacheMixin):
    """Programs after one pipeline stage, keyed by ``manager``'s stage key.

    ``get`` returns an independent clone so the caller's in-place passes
    cannot corrupt the cached original; ``put`` keeps a private pristine
    copy.  Instruction sharing is safe: the IR passes are copy-on-write at
    instruction granularity.  ``manager`` defaults to the stock pass manager.
    """

    #: The stage whose output the cache holds (see ``PassManager.stage_key``).
    STAGE = ""

    def __init__(self, max_entries: Optional[int] = None,
                 manager: Optional["PassManager"] = None):
        super().__init__(max_entries)
        self._manager = (manager if manager is not None
                         else _persist.stock_pass_manager())
        self._programs: "OrderedDict[Tuple, Tuple[Program, Dict[str, int]]]" \
            = OrderedDict()

    def __len__(self) -> int:
        return len(self._programs)

    def _key(self, config: CompilerConfig) -> Tuple:
        return self._manager.stage_key(config, self.STAGE)

    def get(self, config: CompilerConfig
            ) -> Optional[Tuple[Program, Dict[str, int]]]:
        entry = self._touch(self._programs, self._key(config))
        if entry is None:
            return None
        self.hits += 1
        program, statistics = entry
        return program.clone(share_instructions=True), dict(statistics)

    def put(self, config: CompilerConfig, program: Program,
            statistics: Dict[str, int]) -> None:
        self.misses += 1
        self._insert(self._programs, self._key(config),
                     (program.clone(share_instructions=True),
                      dict(statistics)))


class LoweringCache(_ProgramStageCache):
    """Cache of lowered programs shared across IR-level flag combinations.

    Keyed by the ``lower`` stage key: configurations that differ only in
    IR-level flags share one lowered program.  A second table holds the
    module after the AST passes that run before ``unroll-loops``, shared
    between configurations differing only in the unroll limit.
    ``max_entries`` bounds the two tables independently (each holds at most
    that many entries).
    """

    STAGE = "lower"

    def __init__(self, max_entries: Optional[int] = None,
                 manager: Optional["PassManager"] = None):
        super().__init__(max_entries, manager)
        self._pre_unroll: "OrderedDict[Tuple, Tuple]" = OrderedDict()

    def stats(self) -> Dict[str, int]:
        # The pre-unroll table holds full cloned modules — report it
        # explicitly so operators sizing the cache see both tables.
        stats = super().stats()
        stats["pre_unroll_entries"] = len(self._pre_unroll)
        return stats

    def _pre_unroll_key(self, config: CompilerConfig) -> Tuple:
        return self._manager.key_before(config, "unroll-loops")

    def get_pre_unroll(self, config: CompilerConfig) -> Optional[Tuple]:
        """The cached (module, statistics) pair before unrolling, if any.

        The stored module is pristine — callers must clone it before
        mutating (the engine always unrolls a fresh clone).
        """
        return self._touch(self._pre_unroll, self._pre_unroll_key(config))

    def put_pre_unroll(self, config: CompilerConfig, module,
                       statistics: Dict[str, int]) -> None:
        self._insert(self._pre_unroll, self._pre_unroll_key(config),
                     (module, dict(statistics)))


class IrStageCache(_ProgramStageCache):
    """Cache of programs after the platform-independent IR passes.

    Keyed by the ``ir`` stage key: only the backend (scratchpad allocation)
    runs after it, so configurations differing only in ``spm_allocation``
    share everything up to here.
    """

    STAGE = "ir"


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
    array).  Memoised on the program object — only fingerprint programs that
    will no longer be mutated.  The nested tuple's hash is computed once,
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
    functions = []
    for name, function in program.functions.items():
        blocks = []
        for label, block in function.blocks.items():
            # Enum members (not .value) keep this loop fast: accessing
            # Opcode.value goes through a descriptor on every instruction.
            parts = [(instr.opcode, instr.callee, instr.array)
                     for instr in block.instrs]
            signature = [label]
            signature.extend(map(intern, parts, parts))
            blocks.append(tuple(signature))
        functions.append((name, function.code_region, function.entry,
                          _region_signature(function.region), tuple(blocks)))
    fingerprint = _Fingerprint(functions)
    setattr(program, _FINGERPRINT_ATTR, fingerprint)
    return fingerprint


class _BlockMemoCostEngine(StructuralCostEngine):
    """Structural cost engine with a cross-program block-cost memo.

    The worst-case cost of a *call-free* basic block is a pure left-to-right
    sum of per-instruction costs, so identical instruction sequences cost
    exactly the same wherever they occur — across functions, programs and
    variants.  Blocks containing calls interleave callee costs into the sum
    and fall back to the uncached recursion.
    """

    def __init__(self, program, instr_cost, block_memo: Dict[Tuple, float]):
        super().__init__(program, instr_cost)
        self._block_memo = block_memo

    def _block_cost(self, function, label: str) -> float:
        block = function.block(label)
        opcodes = []
        for instr in block.instrs:
            opcode = instr.opcode
            if opcode is _CALL_OPCODE:
                return super()._block_cost(function, label)
            opcodes.append(opcode)
        key = (function.code_region, tuple(opcodes))
        cost = self._block_memo.get(key)
        if cost is None:
            cost = super()._block_cost(function, label)
            self._block_memo[key] = cost
        return cost


class _PathSensitiveBlockMemoEngine(PathSensitiveMixin, _BlockMemoCostEngine):
    """Block-memoised engine with infeasible-path pruning.

    Per-block worst-case costs are identical in both analysis modes, so the
    path-sensitive engines share the plain engines' block-cost memos.
    """


class AnalysisCache(_BoundedCacheMixin):
    """Shared per-function WCET/WCEC result tables, keyed by program structure.

    Bound to one :class:`Platform`.  The first WCET query for a (program,
    core) pair runs the structural cost engine over *every* function once and
    records per-function cycle bounds (plus the analysis errors of functions
    that legitimately have none, e.g. unreachable code with unbounded loops);
    likewise for energy per (program, core, operating point).  Subsequent
    queries are dictionary lookups, which makes multi-entry evaluation, DVFS
    sweeps and per-core ETS derivation nearly free.

    ``max_entries`` bounds the cycle and energy tables independently (the
    per-instruction and block-cost memos stay unbounded: they are keyed by
    opcode patterns, whose population is effectively fixed).

    ``store`` attaches a persistent tier
    (:class:`~repro.compiler.engine.persist.PersistentCacheStore`): memory
    misses consult the disk before computing, and computed tables are written
    through, so warm entries survive LRU eviction, process boundaries and
    restarts.  ``pass_list_key`` namespaces the on-disk digests (defaults to
    the stock pipeline's
    :func:`~repro.compiler.engine.persist.default_pass_list_key`).
    """

    def __init__(self, platform: Platform, max_entries: Optional[int] = None,
                 store: Optional["_persist.PersistentCacheStore"] = None,
                 pass_list_key: Optional[Tuple] = None):
        super().__init__(max_entries)
        self.platform = platform
        self._store = store
        self._pass_list_key = pass_list_key
        self.disk_hits = 0
        self.disk_misses = 0
        self.disk_errors = 0
        # Serialises lookups *and* fills: the LRU bookkeeping is a compound
        # read-modify-write over OrderedDicts, and the process-wide shared
        # cache is queried concurrently by the evaluation service's worker
        # threads.  Reentrant because ``wcec`` calls ``wcet``.
        self._lock = threading.RLock()
        self._checked: "OrderedDict[Tuple, bool]" = OrderedDict()
        self._cycle_tables: "OrderedDict[Tuple, Tuple[Dict[str, float], Dict[str, Exception]]]" = OrderedDict()
        self._energy_tables: "OrderedDict[Tuple, Tuple[Dict[str, float], Dict[str, Exception]]]" = OrderedDict()
        self._energy_analyzers: Dict[str, EnergyAnalyzer] = {}
        # Per-instruction cost memos, per (kind, core[, OPP]).  A cycle cost
        # depends only on the opcode and the fetch region of the enclosing
        # function; an energy cost only on the opcode (and the operating
        # point) — so each distinct cost is computed once per core ever, not
        # once per instruction occurrence per program.
        self._instr_costs: Dict[Tuple, Dict] = {}
        # Cross-program block-cost memos (call-free blocks only), same scopes.
        self._block_costs: Dict[Tuple, Dict[Tuple, float]] = {}
        # Path-feasibility counters, accumulated on computes only (memory and
        # disk hits reuse tables whose pruning already happened elsewhere).
        # The per-thread copy lets one run report only its own pruning work
        # on a shared cache: a job runs on one worker thread.
        self._path_totals = PathStats()
        self._path_functions: Dict[str, PathStats] = {}
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
        stats["paths_enumerated"] = self._path_totals.paths_enumerated
        stats["paths_pruned"] = self._path_totals.paths_pruned
        stats["path_cap_fallbacks"] = self._path_totals.cap_fallbacks
        stats["path_irregular_fallbacks"] = \
            self._path_totals.irregular_fallbacks
        return stats

    def path_stats(self) -> Dict[str, Dict[str, float]]:
        """Pruning counters of every path-sensitive analysis this cache ran.

        ``totals`` aggregates across functions; ``functions`` maps each
        analysed function to its own counters (paths enumerated / pruned,
        cap and irregular-flow fallbacks, enumeration wall time).
        """
        with self._lock:
            return {
                "totals": self._path_totals.as_dict(),
                "functions": {name: stats.as_dict()
                              for name, stats in self._path_functions.items()},
            }

    def thread_path_totals(self) -> Dict[str, float]:
        """``path_stats()["totals"]`` of the analyses the calling thread ran.

        Subtracting two readings on one thread gives the pruning work done
        between them, even while other threads use the same cache.
        """
        totals = getattr(self._thread_paths, "totals", None)
        return (totals or PathStats()).as_dict()

    def _note_path_stats(self, engine: "_PathSensitiveBlockMemoEngine") -> None:
        """Fold one engine run's pruning counters into the cache's totals."""
        thread_totals = getattr(self._thread_paths, "totals", None)
        if thread_totals is None:
            self._thread_paths.totals = thread_totals = PathStats()
        for name, stats in engine.path_stats.items():
            if stats.units == 0:
                continue
            self._path_totals.merge(stats)
            thread_totals.merge(stats)
            per_function = self._path_functions.get(name)
            if per_function is None:
                self._path_functions[name] = per_function = PathStats()
            per_function.merge(stats)

    # -- persistent tier -------------------------------------------------------
    def _table_digest(self, kind: str, fingerprint: Tuple, *scope: str) -> str:
        """On-disk key of one result table: platform + pass list + scope.

        The structural fingerprint enters through its own digest, combined
        with the platform name, the pass-list key and the
        analysis-kind/core/operating-point discriminators the in-memory
        tables key on.  Canonicalising a whole fingerprint costs more than
        one table analysis, and every core/OPP table of a program shares it,
        so the digest is memoised on the fingerprint itself: a memo keyed by
        fingerprints would keep each one alive after its tables are evicted.
        """
        if self._pass_list_key is None:
            self._pass_list_key = _persist.default_pass_list_key()
        digest = getattr(fingerprint, "_digest", None)
        if digest is None:
            digest = fingerprint._digest = _persist.key_digest(fingerprint)
        return _persist.key_digest("analysis", self.platform.name,
                                   self._pass_list_key, kind, list(scope),
                                   digest)

    def _disk_get(self, digest: str):
        """Decode a persisted table, or ``None`` (undecodable counts a miss)."""
        payload = self._store.get(digest)
        if payload is not None:
            try:
                entry = _persist.decode_analysis_entry(payload)
            except _persist.PersistError:
                pass
            else:
                self.disk_hits += 1
                return entry
        self.disk_misses += 1
        return None

    # -- analyzer instances (cost models are deterministic per core) ----------
    def _default_core(self) -> Core:
        core = next(iter(self.platform.predictable_cores), None)
        if core is None:
            raise AnalysisError(
                f"platform {self.platform.name!r} has no predictable core; use "
                f"the dynamic profiling workflow for complex architectures")
        return core

    def _energy_analyzer(self, core: Core) -> EnergyAnalyzer:
        """The core's energy analyser; its ``.wcet`` prices cycles."""
        analyzer = self._energy_analyzers.get(core.name)
        if analyzer is None:
            analyzer = EnergyAnalyzer(self.platform, core=core)
            self._energy_analyzers[core.name] = analyzer
        return analyzer

    # -- shared validation ----------------------------------------------------
    def _check_analysable(self, program: Program, fingerprint: Tuple) -> None:
        """``validate()`` + recursion check, once per distinct program."""
        if self._touch(self._checked, fingerprint):
            return
        program.validate()
        if program.has_recursion():
            raise AnalysisError("programs with recursion are not analysable")
        # Bounded like the result tables, but eviction only means a future
        # re-validation, so it is not reported in the eviction counter.
        self._checked[fingerprint] = True
        if self.max_entries is not None and len(self._checked) > self.max_entries:
            self._checked.popitem(last=False)

    # -- cost tables ------------------------------------------------------------
    def _table(self, program: Program, core: Core,
               opp: Optional[OperatingPoint], path_sensitive: bool
               ) -> Tuple[Dict[str, float], Dict[str, Exception]]:
        """The per-function cost table of one analysis.

        ``opp=None`` selects the cycles table (cycle bounds are
        frequency-independent), an operating point the energy table.  The
        default-mode keys (and on-disk digests) are unchanged; the
        path-sensitive tables live under a widened key so both modes can
        coexist without invalidating archived entries.
        """
        fingerprint = program_fingerprint(program)
        if opp is None:
            tables = self._cycle_tables
            key = ((fingerprint, core.name, "paths") if path_sensitive
                   else (fingerprint, core.name))
        else:
            tables = self._energy_tables
            key = ((fingerprint, core.name, opp.label, "paths")
                   if path_sensitive
                   else (fingerprint, core.name, opp.label))
        entry = self._touch(tables, key)
        if entry is not None:
            self.hits += 1
            return entry
        self.misses += 1
        kind = "cycles" if opp is None else "energy"
        digest = None
        if self._store is not None:
            # The on-disk scope is the in-memory key minus the fingerprint.
            digest = self._table_digest(kind, fingerprint, *key[1:])
            entry = self._disk_get(digest)
            if entry is not None:
                # A disk hit was validated by whichever process computed it,
                # exactly like a memory hit skips re-validation.
                self._insert(tables, key, entry)
                return entry
        self._check_analysable(program, fingerprint)
        analyzer = self._energy_analyzer(core)
        # Instruction and block costs are the same in both analysis modes,
        # so their memos are scoped by kind, core and operating point only.
        scope = ((kind, core.name) if opp is None
                 else (kind, core.name, opp.label))
        memo = self._instr_costs.setdefault(scope, {})
        if opp is None:
            wcet = analyzer.wcet

            def instr_cost(function, instr):
                memo_key = (function.code_region, instr.opcode)
                cost = memo.get(memo_key)
                if cost is None:
                    cost = wcet._instr_cycles(function, instr)
                    memo[memo_key] = cost
                return cost
        else:
            def instr_cost(function, instr):
                cost = memo.get(instr.opcode)
                if cost is None:
                    cost = analyzer._instr_energy(function, instr, opp)
                    memo[instr.opcode] = cost
                return cost

        block_memo = self._block_costs.setdefault(scope, {})
        engine = (_PathSensitiveBlockMemoEngine(program, instr_cost,
                                                block_memo)
                  if path_sensitive
                  else _BlockMemoCostEngine(program, instr_cost, block_memo))
        table: Dict[str, float] = {}
        errors: Dict[str, Exception] = {}
        for name in program.functions:
            try:
                table[name] = engine.function_cost(name)
            except AnalysisError as error:
                # Functions not reachable from an entry may legitimately
                # lack loop bounds; they simply don't get a standalone bound.
                errors[name] = error
        if path_sensitive:
            self._note_path_stats(engine)
        entry = (table, errors)
        self._insert(tables, key, entry)
        if digest is not None:
            try:
                self._store.put(digest, _persist.encode_analysis_entry(entry))
            except OSError:
                # A failing disk tier (full, read-only, gone) must not fail
                # the query: detach it from this cache and keep serving
                # from memory, counted in ``stats()["disk_errors"]``.
                self._store = None
                self.disk_errors += 1
        return entry

    @staticmethod
    def _entry_cost(program: Program, function_name: str,
                    table: Dict[str, float],
                    errors: Dict[str, Exception]) -> float:
        if function_name in table:
            return table[function_name]
        if function_name in errors:
            raise errors[function_name]
        # Unknown function: raise the same error the engine would have.
        program.function(function_name)
        raise KeyError(function_name)  # pragma: no cover - function() raises

    # -- public API mirroring the stock analysers ------------------------------
    def wcet(self, program: Program, function_name: str,
             core: Optional[Core] = None,
             opp: Optional[OperatingPoint] = None,
             path_sensitive: bool = False) -> WCETResult:
        """Cached equivalent of ``WCETAnalyzer(...).analyze(...)``.

        ``path_sensitive`` enables infeasible-path pruning
        (:mod:`repro.wcet.paths`); its tables are cached independently of
        the default mode's.
        """
        core = core or self._default_core()
        opp = opp or core.nominal_opp
        with self._lock:
            table, errors = self._table(program, core, None, path_sensitive)
        cycles = self._entry_cost(program, function_name, table, errors)
        return WCETResult(
            function=function_name,
            cycles=cycles,
            time_s=core.time_for_cycles(cycles, opp),
            frequency_hz=opp.frequency_hz,
            per_function_cycles=dict(table),
        )

    def wcec(self, program: Program, function_name: str,
             core: Optional[Core] = None,
             opp: Optional[OperatingPoint] = None,
             path_sensitive: bool = False) -> WCECResult:
        """Cached equivalent of ``EnergyAnalyzer(...).analyze(...)``.

        With ``path_sensitive`` both the dynamic-energy maximisation and the
        WCET bound behind the static-leakage term prune infeasible paths.
        """
        core = core or self._default_core()
        opp = opp or core.nominal_opp
        with self._lock:
            table, errors = self._table(program, core, opp, path_sensitive)
            dynamic = self._entry_cost(program, function_name, table, errors)
            wcet_result = self.wcet(program, function_name, core=core, opp=opp,
                                    path_sensitive=path_sensitive)
            analyzer = self._energy_analyzer(core)
        static = analyzer.model.static_power(opp) * wcet_result.time_s
        return WCECResult(
            function=function_name,
            dynamic_energy_j=dynamic,
            static_energy_j=static,
            wcet_time_s=wcet_result.time_s,
            frequency_hz=opp.frequency_hz,
        )


# ---------------------------------------------------------------------------
# Opt-in process-wide analysis cache
# ---------------------------------------------------------------------------
#: Default bound of the process-wide analysis caches: large enough for a
#: full cross-scenario sweep, small enough to cap a long-running service.
PROCESS_CACHE_DEFAULT_MAX_ENTRIES = 256

_process_cache_max_entries: Optional[int] = None
_process_cache_enabled = False
_process_analysis_caches: Dict[str, AnalysisCache] = {}
_process_cache_store: Optional["_persist.PersistentCacheStore"] = None
#: Guards creation of the per-platform shared caches: worker threads of the
#: evaluation service may race to instantiate the cache for one platform.
_process_cache_lock = threading.Lock()


def enable_process_analysis_cache(
        max_entries: Optional[int] = PROCESS_CACHE_DEFAULT_MAX_ENTRIES,
        cache_dir: Optional[str] = None) -> None:
    """Turn on the process-wide, per-platform shared :class:`AnalysisCache`.

    While enabled, every toolchain and compiler driver created afterwards
    shares one bounded analysis cache per platform *name* (presets are
    deterministic, so equal names imply equal cost models), letting
    cross-scenario runs reuse WCET/WCEC tables across drivers.  Strictly
    opt-in: per-instance caches remain the default.

    ``cache_dir`` additionally attaches a persistent
    :class:`~repro.compiler.engine.persist.PersistentCacheStore` under the
    shared caches, so WCET/WCEC tables survive LRU eviction, process
    boundaries (``ProcessPoolExecutor`` workers forked afterwards inherit
    the enablement and open their own handle on the same directory) and
    restarts.  Re-enabling with a different directory re-attaches; caches
    created before the call keep whatever store they were built with.
    Raises :class:`~repro.compiler.engine.persist.PersistError` when the
    directory is unusable.
    """
    global _process_cache_enabled, _process_cache_max_entries
    global _process_cache_store
    with _process_cache_lock:
        _process_cache_max_entries = max_entries
        if cache_dir is not None:
            directory = _persist.validate_cache_dir(cache_dir)
            if (_process_cache_store is None
                    or _process_cache_store.directory != directory):
                if _process_cache_store is not None:
                    _process_cache_store.close()
                _process_cache_store = _persist.PersistentCacheStore(directory)
                # Platform caches bind their store at construction; drop any
                # built before the directory was known so the next lookup
                # rebuilds them on top of the persistent tier.
                _process_analysis_caches.clear()
        _process_cache_enabled = True


def disable_process_analysis_cache(clear: bool = True) -> None:
    """Turn the process-wide cache off (and by default drop its contents)."""
    global _process_cache_enabled, _process_cache_store
    _process_cache_enabled = False
    if clear:
        with _process_cache_lock:
            _process_analysis_caches.clear()
            if _process_cache_store is not None:
                _process_cache_store.close()
                _process_cache_store = None


def process_analysis_cache_enabled() -> bool:
    """Whether the process-wide shared analysis cache is currently on.

    Lets scoped owners (e.g. the evaluation service) enable the cache for
    their lifetime and restore the previous state on shutdown instead of
    unconditionally disabling a cache someone else turned on.
    """
    return _process_cache_enabled


def process_analysis_cache(platform: Platform) -> Optional[AnalysisCache]:
    """The shared cache for ``platform``, or ``None`` when disabled.

    Also returns ``None`` for a platform that *names* a cached one but is
    structurally different (e.g. a customised preset keeping the stock
    name): its cost model would not match the cached analyzers, so the
    caller falls back to a private cache instead of silently reusing wrong
    WCET/WCEC tables.
    """
    if not _process_cache_enabled:
        return None
    with _process_cache_lock:
        cache = _process_analysis_caches.get(platform.name)
        if cache is None:
            cache = AnalysisCache(platform,
                                  max_entries=_process_cache_max_entries,
                                  store=_process_cache_store)
            _process_analysis_caches[platform.name] = cache
            return cache
    if cache.platform is not platform and cache.platform != platform:
        return None
    return cache


def process_analysis_cache_stats() -> Dict[str, Dict[str, int]]:
    """Per-platform counters of the process-wide analysis caches."""
    with _process_cache_lock:
        caches = list(_process_analysis_caches.items())
    return {name: cache.stats() for name, cache in caches}


def process_cache_store() -> Optional["_persist.PersistentCacheStore"]:
    """The persistent store behind the process-wide cache, if attached."""
    with _process_cache_lock:
        return _process_cache_store


def process_cache_store_stats() -> Optional[Dict[str, object]]:
    """Counters of the persistent tier, or ``None`` when not attached."""
    store = process_cache_store()
    return None if store is None else store.stats()
