"""Persistent analysis-cache tier (``repro.compiler.engine.persist``).

Mirrors the journal's durability coverage for the cache store:

* record codec — CRC-guarded JSONL lines round-trip arbitrary JSON values
  (hypothesis) and reject every flavour of torn/corrupt/foreign line,
* analysis-entry codec — ``(table, errors)`` pairs survive bit-for-bit,
  including reconstructed :class:`UnboundedLoopError` instances and the
  insertion order of the per-function tables,
* key digests — deterministic, enum-aware, version-stamped, closed to
  unsupported key components, and byte-identical to the recursive
  canonicaliser kept in ``tests/oracles.py`` (on every embedded source's
  fingerprint and on hypothesis-drawn nested keys),
* ``validate_cache_dir`` — creates missing directories, fails fast on paths
  that cannot become writable directories,
* the store itself — one append-only file, cross-instance replay, torn-tail
  tolerance and repair, a reader re-reading a file wiped under it, and
  concurrent multi-process writers,
* the cache integration — LRU-evicted tables come back as disk hits, a
  failing ``put`` detaches the store instead of failing the query, and the
  E1/E2/E3/E6 goldens stay bit-for-bit identical with the disk tier enabled,
  including across a simulated restart that serves them from disk,
* fingerprint hashing — computed once per program, recomputed (never
  carried) through pickle, including across processes with different
  hash seeds.
"""

import enum
import errno
import hashlib
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro
from oracles import build_program, key_digest_reference
from repro.compiler.config import UNROLL_CHOICES, CompilerConfig
from repro.compiler.engine import AnalysisCache
from repro.compiler.engine.cache import (
    ANALYSIS_VERSION,
    process_analysis_cache_stats,
    process_cache_store,
    program_fingerprint,
    shared_analysis_caches,
)
from repro.compiler.engine.persist import (
    PersistentCacheStore,
    PersistError,
    decode_outcome,
    decode_record,
    default_pass_list_key,
    encode_outcome,
    encode_record,
    key_digest,
    validate_cache_dir,
)
from repro.errors import AnalysisError, UnboundedLoopError
from repro.compiler.pipeline import CompilationPipeline
from repro.frontend import compile_source
from repro.frontend.parser import parse
from repro.hw.core import CoreKind
from repro.hw.presets import gr712rc, nucleo_stm32f091rc
from repro.ir.instructions import Opcode
from repro.scenarios import run_scenario
from repro.wcet import structural
from repro.wcet.analyzer import WCETAnalyzer
from test_service import assert_report_matches, golden
from test_unroll_stamping import IR_PIN_SOURCES


def _source(bound: int) -> str:
    return f"""
int data[{bound}];

#pragma teamplay task(work) poi(work)
int work(int gain) {{
    int acc = 0;
    for (int i = 0; i < {bound}; i = i + 1) {{
        acc = acc + data[i] * gain;
    }}
    return acc;
}}
"""


# ---------------------------------------------------------------------------
# Record codec
# ---------------------------------------------------------------------------
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-2**53, max_value=2**53)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=8), children,
                                        max_size=4)),
    max_leaves=12)


class TestRecordCodec:
    @given(digest=st.text(min_size=1, max_size=64), value=_JSON_VALUES)
    @settings(max_examples=200, deadline=None)
    def test_round_trip_identity(self, digest, value):
        line = encode_record(digest, value)
        assert "\n" not in line
        decoded_digest, decoded_value = decode_record(line)
        assert decoded_digest == digest
        assert decoded_value == value

    def test_floats_survive_bit_for_bit(self):
        values = [0.1, 1e-308, 123456.789e300, 2.0**-52, 7/3]
        _, decoded = decode_record(encode_record("d", values))
        assert all(a == b and repr(a) == repr(b)
                   for a, b in zip(values, decoded))

    @pytest.mark.parametrize("line", [
        "",                                   # empty
        "deadbeef",                           # no separator
        "zzzzzzzz {}",                        # non-hex CRC
        "00000000 {\"k\": \"d\", \"v\": 1}",  # CRC mismatch
        "bad {\"k\": \"d\"}",                 # short prefix
    ])
    def test_malformed_lines_rejected(self, line):
        with pytest.raises(PersistError):
            decode_record(line)

    def test_torn_line_fails_crc(self):
        line = encode_record("digest", {"table": [1.0, 2.0, 3.0]})
        for cut in range(len(line) - 1, 9, -7):
            with pytest.raises(PersistError):
                decode_record(line[:cut])

    def test_foreign_payload_shapes_rejected(self):
        import zlib
        for body in ("[1,2,3]", "{\"k\": \"d\"}", "{\"v\": 1}",
                     "{\"k\": 7, \"v\": 1}"):
            crc = zlib.crc32(body.encode()) & 0xFFFFFFFF
            with pytest.raises(PersistError):
                decode_record(f"{crc:08x} {body}")


class TestAnalysisEntryCodec:
    def test_costs_and_errors_round_trip(self):
        unbounded = UnboundedLoopError("stray", "while loop without bound")
        plain = AnalysisError("no cost model for opcode 'simd'")
        for cost in (1234.0, 17.5, 0.1, 5.627483374999999e-05):
            decoded = decode_outcome(json.loads(json.dumps(
                encode_outcome(cost))))
            assert decoded.hex() == cost.hex()
        decoded = decode_outcome(encode_outcome(unbounded))
        assert type(decoded) is UnboundedLoopError
        assert str(decoded) == str(unbounded)
        assert decoded.function == "stray"
        decoded = decode_outcome(encode_outcome(plain))
        assert type(decoded) is AnalysisError
        assert str(decoded) == str(plain)

    def test_unknown_error_class_degrades_to_analysis_error(self):
        payload = encode_outcome(AnalysisError("boom"))
        payload["e"]["cls"] = "SomeRetiredError"
        error = decode_outcome(payload)
        assert type(error) is AnalysisError
        assert str(error) == "boom"

    def test_malformed_payload_rejected(self):
        for payload in (["not", "a", "dict"], {}, {"c": "12"}, {"c": None},
                        {"e": "boom"}, {"t": {"f": 1.0}, "e": {}}):
            with pytest.raises(PersistError):
                decode_outcome(payload)


class TestKeyDigest:
    def test_deterministic_and_discriminating(self):
        fingerprint = (("work", "flash", "entry", ("B", "L0"), ()),)
        a = key_digest("analysis", "nucleo", ("pass",), "cycles", fingerprint)
        b = key_digest("analysis", "nucleo", ("pass",), "cycles", fingerprint)
        c = key_digest("analysis", "nucleo", ("pass",), "energy", fingerprint)
        assert a == b
        assert a != c
        assert len(a) == 64 and int(a, 16) >= 0

    def test_enums_serialise_by_name(self):
        with_enum = key_digest(("x", Opcode.ADD))
        assert with_enum == key_digest(("x", Opcode.ADD))
        assert with_enum != key_digest(("x", Opcode.SUB))
        # An enum is not the same key component as its name string.
        assert with_enum != key_digest(("x", Opcode.ADD.name))

    def test_tuples_and_lists_canonicalise_equal(self):
        assert key_digest((1, (2, 3))) == key_digest([1, [2, 3]])

    def test_unsupported_component_rejected(self):
        with pytest.raises(PersistError, match="unsupported key component"):
            key_digest(object())

    def test_digest_matches_the_oracle_on_every_embedded_fingerprint(self):
        platform = nucleo_stm32f091rc()
        pipeline = CompilationPipeline(platform)
        pass_list_key = default_pass_list_key()
        for name, source in IR_PIN_SOURCES:
            module = parse(source, name)
            for unroll in UNROLL_CHOICES:
                for fold in (False, True):
                    config = CompilerConfig(constant_folding=fold,
                                            unroll_limit=unroll)
                    program, _ = build_program(pipeline, module, config)
                    fingerprint = program_fingerprint(program)
                    digest = key_digest(fingerprint)
                    assert digest == key_digest_reference(fingerprint)
                    # The outer key of one function's path-sensitive
                    # energy cost (``_Scope._digest``).
                    parts = ("analysis", ("0" * 64, 1, pass_list_key),
                             ["energy", "m0", "m0-48MHz", "paths"], digest,
                             (("helper", 17.5),
                              ("stray", ("UnboundedLoopError", "loop"))))
                    assert key_digest(*parts) == key_digest_reference(*parts)

    @settings(max_examples=300, deadline=None)
    @given(st.recursive(
        st.none() | st.booleans() | st.integers()
        | st.floats() | st.text()
        | st.sampled_from(list(Opcode) + list(CoreKind)),
        lambda children: (st.lists(children, max_size=4)
                          | st.lists(children, max_size=4).map(tuple)),
        max_leaves=20))
    def test_digest_matches_the_oracle_on_drawn_keys(self, key):
        assert key_digest(key) == key_digest_reference(key)
        assert key_digest("analysis", key, (key,)) == key_digest_reference(
            "analysis", key, (key,))

    def test_key_enums_are_plain_enums(self):
        # The C encoder writes an int- or str-mixin enum by value without
        # calling the digest's enum hook; the key vocabulary must have none.
        for kind in (Opcode, CoreKind):
            assert issubclass(kind, enum.Enum)
            assert not issubclass(kind, (int, str))

    def test_default_pass_list_key_is_stable(self):
        key = default_pass_list_key()
        assert key == default_pass_list_key()
        assert all(isinstance(stage, str) and isinstance(name, str)
                   for stage, name in key)


# ---------------------------------------------------------------------------
# Cache-directory validation
# ---------------------------------------------------------------------------
class TestValidateCacheDir:
    def test_creates_missing_directories(self, tmp_path):
        target = tmp_path / "a" / "b" / "cache"
        resolved = validate_cache_dir(target)
        assert resolved == str(target)
        assert os.path.isdir(resolved)
        assert os.listdir(resolved) == []  # the write probe cleaned up

    def test_existing_file_rejected(self, tmp_path):
        target = tmp_path / "occupied"
        target.write_text("not a directory")
        with pytest.raises(PersistError, match="not a directory"):
            validate_cache_dir(target)

    def test_parent_is_a_file_rejected(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        with pytest.raises(PersistError, match="cannot create|not a directory"):
            validate_cache_dir(blocker / "nested")


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------
class TestPersistentCacheStore:
    def test_put_get_and_cross_instance_replay(self, tmp_path):
        writer = PersistentCacheStore(tmp_path)
        writer.put("k1", {"t": {"main": 1.5}, "e": {}})
        writer.put("k2", [1, 2, 3])
        assert writer.get("k1") == {"t": {"main": 1.5}, "e": {}}
        assert writer.appends == 2 and writer.hits == 1

        reader = PersistentCacheStore(tmp_path)
        assert len(reader) == 2
        assert reader.get("k2") == [1, 2, 3]
        assert reader.replayed_records == 2
        assert reader.get("missing") is None
        assert reader.misses == 1

    def test_last_write_wins_across_instances(self, tmp_path):
        first = PersistentCacheStore(tmp_path)
        second = PersistentCacheStore(tmp_path)
        first.put("k", "old")
        second.put("k", "new")
        # ``first`` learns of the overwrite on its next miss-triggered
        # refresh; a fresh replay sees only the survivor.
        assert PersistentCacheStore(tmp_path).get("k") == "new"

    def test_torn_tail_skipped_and_repaired(self, tmp_path):
        writer = PersistentCacheStore(tmp_path)
        writer.put("k1", 1)
        writer.put("k2", 2)
        records = os.path.join(writer.directory, "cache-000001.seg")
        with open(records, "a", encoding="utf-8") as handle:
            handle.write("deadbeef {\"k\": \"torn")  # SIGKILL mid-write

        survivor = PersistentCacheStore(tmp_path)
        assert len(survivor) == 2  # unterminated tail is not consumed
        survivor.put("k3", 3)  # appending first repairs the tail
        fresh = PersistentCacheStore(tmp_path)
        assert fresh.get("k3") == 3 and fresh.get("k1") == 1
        assert fresh.skipped_lines == 1  # the repaired torn line, nothing else

    def test_interior_corruption_skips_only_that_line(self, tmp_path):
        writer = PersistentCacheStore(tmp_path)
        writer.put("k1", 1)
        records = os.path.join(writer.directory, "cache-000001.seg")
        with open(records, "a", encoding="utf-8") as handle:
            handle.write("garbage line\n")
        writer.put("k2", 2)
        fresh = PersistentCacheStore(tmp_path)
        assert len(fresh) == 2
        assert fresh.skipped_lines == 1

    def test_distinct_puts_append_to_one_file(self, tmp_path):
        store = PersistentCacheStore(tmp_path)
        records = {f"k{index}": {"t": {"main": index / 3}, "e": {}}
                   for index in range(40)}
        for digest, value in records.items():
            store.put(digest, value)
        assert sorted(os.listdir(tmp_path)) == [".lock", "cache-000001.seg"]
        lines = sum(len(encode_record(digest, value).encode("utf-8")) + 1
                    for digest, value in records.items())
        assert os.path.getsize(tmp_path / "cache-000001.seg") == lines
        assert store.stats()["bytes"] == lines
        fresh = PersistentCacheStore(tmp_path)
        assert fresh.replayed_records == len(fresh) == 40
        assert all(fresh.get(digest) == value
                   for digest, value in records.items())

    def test_reader_rereads_a_file_wiped_under_it(self, tmp_path):
        writer = PersistentCacheStore(tmp_path)
        for index in range(5):
            writer.put(f"old{index}", index)
        reader = PersistentCacheStore(tmp_path)
        assert len(reader) == 5
        # An operator wipes the file, then another process appends afresh:
        # the file is now shorter than what the reader consumed.
        open(tmp_path / "cache-000001.seg", "wb").close()
        PersistentCacheStore(tmp_path).put("new", "value")
        assert reader.get("new") == "value"
        # The wiped records left the reader's index with the file.
        assert len(reader) == 1 and reader.get("old0") is None
        assert reader.skipped_lines == 0

    def test_own_appends_are_not_replayed(self, tmp_path):
        store = PersistentCacheStore(tmp_path)
        for index in range(3):
            store.put(f"k{index}", index)
        store.refresh()
        assert store.replayed_records == 0
        # Another handle appends in between: the next own record is not
        # consumed ahead of it, so one refresh reads both.
        other = PersistentCacheStore(tmp_path)
        other.put("theirs", "x")
        store.put("mine", "y")
        assert store.get("theirs") == "x"
        assert store.replayed_records == 2
        assert other.get("mine") == "y"
        assert other.replayed_records == 3 + 1

    def test_cold_sweep_replays_none_of_its_own_records(self, tmp_path,
                                                        capsys):
        from repro.scenarios.__main__ import main as scenarios_cli

        assert scenarios_cli(["run", "--all", "--json",
                              "--cache-dir", str(tmp_path)]) == 0
        store = json.loads(capsys.readouterr().out)["cache_store"]
        assert store["appends"] == store["entries"] > 0
        assert store["replayed_records"] == 0
        assert store["bytes"] == os.path.getsize(
            tmp_path / "cache-000001.seg")

    def test_stats_shape(self, tmp_path):
        store = PersistentCacheStore(tmp_path)
        store.put("a", 1)
        store.put("b", 2)
        stats = store.stats()
        assert set(stats) == {"directory", "entries", "bytes", "hits",
                              "misses", "appends", "replayed_records",
                              "skipped_lines"}
        assert stats["directory"] == str(tmp_path)
        assert stats["entries"] == 2
        assert stats["bytes"] == os.path.getsize(
            tmp_path / "cache-000001.seg")


def _hammer_store(directory: str, worker: int, count: int) -> None:
    """Concurrent-writer body (module level: spawned via multiprocessing)."""
    store = PersistentCacheStore(directory)
    for index in range(count):
        store.put(f"w{worker}-r{index}", {"worker": worker, "index": index})


class TestConcurrentWriters:
    def test_parallel_processes_never_tear_records(self, tmp_path):
        workers, count = 4, 25
        context = multiprocessing.get_context("fork")
        processes = [
            context.Process(target=_hammer_store,
                            args=(str(tmp_path), worker, count))
            for worker in range(workers)]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=120)
            assert process.exitcode == 0
        store = PersistentCacheStore(tmp_path)
        assert len(store) == workers * count
        assert store.skipped_lines == 0
        for worker in range(workers):
            for index in range(count):
                assert store.get(f"w{worker}-r{index}") == {
                    "worker": worker, "index": index}


# ---------------------------------------------------------------------------
# AnalysisCache integration: the disk tier under the LRU
# ---------------------------------------------------------------------------
class TestAnalysisCacheDiskTier:
    def test_disk_tier_results_bit_identical(self, tmp_path):
        platform = nucleo_stm32f091rc()
        program = compile_source(_source(24))
        plain = AnalysisCache(platform)
        expected_wcet = plain.wcet(program, "work")
        expected_wcec = plain.wcec(program, "work")

        store = PersistentCacheStore(tmp_path)
        warmers = AnalysisCache(platform, store=store)
        assert warmers.wcet(program, "work").cycles == expected_wcet.cycles
        assert warmers.wcec(program, "work").dynamic_energy_j \
            == expected_wcec.dynamic_energy_j
        assert warmers.disk_misses > 0 and warmers.disk_hits == 0

        # "Restart": fresh cache, fresh store handle, same directory.
        restarted = AnalysisCache(platform, store=PersistentCacheStore(tmp_path))
        got_wcet = restarted.wcet(program, "work")
        got_wcec = restarted.wcec(program, "work")
        assert restarted.disk_hits > 0 and restarted.disk_misses == 0
        assert got_wcet.cycles == expected_wcet.cycles
        assert got_wcet.time_s == expected_wcet.time_s
        assert got_wcet.per_function_cycles == expected_wcet.per_function_cycles
        assert got_wcec.dynamic_energy_j == expected_wcec.dynamic_energy_j
        assert got_wcec.static_energy_j == expected_wcec.static_energy_j

    def test_lru_evicted_tables_return_as_disk_hits(self, tmp_path,
                                                     monkeypatch):
        # A one-entry function memo forgets each cost at the next insert, so
        # the evicted table's function comes back from disk, not from memory.
        monkeypatch.setattr(structural, "MEMO_LIMIT", 1)
        platform = nucleo_stm32f091rc()
        program_a = compile_source(_source(16))
        program_b = compile_source(_source(32))
        expected_a = AnalysisCache(platform).wcet(program_a, "work").cycles
        expected_b = AnalysisCache(platform).wcet(program_b, "work").cycles

        cache = AnalysisCache(platform, max_entries=1,
                              store=PersistentCacheStore(tmp_path))
        assert cache.wcet(program_a, "work").cycles == expected_a
        assert cache.wcet(program_b, "work").cycles == expected_b  # evicts A
        assert cache.evictions >= 1
        hits_before = cache.disk_hits
        # The evicted table comes back from disk, not from a recomputation.
        assert cache.wcet(program_a, "work").cycles == expected_a
        assert cache.disk_hits == hits_before + 1

    def test_table_digests_are_pinned(self):
        # On-disk keys of one function's cycles and path-sensitive energy
        # costs: a directory warmed by an earlier build must keep hitting.
        class RecordingStore:
            def __init__(self):
                self.digests = []

            def get(self, digest):
                return None

            def put(self, digest, payload):
                self.digests.append(digest)

        store = RecordingStore()
        cache = AnalysisCache(nucleo_stm32f091rc(), store=store)
        program = compile_source(_source(16))
        cache.wcet(program, "work")
        cache.wcec(program, "work", path_sensitive=True)
        cycles, energy_paths, _cycles_paths = store.digests
        assert cycles == ("c46c87b51b907e8426407d4ab3eadb20"
                          "fc9e367825294b5c33840d84ea80c7c7")
        assert energy_paths == ("a9fa7fa527a613d7bcb96d27c783b4cf"
                                "00aee25052dcedf5bdd09da7f910e52d")

    def test_edited_timing_table_misses_a_warm_store(self, tmp_path):
        # The digest covers the cost model, not the platform's name: a
        # directory warmed with one core timing table must not serve its
        # bounds once that table is edited under the same name.
        program = compile_source(_source(16))
        stock = nucleo_stm32f091rc()
        warm = AnalysisCache(stock, store=PersistentCacheStore(tmp_path))
        before = warm.wcet(program, "work").cycles
        assert warm.disk_misses > 0

        edited = nucleo_stm32f091rc()
        core = edited.predictable_cores[0]
        core.cycle_table["mul"] = core.cycle_table["mul"] + 7
        assert edited.name == stock.name
        cache = AnalysisCache(edited, store=PersistentCacheStore(tmp_path))
        got = cache.wcet(program, "work")
        assert cache.disk_hits == 0 and cache.disk_misses > 0
        assert got.cycles == WCETAnalyzer(edited).analyze(
            program, "work").cycles
        assert got.cycles > before
        # The unedited model still hits what it wrote.
        again = AnalysisCache(nucleo_stm32f091rc(),
                              store=PersistentCacheStore(tmp_path))
        assert again.wcet(program, "work").cycles == before
        assert again.disk_hits > 0 and again.disk_misses == 0

    def test_multi_core_scopes_get_distinct_records(self, tmp_path):
        platform = gr712rc()
        program = compile_source(_source(16))
        store = PersistentCacheStore(tmp_path)
        cache = AnalysisCache(platform, store=store)
        cores = list(platform.predictable_cores)
        assert len(cores) >= 2
        for core in cores:
            cache.wcet(program, "work", core=core)
            for opp in core.operating_points:
                cache.wcec(program, "work", core=core, opp=opp)
        # One cycles record per core plus one energy record per (core, OPP).
        expected = len(cores) + sum(len(c.operating_points) for c in cores)
        assert len(store) == expected

    def test_disk_fault_on_put_detaches_the_store(self):
        # A full disk must degrade the cache to memory-only, counted and
        # visible, instead of failing the query.
        class FullDiskStore:
            def __init__(self):
                self.gets = 0
                self.puts = 0

            def get(self, digest):
                self.gets += 1
                return None

            def put(self, digest, payload):
                self.puts += 1
                raise OSError(errno.ENOSPC, "No space left on device")

        platform = nucleo_stm32f091rc()
        program = compile_source(_source(16))
        other = compile_source(_source(24))
        expected = AnalysisCache(platform).wcet(program, "work")
        store = FullDiskStore()
        cache = AnalysisCache(platform, store=store)

        got = cache.wcet(program, "work")
        assert got.cycles == expected.cycles
        assert got.per_function_cycles == expected.per_function_cycles
        assert cache.stats()["disk_errors"] == 1
        assert not cache.stats()["persistent"]
        touched = (store.gets, store.puts)
        assert touched == (1, 1)
        # Later misses are computed in memory without touching the store.
        cache.wcec(program, "work")
        cache.wcet(other, "work")
        assert (store.gets, store.puts) == touched
        assert cache.stats()["disk_errors"] == 1
        assert cache.misses == 3


#: The analysis version and the digest of the analysis sources it was set
#: for (see :func:`_analysis_sources_digest`).
PINNED_ANALYSIS_SOURCES = (
    1, "7a2bfbdda3dee0bb0642d32a8f54dd73d0a20a356f01780f34bed445eedcd45e")


def _analysis_sources_digest() -> str:
    """SHA-256 over the ``.py`` files under ``repro/wcet`` and
    ``repro/energy`` and the instruction price (``repro/hw/price.py``), by
    relative path, line endings normalised."""
    root = Path(repro.__file__).parent
    paths = [path for package in ("wcet", "energy")
             for path in sorted((root / package).rglob("*.py"))]
    digest = hashlib.sha256()
    for path in paths + [root / "hw" / "price.py"]:
        digest.update(f"{path.relative_to(root).as_posix()}\0".encode())
        digest.update(path.read_bytes().replace(b"\r\n", b"\n"))
        digest.update(b"\0")
    return digest.hexdigest()


class TestAnalysisVersionGuard:
    def test_analysis_sources_match_the_pinned_version(self):
        # A warm --cache-dir serves the bounds of the analysis that wrote
        # it unless ANALYSIS_VERSION (in every on-disk digest) changes.
        assert (ANALYSIS_VERSION, _analysis_sources_digest()) \
            == PINNED_ANALYSIS_SOURCES, (
                "the sources under src/repro/wcet/ or src/repro/energy/ "
                "or src/repro/hw/price.py changed.  If the change can move "
                "a bound, bump ANALYSIS_VERSION in src/repro/compiler/engine/cache.py; "
                "either way re-pin PINNED_ANALYSIS_SOURCES in "
                "tests/test_persist.py, and justify a re-pin without a "
                "bump in CHANGES.md")


# ---------------------------------------------------------------------------
# Fingerprints hash once and never carry their hash through pickle
# ---------------------------------------------------------------------------
class _CountingStr(str):
    """A string that counts how often it is hashed."""

    hashes = 0

    def __hash__(self):
        type(self).hashes += 1
        return str.__hash__(self)


_PICKLE_PROGRAM = """
import pickle, sys
from repro.compiler.engine.cache import program_fingerprint
from repro.frontend import compile_source
program = compile_source({source!r})
program_fingerprint(program)
sys.stdout.buffer.write(pickle.dumps(program))
"""

_LOAD_AND_QUERY = """
import pickle, sys
from repro.compiler.engine import AnalysisCache
from repro.frontend import compile_source
from repro.hw.presets import nucleo_stm32f091rc
loaded = pickle.loads(sys.stdin.buffer.read())
cache = AnalysisCache(nucleo_stm32f091rc())
cache.wcet(compile_source({source!r}), "work")
cache.wcet(loaded, "work")
print(cache.hits, cache.misses)
"""


class TestFingerprintHash:
    def test_fingerprint_equals_and_hashes_like_a_plain_tuple(self):
        fingerprint = program_fingerprint(compile_source(_source(16)))
        plain = tuple(fingerprint)
        assert fingerprint == plain and hash(fingerprint) == hash(plain)
        assert key_digest(fingerprint) == key_digest(plain)

    def test_pickled_fingerprint_recomputes_its_hash(self):
        fingerprint = program_fingerprint(compile_source(_source(16)))
        # Corrupt the stored hash: a pickle that carried it would keep it.
        fingerprint._hash = 12345
        loaded = pickle.loads(pickle.dumps(fingerprint))
        assert loaded == fingerprint
        assert hash(loaded) == hash(tuple(fingerprint))

    def test_pickled_program_recomputes_its_memoised_fingerprint_hash(self):
        program = compile_source(_source(16))
        program_fingerprint(program)._hash = 12345
        loaded = program_fingerprint(pickle.loads(pickle.dumps(program)))
        assert hash(loaded) == hash(tuple(loaded))

    def test_pickle_from_another_hash_seed_hits_in_memory(self):
        # Pickled under one string-hash salt, loaded under another: a
        # carried-over hash would miss the locally computed key.
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")

        def run(code, seed, stdin=None):
            env = dict(os.environ, PYTHONHASHSEED=str(seed),
                       PYTHONPATH=os.pathsep.join(
                           [src, os.environ.get("PYTHONPATH", "")]))
            return subprocess.run(
                [sys.executable, "-c", code.format(source=_source(16))],
                env=env, input=stdin, capture_output=True, check=True,
                timeout=120).stdout

        payload = run(_PICKLE_PROGRAM, 1)
        hits, misses = run(_LOAD_AND_QUERY, 2, payload).split()
        assert (int(hits), int(misses)) == (1, 1)

    def test_warm_query_does_not_rehash_the_fingerprint(self):
        program = compile_source(_source(16))
        for function in program.functions.values():
            function.code_region = _CountingStr(
                function.code_region or "flash")
        cache = AnalysisCache(nucleo_stm32f091rc())
        cache.wcet(program, "work")
        cache.wcec(program, "work")
        _CountingStr.hashes = 0
        cache.wcet(program, "work")
        cache.wcec(program, "work")
        assert cache.hits == 4
        assert _CountingStr.hashes == 0


# ---------------------------------------------------------------------------
# Golden parity: E1/E2/E3/E6 with the disk tier, across a restart
# ---------------------------------------------------------------------------
_GOLDEN_SCENARIOS = (
    ("camera-pill", "camera_pill_e1.json"),
    ("space-spacewire", "space_e2.json"),
    ("uav-sar", "uav_sar_e3.json"),
    ("parking-dl-tk1", "parking_tk1_e6.json"),
)


class TestGoldenParityWithDiskTier:
    @pytest.fixture(scope="class")
    def disk_tier_runs(self, tmp_path_factory):
        cache_dir = str(tmp_path_factory.mktemp("analysis-cache"))
        with shared_analysis_caches(cache_dir):
            cold = {name: run_scenario(name)
                    for name, _ in _GOLDEN_SCENARIOS}
            cold_stats = process_analysis_cache_stats()
        # Simulated restart: a new scope drops every in-memory cache and the
        # store handle, re-attaches to the same directory, replays from disk.
        with shared_analysis_caches(cache_dir):
            warm = {name: run_scenario(name)
                    for name, _ in _GOLDEN_SCENARIOS}
            warm_stats = process_analysis_cache_stats()
            store = process_cache_store()
            store_stats = store.stats() if store is not None else None
        return cold, warm, cold_stats, warm_stats, store_stats

    @pytest.mark.parametrize("name,golden_file", _GOLDEN_SCENARIOS)
    def test_reports_match_goldens_cold_and_warm(self, disk_tier_runs,
                                                 name, golden_file):
        cold, warm, _, _, _ = disk_tier_runs
        expected = golden(golden_file)["report"]
        assert_report_matches(cold[name].report, expected)
        assert_report_matches(warm[name].report, expected)

    def test_restart_served_from_disk(self, disk_tier_runs):
        _, _, cold_stats, warm_stats, store_stats = disk_tier_runs
        # The cold sweep computed and persisted; the restarted sweep must
        # find every one of those tables on disk.
        cold_misses = sum(s["disk_misses"] for s in cold_stats.values())
        assert cold_misses > 0
        warm_hits = sum(s["disk_hits"] for s in warm_stats.values())
        assert warm_hits > 0
        assert all(s["disk_misses"] == 0 for s in warm_stats.values())
        assert all(s["persistent"] for s in warm_stats.values())
        assert store_stats is not None
        assert store_stats["replayed_records"] >= cold_misses
        assert store_stats["skipped_lines"] == 0
