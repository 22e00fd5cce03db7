"""Persistent, cross-process tier under the engine analysis caches.

The in-memory caches of :mod:`repro.compiler.engine.cache` die with their
process: under ``serve --worker-mode process`` every pool worker rebuilds its
own WCET/WCEC tables, and a service restart starts cold even when the
``JobJournal`` replays every job.  This module adds the missing tier — an
append-only, segment-file :class:`PersistentCacheStore` that any number of
processes can read and write concurrently:

* **Records** are single JSONL lines, each prefixed with a CRC32 of its body
  (``"crc32hex payload\\n"``), so a torn tail from a crashed or SIGKILLed
  writer is detected and skipped on replay exactly like
  :mod:`repro.service.journal` skips torn journal lines.  Appending first
  repairs an unterminated tail (prepends a newline) so one crash never
  corrupts the next writer's record.
* **Keys** are SHA-256 digests over a canonical JSON serialisation of
  ``(platform key, pass-list key, analysis kind, core, operating point,
  structural fingerprint)`` — see :func:`key_digest`.  The pass-list
  component comes from :meth:`PassManager.pass_list_key
  <repro.compiler.pipeline.PassManager.pass_list_key>`: registering a custom
  pass changes every digest and retires all entries produced without it, the
  same automatic widening the in-memory stage caches get.  The structural
  fingerprint (:func:`~repro.compiler.engine.cache.program_fingerprint`)
  already captures the *effect* of the passes that ran, so the pass-list key
  acts as a schema/namespace guard rather than a correctness requirement.
  The serialisation runs in the C JSON encoder in one call (enum members go
  through a memoised ``default=`` hook); its bytes, and so every digest,
  equal those of the recursive canonicaliser it replaced, which survives as
  the test oracle ``canon_key_reference`` in ``tests/oracles.py``.
* **Writers** serialise through an ``fcntl.flock`` on a lock file next to the
  segments, so concurrent processes never interleave partial lines.
* **Segments** roll over at ``max_segment_bytes``; once more than
  ``max_segments`` exist, the writer compacts: all live (last-wins) records
  are rewritten into one fresh segment and the old segments are deleted.
  Other processes detect the vanished segments on their next refresh and
  rebuild their index from scratch.

Values are opaque JSON objects.  For the analysis tier,
:func:`encode_analysis_entry` / :func:`decode_analysis_entry` serialise the
``(table, errors)`` pairs the :class:`~repro.compiler.engine.cache.AnalysisCache`
stores — floats survive JSON bit-for-bit (``json`` round-trips doubles via
``repr``), so disk hits are exactly the numbers the uncached analysis
produces.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import json
import os
import re
import threading
import zlib
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.errors import AnalysisError, TeamPlayError, UnboundedLoopError

if TYPE_CHECKING:
    from repro.compiler.pipeline.manager import PassManager

try:  # pragma: no cover - import guard exercised only on non-POSIX hosts
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]

#: Version stamp mixed into every key digest.  Bump when the record payload
#: layout or the fingerprint canonicalisation changes: old segments then
#: simply stop matching instead of decoding into wrong-shaped entries.
PERSIST_CODEC_VERSION = 1

#: Segment file naming: ``cache-000001.seg``, monotonically increasing.
_SEGMENT_RE = re.compile(r"^cache-(\d{6})\.seg$")
_SEGMENT_FMT = "cache-{:06d}.seg"
_LOCK_FILENAME = ".lock"

#: Defaults chosen so a steady-state store stays small: analysis records are
#: a few KiB each, so 4 MiB segments hold ~1k records and compaction at 8
#: segments caps the directory around 32 MiB before rewrite.
DEFAULT_MAX_SEGMENT_BYTES = 4 * 1024 * 1024
DEFAULT_MAX_SEGMENTS = 8


class PersistError(TeamPlayError):
    """Raised for unusable cache directories and undecodable records."""


# ---------------------------------------------------------------------------
# Cache-directory validation
# ---------------------------------------------------------------------------
def validate_cache_dir(path: "os.PathLike[str] | str") -> str:
    """Normalise and sanity-check a ``--cache-dir`` argument, fail fast.

    Creates the directory (and parents) when missing; raises
    :class:`PersistError` with an actionable message when the path exists but
    is not a directory, cannot be created, or is not writable — *before* any
    job runs, instead of erroring mid-sweep inside a pool worker.
    Returns the absolute path.
    """
    directory = os.path.abspath(os.fspath(path))
    try:
        os.makedirs(directory, exist_ok=True)
    except FileExistsError:
        raise PersistError(
            f"cache dir {directory!r} exists and is not a directory") from None
    except OSError as error:
        raise PersistError(
            f"cannot create cache dir {directory!r}: {error}") from None
    if not os.path.isdir(directory):
        raise PersistError(
            f"cache dir {directory!r} exists and is not a directory")
    # Probe writability with a real create+unlink: os.access() lies for root
    # and for some network filesystems.
    probe = os.path.join(directory, f".write-probe-{os.getpid()}")
    try:
        with open(probe, "w", encoding="utf-8") as handle:
            handle.write("")
        os.unlink(probe)
    except OSError as error:
        raise PersistError(
            f"cache dir {directory!r} is not writable: {error}") from None
    return directory


# ---------------------------------------------------------------------------
# Key digests
# ---------------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _enum_form(member: enum.Enum) -> Dict[str, List[str]]:
    return {"enum": [type(member).__name__, member.name]}


def _encode_enum(value):
    """``default=`` hook of :data:`_KEY_ENCODER`: enum members by type and
    member name (never by implicit ordinal); anything else is refused."""
    if isinstance(value, enum.Enum):
        return _enum_form(value)
    raise PersistError(
        f"unsupported key component of type {type(value).__name__!r}")


#: Canonical JSON of key components, run by the C encoder.  It writes
#: tuples and lists alike as arrays and strings, ints, floats, bools and
#: ``None`` natively, and calls :func:`_encode_enum` for anything else.
#: Limits: an enum that mixes in ``str`` or ``int`` is written by value
#: without reaching the hook, so it would collide with its plain value, and
#: a dict is written as an object instead of being refused.  The key
#: vocabulary holds neither (``Opcode`` and ``CoreKind`` are plain
#: :class:`enum.Enum`; ``tests/test_persist.py`` pins that).
_KEY_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True,
                                check_circular=False, default=_encode_enum)


def key_digest(*parts) -> str:
    """SHA-256 hex digest of the canonical JSON serialisation of ``parts``.

    Key components are nested tuples/lists, strings, ints, floats, bools,
    ``None`` and :class:`enum.Enum` members; anything else, bar the limits
    noted on :data:`_KEY_ENCODER`, raises :class:`PersistError`.
    """
    blob = _KEY_ENCODER.encode([PERSIST_CODEC_VERSION, parts])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@functools.lru_cache(maxsize=None)
def stock_pass_manager() -> "PassManager":
    """The stock pipeline's pass manager, shared by every engine cache built
    without one — treat it as read-only (registering a pass on it would
    re-key all of them).

    Imported lazily: :mod:`repro.compiler.pipeline` imports back into the
    compiler package, so a module-level import would be circular from
    :mod:`repro.compiler.engine.cache`.
    """
    from repro.compiler.pipeline.manager import PassManager
    return PassManager()


def default_pass_list_key() -> Tuple[Tuple[str, str], ...]:
    """Pass-list key of the stock pipeline, for stand-alone analysis caches."""
    return stock_pass_manager().pass_list_key()


# ---------------------------------------------------------------------------
# Record codec
# ---------------------------------------------------------------------------
def encode_record(digest: str, value) -> str:
    """One CRC-guarded JSONL record (without the trailing newline).

    The body is compact JSON *without* key sorting: JSON preserves object
    member order through a dump/load round trip, so decoded analysis tables
    iterate in exactly the order the uncached analysis produced them.
    """
    body = json.dumps({"k": digest, "v": value}, separators=(",", ":"))
    if "\n" in body:  # pragma: no cover - json never emits raw newlines
        raise PersistError("record body must be a single line")
    crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    return f"{crc:08x} {body}"


def decode_record(line: str) -> Tuple[str, object]:
    """Inverse of :func:`encode_record`; raises :class:`PersistError` on any
    truncated, corrupted or foreign line (wrong CRC, bad JSON, missing keys).
    """
    prefix, sep, body = line.partition(" ")
    if not sep or len(prefix) != 8:
        raise PersistError("malformed record: missing CRC prefix")
    try:
        expected = int(prefix, 16)
    except ValueError:
        raise PersistError("malformed record: bad CRC prefix") from None
    if zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF != expected:
        raise PersistError("malformed record: CRC mismatch (torn write?)")
    try:
        payload = json.loads(body)
    except ValueError:
        raise PersistError("malformed record: undecodable body") from None
    if not isinstance(payload, dict) or "k" not in payload or "v" not in payload:
        raise PersistError("malformed record: not a key/value object")
    digest = payload["k"]
    if not isinstance(digest, str):
        raise PersistError("malformed record: non-string key digest")
    return digest, payload["v"]


def terminate_torn_tail(handle) -> None:
    """End a crash-torn last line so the next append starts on its own line.

    ``handle`` is a binary file open for reading and appending (``"a+b"``).
    Without the newline, a record appended after a writer died mid-line
    would merge with the torn fragment into one undecodable line, and
    replay would skip both.  Shared by the analysis store and the service's
    job journal (:mod:`repro.service.journal`).
    """
    handle.seek(0, os.SEEK_END)
    if handle.tell() > 0:
        handle.seek(-1, os.SEEK_END)
        if handle.read(1) != b"\n":
            handle.write(b"\n")


# ---------------------------------------------------------------------------
# Analysis-entry payload codec
# ---------------------------------------------------------------------------
_ERROR_CLASSES = {
    "AnalysisError": AnalysisError,
    "UnboundedLoopError": UnboundedLoopError,
}


def encode_analysis_entry(entry) -> Dict[str, object]:
    """JSON payload of an ``AnalysisCache`` ``(table, errors)`` pair."""
    table, errors = entry
    encoded_errors = {}
    for name, error in errors.items():
        payload: Dict[str, object] = {
            "cls": type(error).__name__, "msg": str(error)}
        function = getattr(error, "function", None)
        if function is not None:
            payload["fn"] = function
        encoded_errors[name] = payload
    return {"t": dict(table), "e": encoded_errors}


def _decode_error(payload) -> AnalysisError:
    cls = _ERROR_CLASSES.get(payload.get("cls"), AnalysisError)
    # Rebuild without calling __init__: subclass initialisers reformat their
    # message, but the persisted message is already the formatted one.
    error = cls.__new__(cls)
    Exception.__init__(error, payload.get("msg", ""))
    if "fn" in payload:
        error.function = payload["fn"]
    return error


def decode_analysis_entry(payload) -> Tuple[Dict[str, float], Dict[str, Exception]]:
    """Inverse of :func:`encode_analysis_entry`."""
    if not isinstance(payload, dict) or "t" not in payload:
        raise PersistError("malformed analysis entry payload")
    table = {str(name): value for name, value in payload["t"].items()}
    errors = {str(name): _decode_error(spec)
              for name, spec in payload.get("e", {}).items()}
    return table, errors


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------
class PersistentCacheStore:
    """Append-only, multi-process key/value store over segment files.

    One instance per process per directory; every instance keeps a full
    in-memory index (digest → value) plus per-segment consumed offsets, and
    lazily replays whatever other processes appended since the last refresh.
    Thread-safe; safe across ``fork()`` (no file handle is held open between
    operations, and the ``flock`` is taken per append on a freshly opened
    lock file, so parent and forked workers never share a lock state).
    """

    def __init__(self, directory: "os.PathLike[str] | str",
                 max_segment_bytes: int = DEFAULT_MAX_SEGMENT_BYTES,
                 max_segments: int = DEFAULT_MAX_SEGMENTS):
        if max_segment_bytes < 1:
            raise ValueError("max_segment_bytes must be >= 1")
        if max_segments < 2:
            raise ValueError("max_segments must be >= 2")
        self.directory = validate_cache_dir(directory)
        self.max_segment_bytes = max_segment_bytes
        self.max_segments = max_segments
        self._lock = threading.Lock()
        self._index: Dict[str, object] = {}
        #: Bytes of each segment consumed into the index, by file name.
        self._offsets: Dict[str, int] = {}
        # Counters (cumulative for the lifetime of this instance).
        self.hits = 0
        self.misses = 0
        self.appends = 0
        self.replayed_records = 0
        self.skipped_lines = 0
        self.compactions = 0
        self.rebuilds = 0
        with self._lock:
            self._refresh_locked()

    # ------------------------------------------------------------- helpers --
    def _segment_names(self) -> List[str]:
        try:
            names = os.listdir(self.directory)
        except OSError as error:
            raise PersistError(
                f"cannot list cache dir {self.directory!r}: {error}") from None
        segments = [n for n in names if _SEGMENT_RE.match(n)]
        segments.sort()
        return segments

    def _segment_path(self, name: str) -> str:
        return os.path.join(self.directory, name)

    @staticmethod
    def _segment_index(name: str) -> int:
        match = _SEGMENT_RE.match(name)
        assert match is not None
        return int(match.group(1))

    class _FileLock:
        """Advisory whole-store writer lock (``flock`` on ``.lock``)."""

        def __init__(self, path: str):
            self._path = path
            self._handle = None

        def __enter__(self):
            self._handle = open(self._path, "a+b")
            if fcntl is not None:
                fcntl.flock(self._handle.fileno(), fcntl.LOCK_EX)
            return self

        def __exit__(self, *exc):
            if self._handle is not None:
                if fcntl is not None:
                    fcntl.flock(self._handle.fileno(), fcntl.LOCK_UN)
                self._handle.close()
                self._handle = None

    def _file_lock(self) -> "PersistentCacheStore._FileLock":
        return self._FileLock(os.path.join(self.directory, _LOCK_FILENAME))

    # -------------------------------------------------------------- replay --
    def _consume(self, data: bytes) -> int:
        """Index every complete line of ``data``; return the bytes consumed.

        An unterminated tail (a record another process is mid-write, or the
        torn last line of a crashed writer) is left unconsumed: the next
        refresh re-reads it once it is complete, and the next *appender*
        repairs it with a newline so it can never merge into a later record.
        """
        end = data.rfind(b"\n")
        if end < 0:
            return 0
        consumed = end + 1
        for raw in data[:consumed].split(b"\n"):
            if not raw:
                continue
            try:
                digest, value = decode_record(raw.decode("utf-8"))
            except (PersistError, UnicodeDecodeError):
                self.skipped_lines += 1
                continue
            self._index[digest] = value
            self.replayed_records += 1
        return consumed

    def _refresh_locked(self) -> None:
        """Fold whatever other processes appended into the in-memory index.

        If a previously consumed segment vanished or shrank (another process
        compacted the store), the index is rebuilt from scratch — offsets
        into deleted files are meaningless.
        """
        segments = self._segment_names()
        current = set(segments)
        for name, consumed in self._offsets.items():
            if name not in current:
                stale = True
            else:
                try:
                    stale = os.path.getsize(self._segment_path(name)) < consumed
                except OSError:
                    stale = True
            if stale:
                self._index.clear()
                self._offsets.clear()
                self.rebuilds += 1
                break
        for name in segments:
            consumed = self._offsets.get(name, 0)
            path = self._segment_path(name)
            try:
                size = os.path.getsize(path)
            except OSError:
                continue  # raced with a concurrent compaction; next refresh
            if size <= consumed:
                continue
            with open(path, "rb") as handle:
                handle.seek(consumed)
                data = handle.read()
            self._offsets[name] = consumed + self._consume(data)

    # ------------------------------------------------------------- appends --
    def _active_segment_locked(self) -> str:
        """The segment to append to, rolling over at the size cap."""
        segments = self._segment_names()
        if not segments:
            return self._segment_path(_SEGMENT_FMT.format(1))
        last = segments[-1]
        path = self._segment_path(last)
        try:
            size = os.path.getsize(path)
        except OSError:
            size = 0
        if size >= self.max_segment_bytes:
            return self._segment_path(
                _SEGMENT_FMT.format(self._segment_index(last) + 1))
        return path

    def _append_locked(self, line: str) -> None:
        path = self._active_segment_locked()
        data = line.encode("utf-8") + b"\n"
        with open(path, "a+b") as handle:
            terminate_torn_tail(handle)
            handle.write(data)
            handle.flush()
        self.appends += 1

    def _compact_locked(self) -> None:
        """Rewrite all live records into one fresh segment, drop the rest.

        Runs under the file lock.  The fresh segment gets the next index so
        its name never collides with a segment another reader still tracks;
        readers notice the deleted segments and rebuild.
        """
        segments = self._segment_names()
        if len(segments) <= self.max_segments:
            return
        # Fold every segment completely (our index may legitimately lag).
        self._offsets.clear()
        live: Dict[str, object] = {}
        replayed_before = self.replayed_records
        index_backup, self._index = self._index, live
        try:
            for name in segments:
                path = self._segment_path(name)
                try:
                    with open(path, "rb") as handle:
                        data = handle.read()
                except OSError:
                    continue
                self._consume(data)
        finally:
            self._index = index_backup
        self.replayed_records = replayed_before
        self._index.update(live)
        target = _SEGMENT_FMT.format(self._segment_index(segments[-1]) + 1)
        tmp_path = self._segment_path(target + ".tmp")
        with open(tmp_path, "wb") as handle:
            for digest, value in live.items():
                handle.write(encode_record(digest, value).encode("utf-8"))
                handle.write(b"\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, self._segment_path(target))
        for name in segments:
            try:
                os.unlink(self._segment_path(name))
            except OSError:  # pragma: no cover - raced deletion is fine
                pass
        self._offsets = {target: os.path.getsize(self._segment_path(target))}
        self.compactions += 1

    # ---------------------------------------------------------- public API --
    def get(self, digest: str):
        """The stored value for ``digest``, or ``None``.

        A miss triggers one refresh (another process may have appended the
        record since our last read) before giving up.
        """
        with self._lock:
            value = self._index.get(digest)
            if value is None:
                self._refresh_locked()
                value = self._index.get(digest)
            if value is None:
                self.misses += 1
                return None
            self.hits += 1
            return value

    def put(self, digest: str, value) -> None:
        """Append ``digest → value``; last write wins across processes."""
        line = encode_record(digest, value)
        with self._lock:
            with self._file_lock():
                self._append_locked(line)
                self._compact_locked()
            self._index[digest] = value

    def refresh(self) -> None:
        """Eagerly fold other processes' appends into the index."""
        with self._lock:
            self._refresh_locked()

    def compact(self) -> None:
        """Force a compaction pass (normally triggered by segment count)."""
        with self._lock:
            with self._file_lock():
                segments = self._segment_names()
                if len(segments) > 1:
                    threshold, self.max_segments = self.max_segments, 1
                    try:
                        self._compact_locked()
                    finally:
                        self.max_segments = threshold

    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    def __contains__(self, digest: str) -> bool:
        with self._lock:
            return digest in self._index

    def stats(self) -> Dict[str, object]:
        """Counters plus on-disk shape, for ``stats()`` / ``GET /stats``."""
        with self._lock:
            segments = self._segment_names()
            size = 0
            for name in segments:
                try:
                    size += os.path.getsize(self._segment_path(name))
                except OSError:
                    pass
            return {
                "directory": self.directory,
                "entries": len(self._index),
                "segments": len(segments),
                "bytes": size,
                "hits": self.hits,
                "misses": self.misses,
                "appends": self.appends,
                "replayed_records": self.replayed_records,
                "skipped_lines": self.skipped_lines,
                "compactions": self.compactions,
                "rebuilds": self.rebuilds,
            }
