"""Persistent, cross-process tier under the engine analysis caches.

The in-memory caches of :mod:`repro.compiler.engine.cache` die with their
process: under ``serve --worker-mode process`` every pool worker computes
its own WCET/WCEC tables, and a service restart starts cold even when the
``JobJournal`` replays every job.  This module adds the missing tier — an
append-only :class:`PersistentCacheStore`, one record file plus a lock file
in its directory, that any number of processes can read and write
concurrently:

* **Records** are single JSONL lines, each prefixed with a CRC32 of its body
  (``"crc32hex payload\\n"``), so a torn tail from a crashed or SIGKILLed
  writer is detected and skipped on replay exactly like
  :mod:`repro.service.journal` skips torn journal lines.  Appending first
  repairs an unterminated tail (prepends a newline) so one crash never
  corrupts the next writer's record.
* **Keys** are SHA-256 digests over a canonical JSON serialisation of
  their components — see :func:`key_digest`.  The analysis tier keys one
  function's cost by ``(cost-model digest, analysis version, pass-list
  key, analysis kind, core, operating point, path mode, function
  fingerprint, callee costs)`` (see
  :class:`~repro.compiler.engine.cache.AnalysisCache`).  The pass-list
  component comes from :meth:`PassManager.pass_list_key
  <repro.compiler.pipeline.PassManager.pass_list_key>`: registering a custom
  pass changes every digest and retires all entries produced without it, the
  same automatic widening the in-memory caches get.  The fingerprint
  already captures the *effect* of the passes that ran, so the pass-list key
  acts as a schema/namespace guard rather than a correctness requirement.
  The serialisation runs in the C JSON encoder in one call (enum members go
  through a memoised ``default=`` hook); its bytes, and so every digest,
  equal those of the recursive canonicaliser it replaced, which survives as
  the test oracle ``canon_key_reference`` in ``tests/oracles.py``.
* **Writers** serialise through an ``fcntl.flock`` on a lock file next to the
  records, so concurrent processes never interleave partial lines; last
  write wins.  Readers tail the file from the offset they consumed.
* **Growth** is one line per distinct function cost, with no automatic
  bound: every analysis digest is distinct, so there is nothing to fold.  Wiping the
  file (or the directory) reclaims the space; a reader that finds the file
  shorter than its offset drops its index and re-reads from the start.

Values are opaque JSON objects.  For the analysis tier,
:func:`encode_outcome` / :func:`decode_outcome` serialise one function's
cost or analysis error — floats survive JSON bit-for-bit (``json``
round-trips doubles via ``repr``), so disk hits are exactly the numbers the
uncached analysis produces.
"""

from __future__ import annotations

import contextlib
import enum
import functools
import hashlib
import json
import os
import threading
import zlib
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.errors import AnalysisError, TeamPlayError, UnboundedLoopError

if TYPE_CHECKING:
    from repro.compiler.pipeline.manager import PassManager

try:  # pragma: no cover - import guard exercised only on non-POSIX hosts
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]

#: Version stamp mixed into every key digest.  Bump when the record payload
#: layout or the fingerprint canonicalisation changes: old records then
#: simply stop matching instead of decoding into wrong-shaped entries.
PERSIST_CODEC_VERSION = 2

#: The one record file and its writer lock.  The numbered name is the one
#: earlier releases appended to first, so a directory they wrote keeps
#: hitting.
_RECORDS_FILENAME = "cache-000001.seg"
_LOCK_FILENAME = ".lock"


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


def encode_outcome(outcome) -> Dict[str, object]:
    """JSON payload of one function's outcome: ``{"c": cost}``, or
    ``{"e": error}`` for the analysis error of a function without a bound."""
    if not isinstance(outcome, Exception):
        return {"c": outcome}
    payload: Dict[str, object] = {
        "cls": type(outcome).__name__, "msg": str(outcome)}
    function = getattr(outcome, "function", None)
    if function is not None:
        payload["fn"] = function
    return {"e": payload}


def decode_outcome(payload):
    """Inverse of :func:`encode_outcome`: a float cost or an
    :class:`AnalysisError`."""
    if isinstance(payload, dict):
        cost = payload.get("c")
        if isinstance(cost, float):
            return cost
        error = payload.get("e")
        if isinstance(error, dict) and isinstance(error.get("msg"), str):
            cls = _ERROR_CLASSES.get(error.get("cls"), AnalysisError)
            # Rebuild without calling __init__: subclass initialisers
            # reformat their message, but the persisted one is formatted.
            decoded = cls.__new__(cls)
            Exception.__init__(decoded, error["msg"])
            if "fn" in error:
                decoded.function = error["fn"]
            return decoded
    raise PersistError("malformed analysis outcome payload")


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------
class PersistentCacheStore:
    """Append-only, multi-process key/value store over one record file.

    One instance per process per directory; every instance keeps a full
    in-memory index (digest → value) plus the bytes of the file consumed so
    far, and lazily replays whatever other processes appended since the
    last refresh.  Thread-safe; safe across ``fork()`` (no file handle is
    held open between operations, and the ``flock`` is taken per append on
    a freshly opened lock file, so parent and forked workers never share a
    lock state).
    """

    def __init__(self, directory: "os.PathLike[str] | str"):
        self.directory = validate_cache_dir(directory)
        self._path = os.path.join(self.directory, _RECORDS_FILENAME)
        self._lock = threading.Lock()
        self._index: Dict[str, object] = {}
        #: Bytes of the record file consumed into the index.
        self._offset = 0
        # Counters (cumulative for the lifetime of this instance).
        self.hits = 0
        self.misses = 0
        self.appends = 0
        self.replayed_records = 0
        self.skipped_lines = 0
        with self._lock:
            self._refresh_locked()

    @contextlib.contextmanager
    def _file_lock(self):
        """Advisory whole-store writer lock (``flock`` on ``.lock``)."""
        with open(os.path.join(self.directory, _LOCK_FILENAME),
                  "a+b") as handle:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                if fcntl is not None:
                    fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    def _size(self) -> int:
        try:
            return os.path.getsize(self._path)
        except OSError:
            return 0  # not written yet, or wiped with its directory

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

        A file shorter than the consumed offset was wiped under this
        instance: the index is dropped with it and the file re-read from
        its start.
        """
        size = self._size()
        if size < self._offset:
            self._index.clear()
            self._offset = 0
        if size == self._offset:
            return
        with open(self._path, "rb") as handle:
            handle.seek(self._offset)
            data = handle.read()
        self._offset += self._consume(data)

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
        """Append ``digest → value``; last write wins across processes.

        When nothing was appended since this instance's last read, the
        new record is consumed at once: no refresh re-reads its own appends.
        """
        data = encode_record(digest, value).encode("utf-8") + b"\n"
        with self._lock:
            with self._file_lock(), open(self._path, "a+b") as handle:
                terminate_torn_tail(handle)
                start = handle.tell()
                handle.write(data)
            if start == self._offset:
                self._offset += len(data)
            self.appends += 1
            self._index[digest] = value

    def refresh(self) -> None:
        """Eagerly fold other processes' appends into the index."""
        with self._lock:
            self._refresh_locked()

    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    def __contains__(self, digest: str) -> bool:
        with self._lock:
            return digest in self._index

    def stats(self) -> Dict[str, object]:
        """Counters plus on-disk size, for ``stats()`` / ``GET /stats``."""
        with self._lock:
            return {
                "directory": self.directory,
                "entries": len(self._index),
                "bytes": self._size(),
                "hits": self.hits,
                "misses": self.misses,
                "appends": self.appends,
                "replayed_records": self.replayed_records,
                "skipped_lines": self.skipped_lines,
            }
