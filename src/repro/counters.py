"""The one counter fold and the one bounded-LRU counter base.

Pass timings, engine-cache stages and per-platform analysis caches all
report ``{row: {counter: value}}`` snapshots; every rollup of them goes
through :func:`sum_counters`.  A leaf module (it imports nothing from
:mod:`repro`), so the frontend's parse cache and the engine caches share
:class:`_BoundedCacheMixin` without an import cycle.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Mapping, Optional


def _summable(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def sum_counters(total: Dict[str, Dict[str, object]],
                 snapshot: Optional[Mapping[str, Mapping[str, object]]]
                 ) -> Dict[str, Dict[str, object]]:
    """Fold one ``{row: {counter: value}}`` snapshot into ``total``.

    Numbers that are not bools are summed, except ``max_entries`` (a cap);
    any other key (a pass's ``stage``, a cache's ``persistent`` flag) keeps
    the first snapshot's value.  Rows are copied, never aliased.  ``None``
    snapshots (a custom-kind scenario has no pipeline stats) are skipped.
    Returns ``total``.
    """
    for name, row in (snapshot or {}).items():
        entry = total.get(name)
        if entry is None:
            total[name] = dict(row)
            continue
        for key, value in row.items():
            if key not in entry:
                entry[key] = value
            elif (key != "max_entries" and _summable(value)
                    and _summable(entry[key])):
                entry[key] += value
    return total


class _BoundedCacheMixin:
    """Shared LRU plumbing: a ``max_entries`` cap plus counters.

    Subclasses keep their payloads in ``OrderedDict`` tables and route every
    read through :meth:`_touch` and every insert through :meth:`_insert`;
    with ``max_entries`` unset both are plain dictionary operations.
    """

    def __init__(self, max_entries: Optional[int] = None):
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _touch(self, table: "OrderedDict", key):
        """Read ``key``, refreshing its recency when the cache is bounded."""
        entry = table.get(key)
        if entry is not None and self.max_entries is not None:
            table.move_to_end(key)
        return entry

    def _insert(self, table: "OrderedDict", key, value) -> None:
        """Insert ``key``, evicting the least recently used beyond the cap."""
        table[key] = value
        if self.max_entries is not None:
            table.move_to_end(key)
            while len(table) > self.max_entries:
                table.popitem(last=False)
                self.evictions += 1

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
