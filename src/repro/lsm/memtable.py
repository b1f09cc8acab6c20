"""Sorted in-memory write buffer with tombstones (Appendix D.1).

The paper's insert story: "all inserts are kept in buffer and from
time to time merged with a potential retraining of the model."  The
*buffer* is a :class:`Memtable`: the
:class:`repro.lsm.store.LearnedLSMStore` writes into one and seals it
into an immutable :class:`~repro.lsm.run.SortedRun` behind older ones.

It holds three segments, oldest first: the *layout* (the sorted
``(keys, values, tombstone mask)`` triple a run stores, tombstones as
entries of value :data:`TOMBSTONE_VALUE`), the *records* (an owned
copy of each batch write since, in write order) and the *scalar
segment* (a dict of the scalar ``put`` / ``delete`` calls since the
last batch, ``None`` for a tombstone, folded into a record when the
next batch arrives, so write order holds).

Cost model: a batch write (:meth:`put_batch`, :meth:`delete_batch`,
:meth:`apply`, so WAL replay too) is one copy and one list append, O(1)
Python; a scalar write is one dict store.  The first read after a burst
of writes builds the layout once: one sort of the records (packed with
their positions, :func:`repro.util.sorted_order`), then a linear merge
into the old layout, newest entry per key
(:func:`repro.util.newest_entries`).  :meth:`entries` returns it and a
seal writes it as it is.  A scalar :meth:`probe` reads the dict, then
the pending records newest first while they hold at most
:data:`~repro.dispatch.PROBE_SCAN_MAX_KEYS` keys (more, and it
builds), then the layout by ``bisect``: scalar writes and a few batch
writes never force a rebuild.
``len()`` is exact (it builds); the seal check reads :meth:`len_bound`
first.  Writes take keys through the key contract
(:func:`repro.util.as_int64_keys`; a refused call buffers nothing).

Concurrency: one writer, any number of readers.  Writes, folds and
builds run under one lock; reads go lock-free unless they build, as
the published triple is immutable and swapped in whole.  A fold
appends its record before it swaps the dict out, and a build publishes
the new layout before it drops the records, so a lock-free
:meth:`probe` that misses the dict finds the entry in a pending record
(scanned, or built in) or in the layout.  A probe scans the record
list it read after the dict, and a build rebinds ``_records`` to a new
list rather than emptying the old one, so a scan never sees a record
vanish under it.
"""

from __future__ import annotations

import threading
from bisect import bisect_left

import numpy as np

from ..dispatch import PROBE_SCAN_MAX_KEYS
from ..util import as_int64_keys, as_int64_pairs, newest_entries
from .wal import RECORD_PUT

__all__ = ["Memtable"]

#: Value stored for tombstone entries in the run layout.
TOMBSTONE_VALUE = 0


def _newest(parts, kind: str):
    """:func:`~repro.util.newest_entries` of ``parts``, then
    memoryviews of the triple for scalar probes."""
    triple = newest_entries(parts, kind)
    return (*triple, *map(memoryview, triple))


def _scan_records(records: list, key):
    """:meth:`Memtable.probe` over pending records without a build:
    newest record first, the last occurrence in a record winning."""
    for keys, values, dead in reversed(records):
        listed = keys.tolist()
        if key in listed:
            if dead is True:  # a delete record
                return True, True, TOMBSTONE_VALUE
            i = len(listed) - 1 - listed[::-1].index(key)
            return True, dead is not False and bool(dead[i]), int(values[i])
    return None


_EMPTY = _newest([(np.empty(0, np.int64), 0, False)], "stable")
_ABSENT = object()

class Memtable:
    """Write buffer: sorted layout + batch records + scalar dict."""

    def __init__(self):
        self._lock = threading.Lock()
        self.clear()

    # -- mutation ------------------------------------------------------------

    def put(self, key: int, value: int) -> None:
        """Write ``key -> value``; overrides any earlier tombstone."""
        with self._lock:
            self._scalar[key] = value
            self._entries = None

    def put_batch(self, keys, values) -> None:
        """Bulk :meth:`put`: later duplicates in the batch win, exactly
        like a put loop."""
        keys, values = as_int64_pairs(keys, values)
        if keys.size:
            self._append(keys.copy(), values.copy(), False)

    def delete(self, key: int) -> None:
        """Blind LSM delete: a tombstone shadows older runs whether or
        not they hold the key (resolved at compaction time)."""
        with self._lock:
            self._scalar[key] = None
            self._entries = None

    def delete_batch(self, keys) -> None:
        """Bulk :meth:`delete`: every entry becomes a tombstone."""
        keys = as_int64_keys(keys)
        if keys.size:
            self._append(keys.copy(), TOMBSTONE_VALUE, True)

    def apply(self, kind: int, keys: np.ndarray, values=None) -> None:
        """Land one write record: a live store call or a WAL replay."""
        if kind == RECORD_PUT:
            self.put_batch(keys, values)
        else:
            self.delete_batch(keys)

    def clear(self) -> None:
        with self._lock:
            self._scalar: dict = {}
            self._records: list = []
            self._pending = 0  # keys across the records
            self._layout, self._entries = _EMPTY, _EMPTY[:3]

    def _append(self, keys, values, dead) -> None:
        with self._lock:
            self._fold_scalar()
            self._records.append((keys, values, dead))
            self._pending += keys.size
            self._entries = None

    def _fold_scalar(self) -> None:
        """Move the scalar segment into a record (lock held)."""
        scalar = self._scalar
        if scalar:
            keys = np.array(list(scalar), dtype=np.int64)
            dead = np.array([v is None for v in scalar.values()], bool)
            # ``None or 0`` is the tombstone's value, TOMBSTONE_VALUE.
            values = np.array([v or 0 for v in scalar.values()], np.int64)
            self._records.append((keys, values, dead))
            self._pending += keys.size
            self._scalar = {}

    def _settle(self, fold: bool) -> None:
        """Build the layout from the last one plus every record (lock
        held); with ``fold``, the scalar segment first."""
        if fold:
            self._fold_scalar()
        if self._records:
            # Sort the records alone, then merge them into the layout:
            # a stable sort merges two sorted runs in linear time.
            layout = _newest(self._records, "quicksort")
            if self._layout[0].size:
                layout = _newest([self._layout, layout], "stable")
            self._layout = layout  # before the records go: see above
            self._records, self._pending = [], 0
        if not self._scalar:
            self._entries = self._layout[:3]

    # -- reads -----------------------------------------------------------------

    def probe(self, key) -> tuple[bool, bool, int]:
        """(entry present, entry is tombstone, value) — shaped like
        :meth:`SortedRun.probe <repro.lsm.run.SortedRun.probe>`."""
        value = self._scalar.get(key, _ABSENT)
        if value is not _ABSENT:
            return True, value is None, value or TOMBSTONE_VALUE
        records = self._records
        if records:
            if self._pending > PROBE_SCAN_MAX_KEYS:
                with self._lock:
                    self._settle(fold=False)
            else:
                hit = _scan_records(records, key)
                if hit is not None:
                    return hit
        _, _, _, keys, values, dead = self._layout  # after the records
        i = bisect_left(keys, key)
        if i < len(keys) and keys[i] == key:
            return True, dead[i], values[i]
        return False, False, 0

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(keys, values, tombstone mask) over *all* entries, sorted: the
        run layout, one atomic triple (never arrays of two generations)."""
        cached = self._entries
        if cached is not None:
            return cached
        with self._lock:
            self._settle(fold=True)
            return self._entries

    # -- accounting ------------------------------------------------------------

    def __len__(self) -> int:
        """Distinct buffered keys, puts and tombstones: what a seal writes."""
        return self.entries()[0].size

    def len_bound(self) -> int:
        """An upper bound on ``len()`` that builds nothing: exact until
        a write repeats a buffered key."""
        return self._layout[0].size + self._pending + len(self._scalar)

    def size_bytes(self) -> int:
        """Approximate buffered payload: 16B per put, 8B per tombstone."""
        return len(self) * 16 - int(np.count_nonzero(self.entries()[2])) * 8

    def __repr__(self) -> str:
        dead = int(np.count_nonzero(self.entries()[2]))
        return f"Memtable(puts={len(self) - dead}, tombstones={dead})"
