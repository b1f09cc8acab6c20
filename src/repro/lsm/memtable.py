"""Sorted in-memory write buffer with tombstones (Appendix D.1).

The paper's insert story is LSM-flavoured: "all inserts are kept in
buffer and from time to time merged with a potential retraining of the
model.  This approach is already widely used, for example in Bigtable."
The *buffer* half of that sentence lives here: the tiered
:class:`repro.lsm.store.LearnedLSMStore` writes into one
:class:`Memtable` and seals it into an immutable
:class:`~repro.lsm.run.SortedRun` behind older ones.

A :class:`Memtable` holds two disjoint pieces of state:

* **puts** — ``key -> value`` for keys written since the last seal
  (dict-backed, so the write path is O(1) per key and a bulk put is
  one C-level ``dict.update``);
* **tombstones** — keys deleted since the last seal.  A put and a
  tombstone for the same key never coexist: whichever lands last wins.

It hands out one layout, the run layout: :meth:`entries` is the
sorted ``(keys, values, tombstone mask)`` triple a
:class:`~repro.lsm.run.SortedRun` stores, tombstones interleaved as
entries with value :data:`TOMBSTONE_VALUE` and a set mask bit.  Reads
probe it as the newest source and a seal writes it as it is.  It
materializes lazily (one ``np.argsort`` per burst of writes) and is
cached until the next write, so scalar probes stay O(1) dict and set
hits and batch probes one ``searchsorted``, without a per-insert sort.

Every write takes its keys through the key contract
(:func:`repro.util.as_int64_keys`): a non-integer is a ``TypeError``,
a key outside int64 an ``OverflowError``, and a refused call buffers
nothing.

Concurrency: the LSM store serves reads from reader threads while a
single writer mutates the buffer, so the lazy materialization and
every bulk mutation run under one internal lock.  Without it, two
readers racing into :meth:`entries` (or a reader racing a writer's
``dict.update``) could iterate a dict that changes size mid-
``np.fromiter`` — a crash, not just a stale answer.  :meth:`probe`
stays lock-free: each dict or set probe is a single atomic C-level
operation, and a concurrent reader is entitled to either the before or
the after state.  The materialized triple is immutable once built and
swapped in atomically, so readers share it without copying.
"""

from __future__ import annotations

import threading

import numpy as np

from ..util import as_int64_keys, as_int64_pairs
from .wal import RECORD_PUT

__all__ = ["Memtable"]

#: Value stored for tombstone entries in the run layout.
TOMBSTONE_VALUE = 0


class Memtable:
    """Write buffer: dict puts + tombstone set + one lazy sorted view."""

    def __init__(self):
        self._puts: dict[int, int] = {}
        self._tombstones: set[int] = set()
        self._entries: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        #: Serializes mutation against lazy materialization; reads of
        #: the already-materialized triple are lock-free (it is swapped
        #: in atomically and never mutated in place).
        self._lock = threading.Lock()

    # -- mutation ------------------------------------------------------------

    def put(self, key: int, value: int) -> None:
        """Write ``key -> value``; overrides any earlier tombstone."""
        with self._lock:
            self._tombstones.discard(key)
            self._puts[key] = value
            self._entries = None

    def put_batch(self, keys, values) -> None:
        """Bulk :meth:`put`: one tombstone sweep + one dict update.

        Later duplicates in the batch win, exactly like a put loop.
        """
        keys, values = as_int64_pairs(keys, values)
        if keys.size == 0:
            return
        items = keys.tolist()
        with self._lock:
            if self._tombstones:
                self._tombstones.difference_update(items)
            self._puts.update(zip(items, values.tolist()))
            self._entries = None

    def delete(self, key: int) -> None:
        """Blind LSM delete: drop any buffered put, record a tombstone.

        No read is performed — the tombstone shadows older runs whether
        or not they hold the key (resolved at compaction time).
        """
        with self._lock:
            self._puts.pop(key, None)
            self._tombstones.add(key)
            self._entries = None

    def delete_batch(self, keys) -> None:
        """Bulk :meth:`delete`: one dict sweep + one set update.

        Order within the batch is irrelevant (every entry becomes a
        tombstone), and like the scalar form it is blind — no read.
        """
        keys = as_int64_keys(keys)
        if keys.size == 0:
            return
        items = keys.tolist()
        with self._lock:
            pop = self._puts.pop
            for key in items:
                pop(key, None)
            self._tombstones.update(items)
            self._entries = None

    def apply(self, kind: int, keys: np.ndarray, values=None) -> None:
        """Land one ``(kind, keys, values)`` write record — a live
        store call and a replayed WAL record alike."""
        if kind == RECORD_PUT:
            self.put_batch(keys, values)
        else:
            self.delete_batch(keys)

    def clear(self) -> None:
        with self._lock:
            self._puts.clear()
            self._tombstones.clear()
            self._entries = None

    # -- reads -----------------------------------------------------------------

    def probe(self, key) -> tuple[bool, bool, int]:
        """(entry present, entry is tombstone, value) — shaped like
        :meth:`SortedRun.probe <repro.lsm.run.SortedRun.probe>`.

        The tombstone set is checked first; a put that vanishes between
        the two checks (a racing seal) reads absent, and the run the
        seal published answers instead.
        """
        if key in self._tombstones:
            return True, True, TOMBSTONE_VALUE
        value = self._puts.get(key)
        if value is None:
            return False, False, 0
        return True, False, value

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(keys, values, tombstone mask) over *all* entries, sorted —
        the run layout, and one atomic triple: a reader never pairs
        arrays from two different generations."""
        # Double-checked: the common case (cache warm) reads one
        # attribute lock-free — the triple is immutable once published.
        cached = self._entries
        if cached is not None:
            return cached
        with self._lock:
            cached = self._entries
            if cached is None:
                puts, tombs = len(self._puts), len(self._tombstones)
                keys = np.empty(puts + tombs, dtype=np.int64)
                values = np.full(puts + tombs, TOMBSTONE_VALUE, np.int64)
                dead = np.zeros(puts + tombs, dtype=bool)
                keys[:puts] = np.fromiter(self._puts, np.int64, count=puts)
                values[:puts] = np.fromiter(
                    self._puts.values(), np.int64, count=puts
                )
                keys[puts:] = np.fromiter(self._tombstones, np.int64, tombs)
                dead[puts:] = True
                # Puts and tombstones are disjoint: the keys are unique.
                order = np.argsort(keys)
                cached = (keys[order], values[order], dead[order])
                self._entries = cached
        return cached

    # -- accounting ------------------------------------------------------------

    def __len__(self) -> int:
        """Total buffered entries (puts + tombstones) — what a seal
        writes, and what capacity policies meter."""
        return len(self._puts) + len(self._tombstones)

    def size_bytes(self) -> int:
        """Approximate buffered payload: 16B per put, 8B per tombstone."""
        return len(self._puts) * 16 + len(self._tombstones) * 8

    def __repr__(self) -> str:
        return (
            f"Memtable(puts={len(self._puts)}, "
            f"tombstones={len(self._tombstones)})"
        )
