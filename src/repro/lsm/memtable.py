"""Sorted in-memory write buffer with tombstones (Appendix D.1).

The paper's insert story is LSM-flavoured: "all inserts are kept in
buffer and from time to time merged with a potential retraining of the
model.  This approach is already widely used, for example in Bigtable."
The *buffer* half of that sentence lives here, factored out of
:class:`repro.core.writable.WritableLearnedIndex` (which keeps exactly
one buffer in front of one run — the single-run reference design) so
the tiered :class:`repro.lsm.store.LearnedLSMStore` can stack many
sealed buffers behind it.

A :class:`Memtable` holds two disjoint pieces of state:

* **puts** — ``key -> value`` for keys written since the last seal
  (dict-backed, so the write path is O(1) per key and a bulk put is
  one C-level ``dict.update``);
* **tombstones** — keys deleted since the last seal.  A put and a
  tombstone for the same key never coexist: whichever lands last wins.

Reads need sorted views; those materialize lazily (one ``np.argsort``
per burst of mutations) and are cached until the next write, which
keeps scalar probes O(1) dict hits and batch probes single
``searchsorted`` calls without paying a per-insert sort like the old
``bisect.insort`` delta list did.

Concurrency (ISSUE 7): the LSM store now serves reads from reader
threads while a single writer mutates the buffer, so the lazy
materialization and every bulk mutation run under one internal lock.
Without it, two readers racing into :meth:`_materialize` (or a reader
racing a writer's ``dict.update``) could iterate a dict that changes
size mid-``np.fromiter`` — a crash, not just a stale answer.  Scalar
dict/set probes stay lock-free: each is a single atomic C-level
operation, and a concurrent reader is entitled to either the before or
the after state.  The materialized triple is immutable once built and
swapped in atomically, so :meth:`views` hands readers a consistent
(keys, values, tombstones) snapshot without copying.
"""

from __future__ import annotations

import threading

import numpy as np

from .wal import RECORD_PUT

__all__ = ["Memtable"]

#: Value stored for tombstone entries in a sealed snapshot.
TOMBSTONE_VALUE = 0


class Memtable:
    """Write buffer: dict puts + tombstone set + lazy sorted views."""

    def __init__(self):
        self._puts: dict[int, int] = {}
        self._tombstones: set[int] = set()
        self._sorted: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        #: Serializes mutation against lazy materialization; reads of
        #: the already-materialized triple are lock-free (it is swapped
        #: in atomically and never mutated in place).
        self._lock = threading.Lock()

    # -- mutation ------------------------------------------------------------

    def _dirty(self) -> None:
        self._sorted = None

    def put(self, key: int, value: int) -> None:
        """Write ``key -> value``; overrides any earlier tombstone."""
        with self._lock:
            self._tombstones.discard(key)
            self._puts[key] = value
            self._dirty()

    def put_batch(
        self,
        keys: np.ndarray,
        values: np.ndarray,
        *,
        clear_tombstones: bool = True,
    ) -> None:
        """Bulk :meth:`put`: one tombstone sweep + one dict update.

        Later duplicates in the batch win, exactly like a put loop.
        ``clear_tombstones=False`` skips the resurrection sweep for
        callers that have already cleared (or proven disjoint) the
        batch against the tombstone set.
        """
        keys = np.asarray(keys, dtype=np.int64).ravel()
        values = np.asarray(values, dtype=np.int64).ravel()
        if keys.size != values.size:
            raise ValueError("keys and values must have the same length")
        if keys.size == 0:
            return
        with self._lock:
            if clear_tombstones:
                self._discard_tombstones_locked(keys)
            self._puts.update(zip(keys.tolist(), values.tolist()))
            self._dirty()

    def delete(self, key: int) -> None:
        """Blind LSM delete: drop any buffered put, record a tombstone.

        No read is performed — the tombstone shadows older runs whether
        or not they hold the key (resolved at compaction time).
        """
        with self._lock:
            self._puts.pop(key, None)
            self._tombstones.add(key)
            self._dirty()

    def delete_batch(self, keys: np.ndarray) -> None:
        """Bulk :meth:`delete`: one dict sweep + one set update.

        Order within the batch is irrelevant (every entry becomes a
        tombstone), and like the scalar form it is blind — no read.
        """
        keys = np.asarray(keys, dtype=np.int64).ravel()
        if keys.size == 0:
            return
        with self._lock:
            pop = self._puts.pop
            items = keys.tolist()
            for key in items:
                pop(key, None)
            self._tombstones.update(items)
            self._dirty()

    def apply(self, kind: int, keys: np.ndarray, values=None) -> None:
        """Land one ``(kind, keys, values)`` write record — a live
        store call and a replayed WAL record alike."""
        if kind == RECORD_PUT:
            self.put_batch(keys, values)
        else:
            self.delete_batch(keys)

    # Writable-index primitives: the single-run design decides *policy*
    # (e.g. "only tombstone keys the main index holds") itself, so it
    # composes these instead of calling ``delete``.

    def remove_put(self, key: int) -> bool:
        """Drop a buffered put without tombstoning; True if it existed."""
        with self._lock:
            if key in self._puts:
                del self._puts[key]
                self._dirty()
                return True
            return False

    def add_tombstone(self, key: int) -> None:
        with self._lock:
            self._tombstones.add(key)
            self._dirty()

    def discard_tombstone(self, key: int) -> None:
        with self._lock:
            if key in self._tombstones:
                self._tombstones.discard(key)
                self._dirty()

    def _discard_tombstones_locked(self, keys: np.ndarray) -> None:
        if not self._tombstones:
            return
        dead = np.fromiter(self._tombstones, dtype=np.int64)
        hit = keys[np.isin(keys, dead)]
        if hit.size:
            self._tombstones.difference_update(int(k) for k in hit)
            self._dirty()

    def discard_tombstones(self, keys: np.ndarray) -> None:
        """Drop every tombstone present in ``keys`` (one ``np.isin``)."""
        keys = np.asarray(keys, dtype=np.int64).ravel()
        with self._lock:
            self._discard_tombstones_locked(keys)

    def clear(self) -> None:
        with self._lock:
            self._puts.clear()
            self._tombstones.clear()
            self._dirty()

    # -- scalar probes ---------------------------------------------------------

    def has_put(self, key: int) -> bool:
        return key in self._puts

    def get(self, key: int):
        """The buffered value, or None when ``key`` has no put."""
        return self._puts.get(key)

    def is_tombstone(self, key: int) -> bool:
        return key in self._tombstones

    # -- sorted views ----------------------------------------------------------

    def _materialize(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # Double-checked: the common case (cache warm) reads one
        # attribute lock-free — the triple is immutable once published.
        cached = self._sorted
        if cached is not None:
            return cached
        with self._lock:
            cached = self._sorted
            if cached is None:
                n = len(self._puts)
                keys = np.fromiter(
                    self._puts.keys(), dtype=np.int64, count=n
                )
                values = np.fromiter(
                    self._puts.values(), dtype=np.int64, count=n
                )
                order = np.argsort(keys)
                tombs = np.fromiter(
                    self._tombstones,
                    dtype=np.int64,
                    count=len(self._tombstones),
                )
                tombs.sort()
                cached = (keys[order], values[order], tombs)
                self._sorted = cached
        return cached

    def views(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One atomic (put keys, put values, tombstone keys) triple.

        Readers that fetch :meth:`put_keys` and :meth:`tombstone_keys`
        separately can interleave with a writer and pair views from two
        different generations; this returns the single cached triple,
        so the three arrays are always mutually consistent.
        """
        return self._materialize()

    def put_keys(self) -> np.ndarray:
        """Sorted buffered put keys (the classic delta array)."""
        return self._materialize()[0]

    def put_values(self) -> np.ndarray:
        """Values aligned to :meth:`put_keys`."""
        return self._materialize()[1]

    def tombstone_keys(self) -> np.ndarray:
        """Sorted tombstoned keys."""
        return self._materialize()[2]

    def snapshot(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(keys, values, tombstone mask) over *all* entries, sorted.

        Puts and tombstones are disjoint by invariant, so the union is
        the run layout a seal writes: tombstones become entries with
        :data:`TOMBSTONE_VALUE` and a set mask bit.
        """
        put_keys, put_values, tombs = self._materialize()
        if tombs.size == 0:
            return put_keys, put_values, np.zeros(put_keys.size, dtype=bool)
        keys = np.concatenate([put_keys, tombs])
        values = np.concatenate(
            [put_values, np.full(tombs.size, TOMBSTONE_VALUE, dtype=np.int64)]
        )
        dead = np.zeros(keys.size, dtype=bool)
        dead[put_keys.size:] = True
        order = np.argsort(keys, kind="stable")
        return keys[order], values[order], dead[order]

    # -- accounting ------------------------------------------------------------

    @property
    def num_puts(self) -> int:
        return len(self._puts)

    @property
    def num_tombstones(self) -> int:
        return len(self._tombstones)

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
