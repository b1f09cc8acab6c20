"""Writable learned index — the Appendix D.1 delta-buffer design.

The paper on inserts: "there always exists a much simpler alternative
to handling inserts by building a delta-index [60].  All inserts are
kept in buffer and from time to time merged with a potential retraining
of the model.  This approach is already widely used, for example in
Bigtable."

:class:`WritableLearnedIndex` implements exactly that LSM-flavoured
design — one buffer in front of one immutable run, the *single-run
reference* that :class:`repro.lsm.store.LearnedLSMStore` generalizes to
tiered runs:

* reads consult the (immutable) learned main index and a small delta
  buffer, merging their results.  The buffer is the index's own: one
  Python set of delta keys and one of tombstoned main keys, plus the
  two as sorted arrays, materialized lazily once per write burst;
* inserts go to the delta set (O(1); a tombstoned key is resurrected
  instead, and a key already live is a no-op);
* deletes are not blind: a delta key leaves the delta, a live main
  key becomes a tombstone, and anything else reports absent;
* when the buffer exceeds ``merge_threshold`` (or on explicit
  :meth:`merge`), the buffer is merged into the main array and the RMI
  retrained — cheap, because linear leaves train in closed form
  (Section 3.6) and the rebuild is the RMI's vectorized construction:
  one ``np.union1d`` merge plus the segmented least-squares build, so
  a merge is memcpy-plus-array-math instead of ten thousand Python
  model fits;
* bulk loads go through :meth:`insert_batch`, which sorts and
  deduplicates the whole batch in one NumPy pass, drops keys already
  present in the main index with one ``contains_batch``, lands the rest
  in the delta with one set update, and triggers at most one merge —
  no per-key scalar inserts;
* reads (``lookup`` / ``upper_bound`` / ``contains`` /
  ``range_query``) are delta-merge aware: positions are ranks in the
  *live* merged key set, computed from the main index's answer plus
  two ``bisect`` corrections (tombstones below, delta keys below), and
  a range is the main index's slice minus the tombstones merged with
  the delta's slice — no merged array is ever materialized;
* keys follow the key contract of the LSM store
  (:func:`repro.util.as_int64_key` / ``as_int64_keys``): every
  write and the initial keys are integers in the int64 domain, a
  non-integer is a ``TypeError`` and a key outside int64 an
  ``OverflowError``, and a refused call changes nothing.  Queries and
  range endpoints are not keys: any real value reads exactly, against
  the delta buffer and the tombstones as against the main index, by
  native Python comparison.

It also demonstrates the paper's append observation: "for an index over
the timestamps of web-logs ... most if not all inserts will be appends
with increasing timestamps ... updating the index structure becomes an
O(1) operation" — appends beyond the trained key range never invalidate
the stored error bounds of existing leaves, so merges of append-only
batches skip full retraining whenever the trained model still predicts
the appended keys well (the model is kept, the array extended, and the
stored bounds widened by the measured append error).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Sequence

import numpy as np

from ..util import as_int64_key, as_int64_keys, newest_per_key, scalar_view
from .rmi import RecursiveModelIndex

__all__ = ["WritableLearnedIndex"]


def _native(key):
    """A NumPy scalar as its Python value, which compares exactly with
    the buffer's Python ints (``np.float64`` would round them)."""
    return key.item() if isinstance(key, np.generic) else key


def _scalar_rank(sorted_keys: np.ndarray, key, bisect) -> int:
    """``bisect`` of a native ``key`` over a sorted int64 array, item by
    item as Python ints — exact for any real ``key``."""
    return bisect(scalar_view(sorted_keys), key) if sorted_keys.size else 0


class WritableLearnedIndex:
    """RMI + sorted delta buffer with tombstone deletes."""

    def __init__(
        self,
        keys: np.ndarray | None = None,
        *,
        stage_sizes: Sequence[int] = (1, 100),
        merge_threshold: int = 4_096,
    ):
        if merge_threshold < 1:
            raise ValueError("merge_threshold must be >= 1")
        base = as_int64_keys(() if keys is None else keys)
        if base.size and np.any(np.diff(base) <= 0):
            raise ValueError("initial keys must be sorted and unique")
        self._stage_sizes = tuple(stage_sizes)
        self.merge_threshold = int(merge_threshold)
        self.merges = 0
        self.retrains = 0
        self.fast_appends = 0
        self._delta: set[int] = set()  # inserted keys the main lacks
        self._dead: set[int] = set()  # tombstoned main keys
        #: Both sets as sorted int64 arrays, or None after a write.
        self._sorted: tuple[np.ndarray, np.ndarray] | None = None
        self._rebuild(base)

    # -- construction helpers -----------------------------------------------

    def _rebuild(self, keys: np.ndarray) -> None:
        self._main = RecursiveModelIndex(keys, stage_sizes=self._stage_sizes)
        self.retrains += 1

    # -- write path -----------------------------------------------------------

    def insert(self, key: int) -> None:
        """Insert ``key``; duplicate inserts are idempotent."""
        key = as_int64_key(key)
        if key in self._dead:  # a tombstoned main key: resurrect it
            self._dead.remove(key)
            self._sorted = None
            return
        if key in self._delta or self._main.contains(key):
            return
        self._delta.add(key)
        self._sorted = None
        if len(self._delta) >= self.merge_threshold:
            self.merge()

    def insert_batch(self, keys) -> None:
        """Bulk insert: one NumPy pass over the whole batch.

        Semantically a loop of :meth:`insert` — tombstoned keys are
        resurrected, keys already in the main index or the delta are
        no-ops — but executed as sort + dedup (a neighbour compare,
        :func:`~repro.util.newest_per_key`), one ``contains_batch``
        membership probe against the main index, and one set update
        into the delta.  At most one merge fires, after the whole batch
        lands, so bulk loads pay one retrain instead of one per
        ``merge_threshold`` keys.
        """
        batch = as_int64_keys(keys)
        batch = batch[newest_per_key(batch)]
        if batch.size == 0:
            return
        if self._dead:
            self._dead.difference_update(batch.tolist())
            self._sorted = None
        # Tombstones only ever cover main keys, which this filters out.
        batch = batch[~self._main.contains_batch(batch)]
        if batch.size:
            self._delta.update(batch.tolist())
            self._sorted = None
        if len(self._delta) >= self.merge_threshold:
            self.merge()

    def delete(self, key: int) -> bool:
        """Delete ``key``; returns whether it was present."""
        key = as_int64_key(key)
        if key in self._delta:
            self._delta.remove(key)
        elif key not in self._dead and self._main.contains(key):
            self._dead.add(key)
        else:
            return False
        self._sorted = None
        return True

    def _sorted_delta(self) -> tuple[np.ndarray, np.ndarray]:
        """(delta keys, tombstoned keys), each sorted — built once per
        write burst, then shared by every read until the next write."""
        cached = self._sorted
        if cached is None:
            delta, dead = (
                np.sort(np.fromiter(keys, np.int64, len(keys)))
                for keys in (self._delta, self._dead)
            )
            cached = self._sorted = (delta, dead)
        return cached

    # -- merge ------------------------------------------------------------------

    def merge(self) -> None:
        """Fold the delta buffer and tombstones into the main index."""
        if not self._delta and not self._dead:
            return
        self.merges += 1
        main_keys = self._main.keys
        delta, tombs = self._sorted_delta()
        if tombs.size:
            main_keys = main_keys[~np.isin(main_keys, tombs)]
            tombstoned = True
        else:
            tombstoned = False
        is_pure_append = (
            not tombstoned
            and main_keys.size > 0
            and delta.size > 0
            and delta[0] > main_keys[-1]
        )
        merged = (
            np.concatenate([main_keys, delta])
            if is_pure_append
            else np.union1d(main_keys, delta)
        )
        self._delta.clear()
        self._dead.clear()
        self._sorted = None
        if is_pure_append and self._try_fast_append(merged, delta.size):
            self.fast_appends += 1
            return
        self._rebuild(merged)

    def _try_fast_append(self, merged: np.ndarray, appended: int) -> bool:
        """O(leaves + appended) append path: keep the model, extend
        the array.

        Valid when the model generalizes to the appended range — i.e.
        the existing leaf routing still predicts the new keys within a
        tolerable error.  We verify by measuring the worst new-key
        error over a sample; if it exceeds the current max window we
        fall back to retraining (the paper's "can it be detected?"
        question, answered by measurement).  An index without a flat
        compiled state (deep hierarchy, non-linear root or leaves)
        always retrains.
        """
        try:
            state = self._main.compiled_state()
        except TypeError:
            return False
        del state["leaf_count"]
        candidate = RecursiveModelIndex.from_compiled_arrays(merged, **state)
        # Unclamped leaf predictions of the sampled new keys, through
        # the candidate's plan (routing depends on the merged size).
        sample = merged[-appended:][:: max(appended // 64, 1)]
        _leaf, raw = candidate._plan.route(candidate._column.prepare(sample))
        true_pos = np.searchsorted(merged, sample)
        worst = int(np.abs(raw.astype(np.int64) - true_pos).max())
        # window = max_error - min_error = lo_offset - hi_offset.
        lo, hi = state["lo_offsets"], state["hi_offsets"]
        budget = max(int((lo - hi).max()), 64) * 4
        if worst > budget:
            return False
        # Widen every leaf's stored bounds by the observed append error
        # so the guarantee stays honest without retraining.
        slack = worst + 1
        state["lo_offsets"] = lo + slack
        state["hi_offsets"] = hi - slack
        self._main = RecursiveModelIndex.from_compiled_arrays(merged, **state)
        return True

    # -- read path ----------------------------------------------------------------

    def lookup(self, key) -> int:
        """Lower bound of ``key`` among the *live* merged keys.

        The rank in the (never materialized) sorted array of live keys:
        the main index's lower bound, minus the tombstoned main keys
        below ``key``, plus the delta keys below ``key`` — two
        bisect corrections around the learned lookup.  Both compare
        ``key`` natively against the buffer's keys as Python ints, so
        they are exact beyond 2^53 and for any real ``key``.
        """
        key = _native(key)
        delta, tombs = self._sorted_delta()
        return (
            self._main.lookup(key)
            - _scalar_rank(tombs, key, bisect_left)
            + _scalar_rank(delta, key, bisect_left)
        )

    def upper_bound(self, key) -> int:
        """Position one past the last live key <= ``key``."""
        key = _native(key)
        delta, tombs = self._sorted_delta()
        return (
            self._main.upper_bound(key)
            - _scalar_rank(tombs, key, bisect_right)
            + _scalar_rank(delta, key, bisect_right)
        )

    def contains(self, key) -> bool:
        """Is ``key`` live?  Set probes of the buffer, then the main
        index — each comparing ``key`` natively, so ``3.5`` is never
        the stored ``3``."""
        key = _native(key)
        if key in self._dead:
            return False
        return key in self._delta or self._main.contains(key)

    def range_query(self, low, high) -> np.ndarray:
        """All live keys in ``[low, high]``, one sorted merge: the main
        index's slice minus the tombstones, plus the delta's slice.

        Endpoints compare natively (a stored key as a Python int), so a
        fractional endpoint bounds the range where it says and 64-bit
        keys stay exact; an inverted range is empty.
        """
        low, high = _native(low), _native(high)
        hits = self._main.range_query(low, high)
        delta, tombs = self._sorted_delta()
        if tombs.size and hits.size:
            hits = hits[~np.isin(hits, tombs)]
        d_lo = _scalar_rank(delta, low, bisect_left)
        d_hi = max(_scalar_rank(delta, high, bisect_right), d_lo)
        return np.sort(np.concatenate([hits, delta[d_lo:d_hi]]))

    def __len__(self) -> int:
        return self._main.keys.size - len(self._dead) + len(self._delta)

    @property
    def delta_size(self) -> int:
        return len(self._delta)

    def size_bytes(self) -> int:
        return self._main.size_bytes() + len(self._delta) * 8

    def __repr__(self) -> str:
        return (
            f"WritableLearnedIndex(n={len(self)}, "
            f"delta={len(self._delta)}, "
            f"tombstones={len(self._dead)}, merges={self.merges}, "
            f"fast_appends={self.fast_appends})"
        )
