"""Vectorized batch range-scan engine (ISSUE 2 + ISSUE 5).

The paper frames a range index as a CDF model precisely because real
workloads mix point lookups with range scans (Section 3); SOSD and
"Benchmarking Learned Indexes" both report *batched* scan throughput.
This module is the shared engine behind every index's
``range_query_batch``:

* **bound resolution** — both endpoints of every range go through the
  index's own ``lookup_batch`` (one concatenated call, so the model,
  leaf routing and lock-step search amortize across ``2m`` queries);
  the high endpoints are then widened from lower bound to upper bound
  with one vectorized ``searchsorted(side="right")`` over just the
  queries that hit a stored key
  (:meth:`repro.core.engine.SortedKeyColumn.upper_bounds`, the single
  widening implementation);
* **slice assembly** — the per-range ``[start, end)`` position pairs
  become one concatenated value array + CSR-style offsets without a
  Python loop (:func:`assemble_slices`), so a batch of scans costs a
  single gather regardless of how many ranges it contains.

Semantics are pinned to the scalar ``range_query``: ranges are closed
(``[low, high]``), inverted ranges (``high < low``) are empty, and the
i-th entry of the result is bit-identical to ``range_query(lows[i],
highs[i])``.

Indexes over Python-comparable keys (strings) use the ``bisect``-based
:func:`batch_range_scan_generic`, which keeps the same result shape
with list-backed storage.

Precision envelope (ISSUE 5): endpoint arrays keep their native dtype
end to end — integer endpoints against integer key columns resolve
through the exact dtype-aware query core
(:mod:`repro.core.engine`), so 64-bit keys at or beyond 2^53 no longer
round together in the batch paths.  float64 endpoints against integer
keys compare as exact integer ceilings (see the engine's dtype
contract).

The :mod:`repro.core.engine` imports below are function-local: the
tree baselines import this module at class-definition time, while the
engine lives inside :mod:`repro.core`, whose package import pulls the
tree baselines back in — deferring to first use breaks the cycle.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RangeScanIndexMixin",
    "RangeScanResult",
    "assemble_slices",
    "batch_range_scan",
    "batch_range_scan_generic",
    "merge_scan_results",
]


@dataclass
class RangeScanResult:
    """Concatenated values + CSR offsets for a batch of range scans.

    ``values[offsets[i]:offsets[i+1]]`` (== ``result[i]``) holds the
    keys of the i-th range.  ``starts``/``ends`` are the resolved
    ``[start, end)`` positions into the index's key array when the
    ranges are contiguous slices of it (``None`` for delta-merged
    results, where a range's values interleave two storages).
    """

    values: np.ndarray | list
    offsets: np.ndarray
    starts: np.ndarray | None = None
    ends: np.ndarray | None = None

    def __len__(self) -> int:
        return int(self.offsets.size - 1)

    def __getitem__(self, i: int):
        if not -len(self) <= i < len(self):
            raise IndexError(i)
        if i < 0:
            i += len(self)
        return self.values[int(self.offsets[i]):int(self.offsets[i + 1])]

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]

    @property
    def counts(self) -> np.ndarray:
        """Number of keys in each range."""
        return self.offsets[1:] - self.offsets[:-1]

    @property
    def total(self) -> int:
        """Total keys across all ranges."""
        return int(self.offsets[-1])

    def __repr__(self) -> str:
        return (
            f"RangeScanResult(ranges={len(self)}, total={self.total})"
        )


def assemble_slices(
    values: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gather ``values[starts[i]:ends[i]]`` for all i in one pass.

    Returns ``(gathered, offsets)`` where ``gathered`` concatenates all
    slices and ``offsets`` (length ``m + 1``) delimits them.  The index
    expression builds every slice's positions at once:
    ``arange(total) - repeat(offsets, lengths) + repeat(starts,
    lengths)`` — each output element knows which slice it belongs to
    and its rank inside it.
    """
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.maximum(np.asarray(ends, dtype=np.int64) - starts, 0)
    offsets = np.zeros(starts.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    total = int(offsets[-1])
    if total == 0:
        return values[0:0], offsets
    idx = (
        np.arange(total, dtype=np.int64)
        - np.repeat(offsets[:-1], lengths)
        + np.repeat(starts, lengths)
    )
    return values[idx], offsets


def merge_scan_results(
    results,
    *,
    drop_masks=None,
    dedup: bool = True,
    payloads=None,
):
    """K-way merge of per-range results from priority-ordered sources.

    Every ``results[s]`` must cover the same ``m`` ranges (numeric
    values).  One ``np.lexsort`` on (range id, key, source rank)
    interleaves all sources' hits for all ranges at once — the
    multi-source analogue of the writable index's delta merge, and the
    engine behind LSM reads that must merge a memtable and many runs.

    Sources are ordered newest-first: with ``dedup=True`` (the
    default), equal keys within a range collapse to the entry from the
    lowest-indexed source that holds them — LSM "newest version wins"
    semantics, and a superset of ``np.union1d`` deduplication for
    disjoint sources.  ``drop_masks[s]`` (optional, aligned to
    ``results[s].values``) flags entries such as tombstones: when a
    flagged entry wins its key, the key is suppressed from the merged
    output entirely, shadowing every older source.

    ``payloads[s]`` (optional, aligned to ``results[s].values``)
    carries per-entry values through the merge; when given, the return
    becomes ``(merged_result, merged_payloads)`` with
    ``merged_payloads`` parallel to ``merged_result.values`` — the
    value gather behind ``LearnedLSMStore.range_items_batch``.
    """
    if not results:
        empty = RangeScanResult(
            values=np.empty(0, dtype=np.int64),
            offsets=np.zeros(1, dtype=np.int64),
        )
        if payloads is not None:
            return empty, np.empty(0, dtype=np.int64)
        return empty
    m = len(results[0])
    if any(len(r) != m for r in results):
        raise ValueError("all sources must cover the same ranges")
    range_ids = np.arange(m, dtype=np.int64)
    ids_parts, key_parts, rank_parts, dead_parts = [], [], [], []
    pay_parts = [] if payloads is not None else None
    for s, result in enumerate(results):
        values = np.asarray(result.values)
        ids_parts.append(np.repeat(range_ids, result.counts))
        key_parts.append(values)
        rank_parts.append(np.full(values.size, s, dtype=np.int64))
        if drop_masks is not None and drop_masks[s] is not None:
            dead_parts.append(np.asarray(drop_masks[s], dtype=bool))
        else:
            dead_parts.append(np.zeros(values.size, dtype=bool))
        if pay_parts is not None:
            part = np.asarray(payloads[s])
            if part.size != values.size:
                raise ValueError("payloads must parallel source values")
            pay_parts.append(part)
    ids = np.concatenate(ids_parts)
    keys = np.concatenate(key_parts)
    rank = np.concatenate(rank_parts)
    dead = np.concatenate(dead_parts)
    order = np.lexsort((rank, keys, ids))
    ids, keys, dead = ids[order], keys[order], dead[order]
    if dedup:
        first = np.ones(keys.size, dtype=bool)
        first[1:] = (keys[1:] != keys[:-1]) | (ids[1:] != ids[:-1])
        keep = first & ~dead
    else:
        keep = ~dead
    ids, keys = ids[keep], keys[keep]
    offsets = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(ids, minlength=m), out=offsets[1:])
    merged = RangeScanResult(values=keys, offsets=offsets)
    if pay_parts is not None:
        pay = np.concatenate(pay_parts) if pay_parts else np.empty(0)
        return merged, pay[order][keep]
    return merged


def batch_range_scan(
    keys: np.ndarray,
    lows: np.ndarray,
    highs: np.ndarray,
    lookup_batch,
    *,
    column=None,
) -> RangeScanResult:
    """The numeric engine: two lock-step bound resolutions + assembly.

    ``lookup_batch`` is the owning index's batch lower-bound method;
    both endpoint arrays are resolved in a single concatenated call so
    model inference and the lock-step search amortize over ``2m``
    queries.  Endpoints keep their native dtype — the owning index's
    ``lookup_batch`` and the widening below compare them exactly
    through the query core.  ``column`` optionally passes the owner's
    :class:`~repro.core.engine.SortedKeyColumn` (constructed fresh over
    ``keys`` otherwise — columns are views, not copies).
    """
    lows = np.asarray(lows).ravel()
    highs = np.asarray(highs).ravel()
    if lows.size != highs.size:
        raise ValueError("lows and highs must have the same length")
    if lows.dtype != highs.dtype:
        common = np.result_type(lows, highs)
        lows = lows.astype(common)
        highs = highs.astype(common)
    m = lows.size
    if m == 0 or keys.shape[0] == 0:
        empty = np.zeros(m, dtype=np.int64)
        return RangeScanResult(
            values=keys[0:0],
            offsets=np.zeros(m + 1, dtype=np.int64),
            starts=empty,
            ends=empty.copy(),
        )
    pos = np.asarray(lookup_batch(np.concatenate([lows, highs])))
    starts = pos[:m].astype(np.int64)
    if column is None:
        from .core.engine import SortedKeyColumn

        column = SortedKeyColumn(np.asarray(keys))
    ends = column.upper_bounds(column.prepare(highs), pos[m:])
    # Closed-interval semantics: an inverted range is empty, pinned at
    # the low endpoint's position like the scalar path's early return.
    inverted = highs < lows
    if np.any(inverted):
        ends[inverted] = starts[inverted]
    values, offsets = assemble_slices(keys, starts, ends)
    return RangeScanResult(
        values=values, offsets=offsets, starts=starts, ends=ends
    )


class RangeScanIndexMixin:
    """The full batch + range API for numeric sorted-array indexes.

    Mixed into every tree/table baseline and the learned-index base
    so the semantics live in one place: hosts must expose sorted
    ``keys`` (numpy) and scalar ``lookup`` (lower bound).  The default
    ``lookup_batch`` answers batches straight off the host's
    :class:`~repro.core.engine.SortedKeyColumn` — the baselines only
    accelerate scalar descents, and over a dense sorted array the
    vectorized page + in-page search is one exact ``searchsorted`` in
    the key's native dtype; hosts with a real batch engine
    (``CompiledPlanIndex``, with its ``sort=`` fast path) or non-numpy
    keys (the generic/string indexes) override the batch surface.
    """

    def _key_column(self):
        """The host's cached query-core column (rebuilt if ``keys``
        was rebound, e.g. by a bulk reload)."""
        column = self.__dict__.get("_column")
        if column is None or column.keys is not self.keys:
            from .core.engine import SortedKeyColumn

            column = SortedKeyColumn(self.keys)
            self._column = column
        return column

    def lookup_batch(self, queries: np.ndarray) -> np.ndarray:
        """Batched lower-bound lookups, exact in the key dtype; results
        match per-query :meth:`lookup` exactly."""
        return self._key_column().lower_bounds(queries)

    def contains_batch(self, queries: np.ndarray) -> np.ndarray:
        """Batched membership: one bool per query."""
        column = self._key_column()
        qb = column.prepare(queries)
        return column.contains_at(qb, column.lower_bounds(qb))

    def upper_bound(self, key: float) -> int:
        """Position one past the last stored key <= ``key``.

        One lower-bound descent plus a ``searchsorted(side="right")``
        over the duplicate run — O(log d) for d duplicates.  The
        needle is the stored key: a Python int against a uint64 column
        would promote both sides to float64 and round beyond 2^53.
        """
        pos = self.lookup(key)
        if pos < self.keys.size and (stored := self.keys[pos]) == key:
            pos += int(np.searchsorted(self.keys[pos:], stored, side="right"))
        return pos

    def range_query(self, low: float, high: float) -> np.ndarray:
        """All stored keys in ``[low, high]`` (closed interval)."""
        if high < low:
            return self.keys[0:0]
        return self.keys[self.lookup(low):self.upper_bound(high)]

    def upper_bound_batch(self, queries: np.ndarray) -> np.ndarray:
        """Batched :meth:`upper_bound` through the query core."""
        column = self._key_column()
        qb = column.prepare(queries)
        return column.upper_bounds(qb, column.lower_bounds(qb))

    def range_query_batch(self, lows, highs) -> RangeScanResult:
        """Batched :meth:`range_query` over parallel endpoint arrays."""
        return batch_range_scan(
            self.keys, lows, highs, self.lookup_batch,
            column=self._key_column(),
        )


def batch_range_scan_generic(
    keys: list,
    lows,
    highs,
    lookup_batch,
) -> RangeScanResult:
    """:func:`batch_range_scan` over Python-comparable keys.

    Bound resolution still goes through the index's ``lookup_batch``
    (model-accelerated for :class:`~repro.core.string_index.StringRMI`);
    duplicate widening and slice assembly fall back to ``bisect`` and
    list slicing, since numpy cannot compare arbitrary objects.
    """
    lows = list(lows)
    highs = list(highs)
    if len(lows) != len(highs):
        raise ValueError("lows and highs must have the same length")
    m = len(lows)
    n = len(keys)
    offsets = np.zeros(m + 1, dtype=np.int64)
    if m == 0 or n == 0:
        empty = np.zeros(m, dtype=np.int64)
        return RangeScanResult(
            values=[], offsets=offsets, starts=empty, ends=empty.copy()
        )
    pos = np.asarray(lookup_batch(lows + highs), dtype=np.int64)
    starts = pos[:m]
    ends = pos[m:].copy()
    values: list = []
    for i in range(m):
        if highs[i] < lows[i]:
            ends[i] = starts[i]
        else:
            end = int(ends[i])
            if end < n and keys[end] == highs[i]:
                end = bisect.bisect_right(keys, highs[i], end)
            ends[i] = end
            if end > starts[i]:
                values.extend(keys[int(starts[i]):end])
        offsets[i + 1] = len(values)
    return RangeScanResult(
        values=values, offsets=offsets, starts=starts, ends=ends
    )
