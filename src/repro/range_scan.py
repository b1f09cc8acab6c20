"""Vectorized batch range-scan engine (ISSUE 2 + ISSUE 5).

The paper frames a range index as a CDF model precisely because real
workloads mix point lookups with range scans (Section 3); SOSD and
"Benchmarking Learned Indexes" both report *batched* scan throughput.
This module is the shared engine behind every index's
``range_query_batch``:

* **bound resolution** — both endpoint arrays are prepared against
  the key column, each on its own (a common dtype for int64 and uint64
  endpoints would be float64, which rounds both beyond 2^53), and go
  through the index's own ``lookup_batch`` as one concatenated
  prepared batch, so the model, leaf routing and lock-step search
  amortize across ``2m`` queries; the high endpoints are then widened
  from lower bound to upper bound
  (:meth:`repro.core.engine.SortedKeyColumn.upper_bounds`, the single
  widening implementation: a neighbour check per hit, and a
  ``searchsorted(side="right")`` only for hits inside a duplicate run);
* **slice assembly** — the per-range ``[start, end)`` position pairs
  become one concatenated value array + CSR-style offsets
  (:func:`assemble_slices`): a slice of at least
  :data:`SLICE_COPY_MIN_KEYS` keys is copied as one contiguous block
  and the shorter slices share one vectorized gather, so a long range
  costs a memory copy and no per-key index arithmetic.

Semantics are pinned to the scalar ``range_query``: ranges are closed
(``[low, high]``), inverted ranges (``high < low``) are empty, and the
i-th entry of the result is bit-identical to ``range_query(lows[i],
highs[i])``.  That scalar ``range_query``, with ``contains`` and
``upper_bound``, is written once too: :class:`RangeScanIndexMixin`
derives all three from the host's scalar ``lookup`` for every numeric
index, comparing stored keys as exact Python values.

Precision envelope (ISSUE 5): endpoint arrays keep their native dtype
end to end, each array its own — integer endpoints against integer
key columns resolve through the exact dtype-aware query core
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

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GATHER_MIN_SLICES",
    "SLICE_COPY_MIN_KEYS",
    "RangeScanIndexMixin",
    "RangeScanResult",
    "assemble_slices",
    "batch_range_scan",
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


#: A slice of at least this many keys is copied as one contiguous
#: block by :func:`assemble_slices`; shorter ones share one vectorized
#: gather.  Per slice, a block copy costs a fixed ~1 us of Python (a
#: view, and its place in the output) and then memory speed; the
#: gather costs a few ns per key of index arithmetic and reads.  Set
#: from the slice-copy scan of ``benchmarks/bench_small_batch_floor.py``
#: (calls of equal slices on a 1M-key int64 column): copying every
#: slice costs what gathering them does at ~200 keys, and the constant
#: sits just above, so a slice near it keeps the gather — the path
#: every slice took before.
SLICE_COPY_MIN_KEYS = 256

#: A call with a long slice gathers its short slices only when it has
#: at least this many of them, and otherwise copies them as blocks
#: too: splitting a call costs a few array passes of its own.  Set
#: from the same scan (8-key slices beside one 512-key slice), where
#: the crossover is ~35.
GATHER_MIN_SLICES = 32


def _gather_slices(
    values: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    offsets: np.ndarray,
) -> np.ndarray:
    """``values[starts[i]:starts[i] + lengths[i]]`` for all i, as one
    gather.  Output element ``j`` of slice ``i`` reads
    ``starts[i] + (j - offsets[i])``, so the index is one ``arange``
    plus one ``repeat`` of the per-slice shift."""
    idx = np.arange(int(offsets[-1]), dtype=np.int64)
    idx += np.repeat(starts - offsets[:-1], lengths)
    return values[idx]


def _copy_every_slice(
    values: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """:func:`_gather_slices`' output, every nonempty slice copied as
    one contiguous block."""
    return np.concatenate([
        values[b:b + k]
        for b, k in zip(starts.tolist(), lengths.tolist())
        if k
    ])


def _copy_slices(
    values: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    long: np.ndarray,
) -> np.ndarray:
    """:func:`_gather_slices`' output, with every slice flagged in
    ``long`` copied as one contiguous block.

    The other slices are gathered in one pass into a compact buffer;
    between two long slices they are contiguous in the output too, so
    each such run is one more block.
    """
    short = np.where(long, 0, lengths)
    short_offsets = np.zeros(short.size + 1, dtype=np.int64)
    np.cumsum(short, out=short_offsets[1:])
    gathered = _gather_slices(values, starts, short, short_offsets)
    short_off = short_offsets.tolist()
    begin = starts.tolist()
    length = lengths.tolist()
    blocks = []
    pending = 0  # first slice whose gathered keys are not yet placed
    for i in np.flatnonzero(long).tolist():
        if short_off[i] > short_off[pending]:
            blocks.append(gathered[short_off[pending]:short_off[i]])
        blocks.append(values[begin[i]:begin[i] + length[i]])
        pending = i + 1
    blocks.append(gathered[short_off[pending]:])
    return np.concatenate(blocks)


def assemble_slices(
    values: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate ``values[starts[i]:ends[i]]`` for all i.

    Returns ``(gathered, offsets)`` where ``gathered`` concatenates all
    slices (an inverted pair is an empty slice) and ``offsets``
    (length ``m + 1``) delimits them.  A call of short slices only is
    one vectorized gather.  Otherwise every slice of at least
    :data:`SLICE_COPY_MIN_KEYS` keys is copied as one contiguous
    block, and the shorter ones are gathered — or, when there are
    fewer than :data:`GATHER_MIN_SLICES` of them, copied as blocks
    too.  ``gathered`` is always a fresh array, never a view of
    ``values``.
    """
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.maximum(np.asarray(ends, dtype=np.int64) - starts, 0)
    offsets = np.zeros(starts.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    if offsets[-1] == 0:
        return values[0:0].copy(), offsets
    long = lengths >= SLICE_COPY_MIN_KEYS
    n_long = np.count_nonzero(long)
    if not n_long:
        return _gather_slices(values, starts, lengths, offsets), offsets
    if np.count_nonzero(lengths) - n_long < GATHER_MIN_SLICES:
        return _copy_every_slice(values, starts, lengths), offsets
    return _copy_slices(values, starts, lengths, long), offsets


def merge_scan_results(
    results,
    *,
    drop_masks=None,
    payloads=None,
):
    """K-way merge of per-range results from priority-ordered sources.

    Every ``results[s]`` must cover the same ``m`` ranges (numeric
    values), and within each range a source's values must be
    ascending — every scan and slice this package produces is.
    Several sources interleave through one ``np.lexsort`` on (range
    id, key, source rank), all ranges at once — the multi-source
    analogue of the writable index's delta merge, and the engine
    behind LSM reads that must merge a memtable and many runs.  A
    single source is already in that order, so it is filtered instead:
    the entries kept stay in order and the new offsets come from a
    cumulative count of them.

    Sources are ordered newest-first: equal keys within a range
    collapse to the entry from the lowest-indexed source that holds
    them (within one source, the first) — LSM "newest version wins"
    semantics, and a superset of ``np.union1d`` deduplication for
    disjoint sources.
    ``drop_masks[s]`` (optional, aligned to ``results[s].values``)
    flags entries such as tombstones: when a flagged entry wins its
    key, the key is suppressed from the merged output entirely,
    shadowing every older source.

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
    if len(results) == 1:
        return _filter_one_source(
            results[0],
            None if drop_masks is None else drop_masks[0],
            None if payloads is None else payloads[0],
        )
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
    keep = np.ones(keys.size, dtype=bool)
    keep[1:] = (keys[1:] != keys[:-1]) | (ids[1:] != ids[:-1])
    keep &= ~dead
    ids, keys = ids[keep], keys[keep]
    offsets = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(ids, minlength=m), out=offsets[1:])
    merged = RangeScanResult(values=keys, offsets=offsets)
    if pay_parts is not None:
        pay = np.concatenate(pay_parts) if pay_parts else np.empty(0)
        return merged, pay[order][keep]
    return merged


def _filter_one_source(result, drop_mask, payload):
    """:func:`merge_scan_results` over one source, whose ranges are
    each ascending already: the lexsort would be the identity, so the
    merge is the filter ``~dead`` and first occurrence within each
    range, with offsets from a cumulative count of the entries kept."""
    keys = np.asarray(result.values)
    if payload is not None:
        payload = np.asarray(payload)
        if payload.size != keys.size:
            raise ValueError("payloads must parallel source values")
    if drop_mask is None:
        keep = np.ones(keys.size, dtype=bool)
    else:
        keep = ~np.asarray(drop_mask, dtype=bool)
    if keys.size:
        first = np.empty(keys.size, dtype=bool)
        first[0] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        # A range's first entry is a first occurrence whatever the
        # range before it ended with.
        range_starts = result.offsets[:-1]
        first[range_starts[range_starts < keys.size]] = True
        keep &= first
    kept = np.zeros(keys.size + 1, dtype=np.int64)
    np.cumsum(keep, out=kept[1:])
    merged = RangeScanResult(values=keys[keep], offsets=kept[result.offsets])
    if payload is not None:
        return merged, payload[keep]
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
    it receives both endpoint arrays as one concatenated
    :class:`~repro.core.engine.QueryBatch`, so model inference and the
    lock-step search amortize over ``2m`` queries.  Each endpoint
    array is prepared against ``column`` on its own, in its native
    dtype, so the lookup and the widening below compare it exactly
    through the query core whatever the other array's dtype.
    ``column`` optionally passes the owner's
    :class:`~repro.core.engine.SortedKeyColumn` (constructed fresh over
    ``keys`` otherwise — columns are views, not copies).
    """
    lows = np.asarray(lows).ravel()
    highs = np.asarray(highs).ravel()
    if lows.size != highs.size:
        raise ValueError("lows and highs must have the same length")
    m = lows.size
    if m == 0 or keys.shape[0] == 0:
        empty = np.zeros(m, dtype=np.int64)
        return RangeScanResult(
            values=keys[0:0],
            offsets=np.zeros(m + 1, dtype=np.int64),
            starts=empty,
            ends=empty.copy(),
        )
    from .core.engine import QueryBatch, SortedKeyColumn

    if column is None:
        column = SortedKeyColumn(np.asarray(keys))
    high_qb = column.prepare(highs)
    pos = np.asarray(
        lookup_batch(QueryBatch.concat(column.prepare(lows), high_qb))
    )
    starts = pos[:m].astype(np.int64)
    ends = column.upper_bounds(high_qb, pos[m:])
    # Closed-interval semantics: an inverted range is empty, pinned at
    # the low endpoint's position like the scalar path's early return
    # (its high end's upper bound is at most its low end's lower bound).
    np.maximum(ends, starts, out=ends)
    values, offsets = assemble_slices(keys, starts, ends)
    return RangeScanResult(
        values=values, offsets=offsets, starts=starts, ends=ends
    )


class RangeScanIndexMixin:
    """The full scalar + batch read API for numeric sorted-array indexes.

    Mixed into every tree/table baseline and the learned-index base
    so the semantics live in one place: hosts expose sorted ``keys``
    (numpy), their :func:`repro.util.scalar_view` as ``_keys_view``,
    and a scalar ``lookup`` (lower bound), from which :meth:`contains`,
    :meth:`upper_bound` and :meth:`range_query` are derived here and
    nowhere else — a NumPy scalar turned into its Python value once,
    stored keys compared as Python values, so 64-bit keys compare
    exactly with float queries.  The default ``lookup_batch`` answers
    batches straight off the host's
    :class:`~repro.core.engine.SortedKeyColumn` (over a dense sorted
    array, page + in-page search is one exact ``searchsorted``); a
    host with a real batch engine (``CompiledPlanIndex``) overrides
    the batch surface.
    """

    def _key_column(self):
        """The host's cached query-core column (rebuilt if ``keys``
        was rebound, e.g. by a bulk reload)."""
        # getattr, not ``self.__dict__``: reading ``__dict__`` turns an
        # instance's inline attribute values into a dict, which slows
        # every attribute read of the scalar hot paths.
        column = getattr(self, "_column", None)
        if column is None or column.keys is not self.keys:
            from .core.engine import SortedKeyColumn

            column = SortedKeyColumn(self.keys)
            self._column = column
        return column

    def contains(self, key) -> bool:
        """Is ``key`` stored?  The lower bound's key, compared natively
        — ``2.5`` is never the stored ``3``."""
        if isinstance(key, np.generic):
            key = key.item()
        pos = self.lookup(key)
        return pos < self.keys.size and self._keys_view[pos] == key

    def upper_bound(self, key) -> int:
        """Position one past the last stored key <= ``key``: the lower
        bound, one past a hit, and a search only inside a duplicate run
        (as :meth:`~repro.core.engine.SortedKeyColumn.upper_bounds`)."""
        if isinstance(key, np.generic):
            key = key.item()
        pos = self.lookup(key)
        keys = self._keys_view
        n = self.keys.size
        if pos < n and keys[pos] == key:
            pos += 1
            if pos < n and keys[pos] == key:
                pos = bisect_right(keys, key, pos + 1, n)
        return pos

    def range_query(self, low, high) -> np.ndarray:
        """All stored keys in ``[low, high]`` (closed interval)."""
        if isinstance(low, np.generic):
            low = low.item()
        if isinstance(high, np.generic):
            high = high.item()
        if high < low:
            return self.keys[0:0]
        return self.keys[self.lookup(low):self.upper_bound(high)]

    def lookup_batch(self, queries: np.ndarray) -> np.ndarray:
        """Batched lower-bound lookups, exact in the key dtype; results
        match per-query :meth:`lookup` exactly."""
        return self._key_column().lower_bounds(queries)

    def contains_batch(self, queries: np.ndarray) -> np.ndarray:
        """Batched membership: one bool per query."""
        column = self._key_column()
        qb = column.prepare(queries)
        return column.contains_at(qb, column.lower_bounds(qb))

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
