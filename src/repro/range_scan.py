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
  prepared batch, so the model, leaf routing and bounded search
  amortize across ``2m`` queries; the high endpoints are then widened
  from lower bound to upper bound
  (:meth:`repro.core.engine.SortedKeyColumn.upper_bounds`, the single
  widening implementation: a neighbour check per hit, and a
  ``searchsorted(side="right")`` only for hits inside a duplicate run);
* **slice assembly** — the per-range ``[start, end)`` position pairs
  become one concatenated value array + CSR-style offsets
  (:func:`assemble_slices`): a slice of at least
  :data:`~repro.dispatch.SLICE_COPY_MIN_KEYS` keys is copied as one
  contiguous block and the shorter slices share one vectorized gather,
  so a long range costs a memory copy and no per-key index arithmetic.

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

from .dispatch import GATHER_MIN_SLICES, SLICE_COPY_MIN_KEYS

__all__ = [
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
    :data:`~repro.dispatch.SLICE_COPY_MIN_KEYS` keys is copied as one
    contiguous block, and the shorter ones are gathered — or, when there
    are fewer than :data:`~repro.dispatch.GATHER_MIN_SLICES` of them,
    copied as blocks too.  ``gathered`` is always a fresh array, never a
    view of ``values``.
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
    """K-way merge of per-range results from one or more sources
    listed oldest first.

    Every ``results[s]`` must cover the same ``m`` ranges (numeric
    values), and within each range a source must hold each key at most
    once, ascending — every scan of a run or of the memtable layout
    does.  Equal keys within a range collapse to the entry of the last
    source that holds them — LSM "newest version wins", in the order
    :func:`~repro.util.newest_entries` reads its parts.  Several
    sources interleave through one stable sort on (range id, key), all
    ranges at once (``np.lexsort``, which is stable), so a key's
    entries keep their source order and each group's last entry is its
    newest.  A single source holds no key twice in a range, so its
    merge is the drop-mask filter.  Either way the new offsets are a
    cumulative count of the entries kept.  No source at all is a
    ``ValueError``.

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
        raise ValueError("need at least one source to merge")
    m = len(results[0])
    if any(len(r) != m for r in results):
        raise ValueError("all sources must cover the same ranges")
    values = [np.asarray(r.values) for r in results]
    if payloads is not None:
        payloads = [np.asarray(p) for p in payloads]
        if any(p.size != v.size for p, v in zip(payloads, values)):
            raise ValueError("payloads must parallel source values")
    dead = [
        np.zeros(v.size, dtype=bool) if mask is None
        else np.asarray(mask, dtype=bool)
        for v, mask in zip(values, drop_masks or [None] * len(values))
    ]
    if len(results) == 1:
        keys, keep, order = values[0], ~dead[0], None
        bounds = results[0].offsets
    else:
        # The narrowest id dtype: lexsort's stable pass on ids of 16
        # bits or fewer is a radix sort.
        range_ids = np.arange(m, dtype=np.min_scalar_type(m))
        ids = np.concatenate([range_ids.repeat(r.counts) for r in results])
        keys = np.concatenate(values)
        order = np.lexsort((keys, ids))
        ids, keys = ids[order], keys[order]
        keep = np.ones(keys.size, dtype=bool)
        keep[:-1] = (keys[1:] != keys[:-1]) | (ids[1:] != ids[:-1])
        keep &= ~np.concatenate(dead)[order]
        bounds = sum((r.offsets for r in results[1:]), results[0].offsets)
    kept = np.zeros(keys.size + 1, dtype=np.int64)
    np.cumsum(keep, out=kept[1:])
    merged = RangeScanResult(values=keys[keep], offsets=kept[bounds])
    if payloads is None:
        return merged
    pay = payloads[0] if order is None else np.concatenate(payloads)[order]
    return merged, pay[keep]


def batch_range_scan(
    keys: np.ndarray,
    lows: np.ndarray,
    highs: np.ndarray,
    lookup_batch,
    *,
    column=None,
) -> RangeScanResult:
    """The numeric engine: two batch bound resolutions + assembly.

    ``lookup_batch`` is the owning index's batch lower-bound method;
    it receives both endpoint arrays as one concatenated
    :class:`~repro.core.engine.QueryBatch`, so model inference and the
    bounded search amortize over ``2m`` queries.  Each endpoint array
    is prepared against ``column`` on its own, in its native
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

    def range_query_batch(self, lows, highs) -> RangeScanResult:
        """Batched :meth:`range_query` over parallel endpoint arrays."""
        return batch_range_scan(
            self.keys, lows, highs, self.lookup_batch,
            column=self._key_column(),
        )
