"""Learned index over paged (disk-style) storage — Appendix D.2.

The in-memory RMI assumes "the data ... stored in one continuous
block"; disk-resident data instead lives in fixed-size pages scattered
over arbitrary storage locations, which "violates pos = Pr(X < Key) * N".
Appendix D.2 outlines the fix implemented here: "another option is to
have an additional translation table in the form of <first_key,
disk-position>.  With the translation table the rest of the index
structure remains the same ... it is possible to use the predicted
position with the min- and max-error to reduce the number of bytes
which have to be read from a large page."

:class:`PagedLearnedIndex` composes:

* a :class:`PageStore` — a simulated block device holding fixed-size
  key pages at shuffled physical locations, counting page reads and
  bytes transferred (the metrics that matter on disk, and the only
  ones the appendix argues about: the counts are exact and repeat,
  where timing real reads would measure the OS page cache);
* the standard RMI trained over the *logical* key order;
* the translation table mapping logical page number -> physical page.

A lookup predicts a logical position, translates the (at most two,
when the error window straddles a boundary) candidate pages, reads
them, and finishes with in-page binary search — giving the B-Tree's
I/O profile with the RMI's memory footprint.  The error window also
bounds the *byte range* read inside a page, reproducing the appendix's
partial-read observation.

Batch reads (``lookup_batch`` / ``contains_batch`` /
``range_query_batch``) add the property that matters most on disk:
**per-batch IO accounting**.  All query windows are predicted
vectorized, the union of touched logical pages is computed up front,
and every page transfers *once per batch* no matter how many queries'
windows land on it — so a skewed 100k-query batch over a handful of
hot pages costs a handful of page reads, where the scalar loop pays
one or two reads per query.  The in-window search then runs the same
lock-step engine the in-memory RMI uses, over the concatenation of the
fetched pages.  Batch reads always transfer *whole* pages (many
queries' windows share each page, so there is no single byte range to
clip); ``partial_reads`` narrows transfers on the scalar path only.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..obs import MetricsRegistry, counter_field
from ..range_scan import RangeScanResult, assemble_slices
from .rmi import RecursiveModelIndex
from .search import vectorized_bounded_search

__all__ = ["PageStore", "PagedLearnedIndex"]

_KEY_BYTES = 8


class PageStore:
    """A simulated block device of fixed-size key pages.

    Pages are stored at shuffled physical indexes (like extents on a
    fragmented disk); every read is accounted.  ``partial_reads=True``
    lets callers fetch a byte sub-range of a page (modern NVMe / object
    stores); otherwise whole pages transfer.
    """

    # IO accounting lives in the store's obs registry (``paged.io.*``);
    # ``store.page_reads += 1`` reads and writes the counter.
    page_reads = counter_field("page_reads")
    bytes_read = counter_field("bytes_read")

    def __init__(
        self,
        sorted_keys: np.ndarray,
        page_size: int = 256,
        *,
        shuffle_seed: int = 0,
        partial_reads: bool = False,
        buffer_pages: int = 4,
    ):
        keys = np.asarray(sorted_keys, dtype=np.int64)
        if keys.size and np.any(np.diff(keys) < 0):
            raise ValueError("keys must be sorted ascending")
        if page_size < 1:
            raise ValueError("page_size must be >= 1")
        self.page_size = int(page_size)
        self.partial_reads = bool(partial_reads)
        # A tiny LRU buffer pool: repeated touches of a just-read page
        # within a lookup are buffer hits, not I/O (as on any real
        # storage engine).
        self.buffer_pages = int(buffer_pages)
        self._buffer: dict[int, np.ndarray] = {}
        self.num_pages = max((keys.size + page_size - 1) // page_size, 1)
        rng = np.random.default_rng(shuffle_seed)
        physical_of_logical = rng.permutation(self.num_pages)
        self._pages: list[np.ndarray] = [None] * self.num_pages  # type: ignore
        for logical in range(self.num_pages):
            chunk = keys[logical * page_size:(logical + 1) * page_size]
            self._pages[int(physical_of_logical[logical])] = chunk
        self.translation = physical_of_logical  # logical -> physical
        self.registry = MetricsRegistry()
        self._counters = {
            name: self.registry.counter("paged.io." + name)
            for name in ("page_reads", "bytes_read")
        }

    def read_page(
        self, physical: int, first_slot: int = 0, last_slot: int | None = None
    ) -> np.ndarray:
        """Fetch (a slice of) a physical page, with I/O accounting."""
        if not 0 <= physical < self.num_pages:
            raise IndexError(f"physical page {physical} out of range")
        page = self._buffer.get(physical)
        buffered = page is not None
        if not buffered:
            page = self._pages[physical]
            self.page_reads += 1
            if self.buffer_pages:
                self._buffer[physical] = page
                while len(self._buffer) > self.buffer_pages:
                    self._buffer.pop(next(iter(self._buffer)))
        if self.partial_reads and last_slot is not None:
            first_slot = max(first_slot, 0)
            last_slot = min(last_slot, len(page))
            if not buffered:
                self.bytes_read += max(last_slot - first_slot, 0) * _KEY_BYTES
            return page[first_slot:last_slot]
        if not buffered:
            self.bytes_read += len(page) * _KEY_BYTES
        return page

    def page_length(self, physical: int) -> int:
        """Entry count of a physical page (no I/O, no accounting)."""
        return len(self._pages[physical])

    def reset_io(self) -> None:
        self.page_reads = 0
        self.bytes_read = 0
        self._buffer.clear()


class PagedLearnedIndex:
    """RMI + translation table over a :class:`PageStore`."""

    def __init__(
        self,
        keys: np.ndarray,
        *,
        page_size: int = 256,
        stage_sizes: Sequence[int] = (1, 100),
        shuffle_seed: int = 0,
        partial_reads: bool = False,
    ):
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size and np.any(np.diff(keys) <= 0):
            raise ValueError("keys must be sorted and unique")
        self.n = int(keys.size)
        self.page_size = int(page_size)
        self.store = PageStore(
            keys,
            page_size,
            shuffle_seed=shuffle_seed,
            partial_reads=partial_reads,
        )
        # The RMI is trained on the logical (sorted) order; only key
        # *values* and positions are needed, not the physical layout.
        self._rmi = RecursiveModelIndex(keys, stage_sizes=stage_sizes)
        # Keep no reference to the dense array: reads must go through
        # the page store, like a real disk-resident index.
        self._rmi_keys = None

    # -- lookup ---------------------------------------------------------------

    def lookup(self, key: float) -> tuple[int, int]:
        """(logical page, slot) of the lower bound of ``key``.

        Reads at most the pages the error window touches (one page in
        the common case), then binary-searches inside.
        """
        if self.n == 0:
            return 0, 0
        est, lo, hi = self._rmi.predict(key)
        first_page = lo // self.page_size
        last_page = min(hi, self.n - 1) // self.page_size
        position = None
        for logical in range(first_page, last_page + 1):
            slot_lo = lo - logical * self.page_size
            slot_hi = hi - logical * self.page_size
            chunk = self.store.read_page(
                int(self.store.translation[logical]),
                max(slot_lo, 0),
                min(max(slot_hi, 0), self.page_size)
                if self.store.partial_reads
                else None,
            )
            base = (
                logical * self.page_size + max(slot_lo, 0)
                if self.store.partial_reads
                else logical * self.page_size
            )
            inside = int(np.searchsorted(chunk, key, side="left"))
            if inside < len(chunk):
                position = base + inside
                break
        if position is None:
            # key greater than everything in the window: next position
            position = min(
                (last_page * self.page_size)
                + self.store.page_length(
                    int(self.store.translation[last_page])
                ),
                self.n,
            )
            position = max(position, hi)
        # Window misses (non-monotonic roots on absent keys) fall back
        # to logical page walking.
        position = self._verify(key, position)
        return position // self.page_size, position % self.page_size

    def _verify(self, key: float, position: int) -> int:
        """Ensure lower-bound semantics, paging in neighbours if needed."""
        while True:
            current = self._key_at(position) if position < self.n else None
            previous = self._key_at(position - 1) if position > 0 else None
            if current is not None and current < key:
                position += 1
                continue
            if previous is not None and previous >= key:
                position -= 1
                continue
            return position

    def _key_at(self, position: int) -> int:
        logical = position // self.page_size
        slot = position % self.page_size
        chunk = self.store.read_page(
            int(self.store.translation[logical]), slot, slot + 1
        ) if self.store.partial_reads else self.store.read_page(
            int(self.store.translation[logical])
        )
        if self.store.partial_reads:
            return int(chunk[0])
        return int(chunk[slot])

    def contains(self, key: float) -> bool:
        if self.n == 0:
            return False
        page, slot = self.lookup(key)
        position = page * self.page_size + slot
        if position >= self.n:
            return False
        # Native compare: ``int(-0.5)`` would truncate onto key 0.
        return self._key_at(position) == key

    # -- batch interface ----------------------------------------------------------

    def _read_pages_batch(
        self,
        logical_pages: np.ndarray,
        cache: tuple | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fetch sorted unique logical pages once each, concatenated.

        Returns ``(gathered, page_off)``: page ``logical_pages[r]``
        occupies ``gathered[page_off[r]:page_off[r + 1]]``.  Because the
        pages are chunks of one globally sorted array fetched in
        logical order, ``gathered`` is itself sorted — the property the
        lock-step window search relies on.

        ``cache`` is a ``(pages, gathered, page_off)`` triple from an
        earlier fetch in the *same* batched operation; pages found
        there are sliced back out instead of transferring again, which
        is what keeps the per-batch accounting at one read per touched
        page across a lookup + verify + gather pipeline.
        """
        def fetch(p: int) -> np.ndarray:
            if cache is not None:
                cached_pages, cached_data, cached_off = cache
                r = int(np.searchsorted(cached_pages, p))
                if r < cached_pages.size and cached_pages[r] == p:
                    return cached_data[
                        int(cached_off[r]):int(cached_off[r + 1])
                    ]
            return self.store.read_page(int(self.store.translation[p]))

        chunks = [fetch(int(p)) for p in logical_pages]
        page_off = np.zeros(len(chunks) + 1, dtype=np.int64)
        np.cumsum([len(c) for c in chunks], out=page_off[1:])
        gathered = (
            np.concatenate(chunks)
            if chunks
            else np.empty(0, dtype=np.int64)
        )
        return gathered, page_off

    def _locate(
        self,
        logical_pages: np.ndarray,
        page_off: np.ndarray,
        positions: np.ndarray,
    ) -> np.ndarray:
        """Map global positions (inside fetched pages) to ``gathered``."""
        pg = positions // self.page_size
        rank = np.searchsorted(logical_pages, pg)
        return page_off[rank] + positions - pg * self.page_size

    def _expand_page_ranges(
        self, first_page: np.ndarray, last_page: np.ndarray
    ) -> np.ndarray:
        """Sorted unique logical pages covering all [first, last] spans."""
        counts = last_page - first_page + 1
        offs = np.zeros(first_page.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offs[1:])
        total = int(offs[-1])
        pages = (
            np.arange(total, dtype=np.int64)
            - np.repeat(offs[:-1], counts)
            + np.repeat(first_page, counts)
        )
        return np.unique(pages)

    def lookup_batch(self, queries: np.ndarray) -> np.ndarray:
        """Global lower-bound positions for a whole query batch.

        Positions are logical (``page * page_size + slot``), matching
        scalar :meth:`lookup`'s ``(page, slot)`` pairs exactly.  IO is
        batched: the union of all predicted windows' pages transfers
        once (whole pages — ``partial_reads`` clipping applies to the
        scalar path only), then every in-window search runs lock-step
        over the fetched data; only window-boundary results pay (at
        most one) extra key read to verify, and the rare Section 3.4
        misses fall back to the scalar page walk.
        """
        return self._lookup_batch_cached(queries)[0]

    def _lookup_batch_cached(
        self, queries: np.ndarray
    ) -> tuple[np.ndarray, tuple | None, object | None]:
        """:meth:`lookup_batch` plus the ``(pages, gathered, page_off)``
        fetch cache, so downstream gathers in the same batched op
        (membership checks, range widening/assembly) reuse the pages
        already transferred.

        Queries go through the RMI's query core, so the in-window
        lock-step search and the boundary verification compare the
        fetched int64 pages against int64 values — exact beyond 2^53.
        """
        queries = np.asarray(queries).ravel()
        if queries.size == 0 or self.n == 0:
            return np.zeros(queries.size, dtype=np.int64), None, None
        rmi = self._rmi
        n = self.n
        qb = rmi._column.prepare(queries)
        compare = qb.compare
        lo, hi = rmi._plan.windows(qb)
        pages = self._expand_page_ranges(
            lo // self.page_size, (hi - 1) // self.page_size
        )
        gathered, page_off = self._read_pages_batch(pages)
        cache = (pages, gathered, page_off)
        lo_loc = self._locate(pages, page_off, lo)
        hi_loc = self._locate(pages, page_off, hi - 1) + 1
        pos_loc = vectorized_bounded_search(gathered, compare, lo_loc, hi_loc)
        # Map back to global positions.  Interior results sit inside a
        # fetched page; boundary results are pinned to lo/hi directly
        # (a chunk-boundary pos_loc would otherwise map into a touched
        # page that is not logically adjacent).
        rank = np.searchsorted(page_off, pos_loc, side="right") - 1
        np.clip(rank, 0, max(pages.size - 1, 0), out=rank)
        pos = pages[rank] * self.page_size + (pos_loc - page_off[rank])
        pos = np.where(pos_loc >= hi_loc, hi, pos)
        pos = np.where(pos_loc <= lo_loc, lo, pos)
        # Boundary verification (Section 3.4).  The lock-step search
        # already proved keys[lo] >= q for pos == lo and keys[hi-1] < q
        # for pos == hi, so each boundary needs exactly one neighbour
        # key — fetched in one more batched read — and only genuine
        # misses walk pages scalar.
        at_lo = (pos == lo) & (pos > 0)
        at_hi = (pos == hi) & (pos < n)
        suspects = np.nonzero(at_lo | at_hi)[0]
        if suspects.size:
            probe_pos = np.where(at_lo[suspects], pos[suspects] - 1,
                                 pos[suspects])
            neighbour = self._gather_keys_batch(probe_pos, cache)
            miss = np.where(
                at_lo[suspects],
                neighbour >= compare[suspects],  # keys[pos-1] >= q
                neighbour < compare[suspects],   # keys[pos] < q
            )
            for i in suspects[miss]:
                pos[i] = self._verify(compare[i].item(), int(pos[i]))
        if qb.oob_high is not None:
            # Above the key dtype's range: the lower bound is n.
            pos[qb.oob_high] = n
        return pos, cache, qb

    def _gather_keys_batch(
        self, positions: np.ndarray, cache: tuple | None = None
    ) -> np.ndarray:
        """Key values at global positions, one batched page fetch."""
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size == 0:
            return np.zeros(0, dtype=np.int64)
        pg = positions // self.page_size
        pages = np.unique(pg)
        gathered, page_off = self._read_pages_batch(pages, cache)
        return gathered[self._locate(pages, page_off, positions)]

    def contains_batch(self, queries: np.ndarray) -> np.ndarray:
        """Batched membership: one bool per query, batched IO."""
        queries = np.asarray(queries).ravel()
        out = np.zeros(queries.size, dtype=bool)
        if self.n == 0 or queries.size == 0:
            return out
        pos, cache, qb = self._lookup_batch_cached(queries)
        valid = pos < self.n
        if np.any(valid):
            hit = self._gather_keys_batch(pos[valid], cache) == qb.compare[valid]
            if qb.exactable is not None:
                hit &= qb.exactable[valid]
            out[valid] = hit
        return out

    def range_query_batch(self, lows, highs) -> RangeScanResult:
        """Batched range scans with per-batch IO accounting.

        Both endpoint arrays resolve through one concatenated
        :meth:`lookup_batch` call; every page covering any result slice
        transfers once; one vectorized gather assembles all slices.
        ``result[i]`` holds the stored keys in ``[lows[i], highs[i]]``
        (closed interval, inverted ranges empty), bit-identical to an
        in-memory index over the same keys.
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
        if m == 0 or self.n == 0:
            empty = np.zeros(m, dtype=np.int64)
            return RangeScanResult(
                values=np.empty(0, dtype=np.int64),
                offsets=np.zeros(m + 1, dtype=np.int64),
                starts=empty,
                ends=empty.copy(),
            )
        pos, cache, qb = self._lookup_batch_cached(np.concatenate([lows, highs]))
        starts = pos[:m]
        ends = pos[m:].copy()
        # Keys are unique (enforced at construction), so widening a
        # high endpoint that hits a stored key is a single +1; the hit
        # test runs through the query core's exact equality — reusing
        # the already-prepared concatenated batch's high half.
        qb_high = qb.take(np.arange(m, 2 * m))
        valid = ends < self.n
        if np.any(valid):
            hit = (
                self._gather_keys_batch(ends[valid], cache)
                == qb_high.compare[valid]
            )
            if qb_high.exactable is not None:
                hit &= qb_high.exactable[valid]
            ends[valid] += hit
        inverted = highs < lows
        ends[inverted] = starts[inverted]
        starts_loc = np.zeros(m, dtype=np.int64)
        ends_loc = np.zeros(m, dtype=np.int64)
        nonempty = ends > starts
        if np.any(nonempty):
            pages = self._expand_page_ranges(
                starts[nonempty] // self.page_size,
                (ends[nonempty] - 1) // self.page_size,
            )
            gathered, page_off = self._read_pages_batch(pages, cache)
            starts_loc[nonempty] = self._locate(
                pages, page_off, starts[nonempty]
            )
            ends_loc[nonempty] = (
                self._locate(pages, page_off, ends[nonempty] - 1) + 1
            )
        else:
            gathered = np.empty(0, dtype=np.int64)
        values, offsets = assemble_slices(gathered, starts_loc, ends_loc)
        return RangeScanResult(
            values=values, offsets=offsets, starts=starts, ends=ends
        )

    def range_query(self, low: float, high: float) -> np.ndarray:
        """All stored keys in ``[low, high]`` (scalar, paged IO)."""
        return np.asarray(
            self.range_query_batch([low], [high])[0], dtype=np.int64
        )

    # -- accounting ---------------------------------------------------------------

    def size_bytes(self) -> int:
        """Index overhead: the RMI plus the translation table."""
        return self._rmi.size_bytes() + self.store.num_pages * 8

    def io_stats(self) -> tuple[int, int]:
        """(page reads, bytes read) since the last reset."""
        return self.store.page_reads, self.store.bytes_read

    def reset_io(self) -> None:
        self.store.reset_io()

    def __repr__(self) -> str:
        return (
            f"PagedLearnedIndex(n={self.n}, page_size={self.page_size}, "
            f"pages={self.store.num_pages}, size={self.size_bytes()}B)"
        )
