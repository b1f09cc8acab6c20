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

Reads are the scalar ``lookup`` and ``contains`` the appendix
describes, and every page they touch is accounted: the store counts
page reads and bytes transferred, and a small buffer pool turns a
repeated touch of a just-read page into a hit rather than an I/O.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..obs import MetricsRegistry, counter_field
from ..util import as_int64_keys
from .rmi import RecursiveModelIndex

__all__ = ["PageStore", "PagedLearnedIndex"]

_KEY_BYTES = 8


class PageStore:
    """A simulated block device of fixed-size key pages.

    Pages are stored at shuffled physical indexes (like extents on a
    fragmented disk); every read is accounted.  ``partial_reads=True``
    lets callers fetch a byte sub-range of a page (modern NVMe / object
    stores); otherwise whole pages transfer.  Keys follow the key
    contract (:func:`repro.util.as_int64_keys`): a non-integer array is
    a ``TypeError`` and a key outside int64 an ``OverflowError``.
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
        keys = as_int64_keys(sorted_keys)
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
    """RMI + translation table over a :class:`PageStore`, whose key
    contract the keys follow."""

    def __init__(
        self,
        keys: np.ndarray,
        *,
        page_size: int = 256,
        stage_sizes: Sequence[int] = (1, 100),
        shuffle_seed: int = 0,
        partial_reads: bool = False,
    ):
        keys = as_int64_keys(keys)
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
        # Compared in the key domain: a float against the int64 pages
        # would round both to float64.
        key = self._rmi._column.prepare_scalar(key)
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
        if isinstance(key, np.generic):
            key = key.item()
        page, slot = self.lookup(key)
        position = page * self.page_size + slot
        if position >= self.n:
            return False
        # Native compare: ``int(-0.5)`` would truncate onto key 0.
        return self._key_at(position) == key

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
