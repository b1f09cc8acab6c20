"""Read-optimized bulk-loaded B+Tree over a sorted array.

The paper's baseline is "a production quality B-Tree implementation
which is similar to the stx::btree but with further cache-line
optimization, dense pages (i.e., fill factor of 100%), and very
competitive performance" (Section 3.7.1), used as an index over logical
pages of a dense sorted array (Section 2): "it is common not to index
every single key of the sorted records, rather only the key of every
n-th record, i.e., the first key of a page".

:class:`BTreeIndex` reproduces that design:

* the data is a sorted array held outside the tree;
* the tree indexes the first key of every ``page_size``-th record;
* nodes are dense (100% fill), bulk-loaded bottom-up, and store their
  keys in contiguous numpy arrays (the cache-line analogue);
* lookup descends with per-node binary search and returns the *page*,
  then the caller (or :meth:`lookup`) finishes with binary search
  inside the page — exactly the paper's "min-error of 0 and a
  max-error of the page-size" model view of a B-Tree.

The same class doubles as the *hybrid-index fallback* (Section 3.3) by
indexing an arbitrary key subrange — of numbers under
:class:`~repro.core.HybridIndex`, of strings under
:class:`~repro.core.StringRMI` — and as Figure 6's string baseline: any
comparable keys work, and strings stay the caller's objects in an
``object`` array.

Instrumentation counters (nodes visited, comparisons) feed the
Section 2.1 cost model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..range_scan import RangeScanIndexMixin
from ..util import scalar_view

__all__ = ["BTreeIndex", "TraversalStats"]

_KEY_BYTES = 8
_POINTER_BYTES = 8


@dataclass
class TraversalStats:
    """Mutable counters accumulated across lookups."""

    lookups: int = 0
    comparisons: int = 0

    def reset(self) -> None:
        self.lookups = 0
        self.comparisons = 0


class BTreeIndex(RangeScanIndexMixin):
    """Bulk-loaded dense B+Tree over the keys of a sorted array.

    Parameters
    ----------
    keys:
        Sorted array being indexed (the data itself; a numpy array is
        not copied).  A sequence of strings becomes an ``object``
        array of the same strings: a fixed-width numpy string would
        strip trailing NULs (``np.asarray(['a\\x00'])`` reads back
        ``'a'``).
    page_size:
        Number of *records* per logical page — the paper's page-size
        knob (Figure 4 uses 32..512).  The tree indexes one key per
        page, and the page size doubles as the node width (keys per
        tree node, at least 2), as in the paper.
    """

    def __init__(self, keys: np.ndarray, page_size: int = 128):
        if not isinstance(keys, np.ndarray):
            array = np.asarray(keys)
            keys = array if array.dtype.kind not in "US" else np.array(
                keys, dtype=object
            )
        if keys.ndim != 1:
            raise ValueError("keys must be one-dimensional")
        # Comparison instead of np.diff: no int64 difference overflow
        # on huge key spans and no full-width temporary.
        if keys.size and np.any(keys[:-1] > keys[1:]):
            raise ValueError("keys must be sorted ascending")
        if page_size < 1:
            raise ValueError("page_size must be >= 1")
        self.keys = keys
        self.page_size = int(page_size)
        self.fanout = max(self.page_size, 2)
        self.stats = TraversalStats()
        self._build()

    # -- construction --------------------------------------------------------

    def _build(self) -> None:
        n = self.keys.size
        # One separator key per logical page (first key of the page).
        # Separators stay in the key's native dtype: a float64 copy
        # would round int64 separators at or beyond 2^53, and a descent
        # through rounded separators can pick the wrong page (ISSUE 5).
        page_starts = np.arange(0, n, self.page_size, dtype=np.int64)
        leaf_keys = (
            self.keys[page_starts]
            if n
            else np.empty(0, dtype=self.keys.dtype)
        )
        self._page_starts = page_starts
        # levels[0] = leaf separator array; levels[i>0] = first key of
        # each fanout-group of the level below (bulk bottom-up build).
        levels: list[np.ndarray] = [leaf_keys]
        while levels[-1].size > self.fanout:
            below = levels[-1]
            firsts = below[::self.fanout].copy()
            levels.append(firsts)
        self._levels = levels
        # Scalar hot path: native views avoid numpy boxing per probe.
        self._level_views = [scalar_view(level) for level in levels]
        self._keys_view = scalar_view(self.keys)
        self._page_start_list = page_starts.tolist()
        self._scalar_query = self._key_column().prepare_scalar

    # -- size accounting -------------------------------------------------------

    def size_bytes(self) -> int:
        """Index size: keys + child/page pointers at every level.

        Matches the paper's convention of counting only the index, not
        the data array (Section 3.7.1, "we only counted the extra index
        overhead excluding the sorted array itself").  An ``object``
        key (a string) counts its length.
        """
        if self.keys.dtype == object:
            return sum(
                len(str(key)) + _POINTER_BYTES
                for level in self._level_views
                for key in level
            )
        separators = sum(int(level.size) for level in self._levels)
        return separators * (_KEY_BYTES + _POINTER_BYTES)

    @property
    def height(self) -> int:
        """Number of levels descended before the in-page search."""
        return len(self._levels)

    @property
    def num_pages(self) -> int:
        return int(self._page_starts.size)

    # -- lookup ----------------------------------------------------------------

    def find_page(self, key: float) -> int:
        """Descend the tree; return the index of the candidate page.

        The returned page is the last page whose first key is strictly
        < key (page 0 if none).  Strict comparison matters under
        duplicates: when a run of keys equal to the query spans page
        boundaries, the *lower bound* lives in the first such page, not
        the last one whose separator matches.
        """
        key = key if type(key) is int else self._scalar_query(key)
        self.stats.lookups += 1
        if self._levels[0].size == 0:
            return 0
        # Descend from the root level to the leaf separator array. At
        # each level we know the key lies within a fanout-wide group.
        stats = self.stats
        fanout = self.fanout
        lo = 0
        for depth in range(len(self._level_views) - 1, -1, -1):
            level = self._level_views[depth]
            hi = min(lo + fanout, len(level))
            # binary search inside the node for rightmost key < key
            left, right = lo, hi
            while left < right:
                mid = (left + right) >> 1
                stats.comparisons += 1
                if level[mid] < key:
                    left = mid + 1
                else:
                    right = mid
            slot = left - 1 if left > lo else lo
            if depth == 0:
                return slot
            lo = slot * fanout
        return 0  # pragma: no cover — loop always returns at depth 0

    def lookup(self, key: float) -> int:
        """Position of the first stored key >= ``key`` (lower bound)."""
        key = key if type(key) is int else self._scalar_query(key)
        page = self.find_page(key)
        start = self._page_start_list[page] if self.num_pages else 0
        end = min(start + self.page_size, self.keys.size)
        # In-page binary search (the paper's ~50-cycle page scan).
        keys = self._keys_view
        stats = self.stats
        left, right = start, end
        while left < right:
            mid = (left + right) >> 1
            stats.comparisons += 1
            if keys[mid] < key:
                left = mid + 1
            else:
                right = mid
        # If the key exceeds everything in the page, ``left == end``,
        # which is exactly the first record of the next page — find_page
        # guarantees that page's first key is >= key, so this is the
        # correct lower bound.
        return left

    # contains / upper_bound / range_query and the batch reads come
    # from RangeScanIndexMixin: a B-Tree over a dense sorted array
    # answers batches fastest by skipping the tree entirely — the
    # structure exists to locate a page, and ``searchsorted`` does
    # page + in-page search in one vectorized pass.

    def __repr__(self) -> str:
        return (
            f"BTreeIndex(n={self.keys.size}, page_size={self.page_size}, "
            f"height={self.height}, size={self.size_bytes()}B)"
        )

