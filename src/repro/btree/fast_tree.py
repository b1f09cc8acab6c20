"""FAST-style SIMD tree (Figure 5 baseline).

FAST [Kim et al., SIGMOD 2010] lays a search tree out in a cache- and
SIMD-friendly blocked order and searches each node with branch-free
SIMD comparisons.  The paper uses it as an alternative baseline and
notes two properties this reproduction preserves:

* "FAST always requires to allocate memory in the power of 2 ... which
  can lead to significantly larger indexes" — Figure 5 shows FAST at
  1024MB vs 1.5MB for the learned index.  We allocate every level at
  the next power of two of its occupancy, so the same blow-up appears
  in ``size_bytes``.
* branch-free within-node search: each visited node compares the key
  against all 16 separators at once (a numpy vectorized compare — the
  Python stand-in for two AVX 256-bit register compares) and derives
  the child group arithmetically from the popcount, with no
  data-dependent branches.

Structurally the tree is a 16-ary static tree over page separators:
``level[d] = level[d+1][::16]`` (root stored first), which makes the
descent arithmetic (`child_base = slot * 16`) exact.  Lookup semantics
match :class:`repro.btree.BTreeIndex` — both return lower-bound
positions into the same sorted array — so Figure 5 compares equals.
"""

from __future__ import annotations

import numpy as np

from ..range_scan import RangeScanIndexMixin
from ..util import scalar_view
from .btree import TraversalStats

__all__ = ["FASTTree", "SIMD_WIDTH"]

#: Keys compared per SIMD node visit (16 32-bit lanes in the original).
SIMD_WIDTH = 16
_KEY_BYTES = 8
_POINTER_BYTES = 8


def _next_power_of_two(x: int) -> int:
    if x <= 1:
        return 1
    return 1 << (x - 1).bit_length()


class FASTTree(RangeScanIndexMixin):
    """Static 16-ary tree with branch-free SIMD node search."""

    def __init__(self, keys: np.ndarray, page_size: int = 128):
        keys = np.asarray(keys)
        if keys.size and np.any(keys[:-1] > keys[1:]):
            raise ValueError("keys must be sorted ascending")
        if page_size < 1:
            raise ValueError("page_size must be >= 1")
        self.keys = keys
        self.page_size = int(page_size)
        self.stats = TraversalStats()
        self._build()

    def _build(self) -> None:
        n = self.keys.size
        page_starts = np.arange(0, n, self.page_size, dtype=np.int64)
        # Separators keep the key's native dtype (a float64 copy would
        # round >= 2^53 int separators and misroute the descent); the
        # +inf padding of the original becomes the dtype's maximum for
        # integer keys — the descent only ever compares separators with
        # strictly-less, so a never-less sentinel behaves identically.
        separators = (
            self.keys[page_starts]
            if n
            else np.empty(0, dtype=self.keys.dtype)
        )
        pad_value = (
            np.inf
            if self.keys.dtype.kind not in "iu"
            else np.iinfo(self.keys.dtype).max
        )
        self._page_starts = page_starts
        # Leaf separator level, padded to a power of two and to whole
        # SIMD groups (the FAST alignment requirement).
        occupancy = max(int(separators.size), 1)
        padded = max(_next_power_of_two(occupancy), SIMD_WIDTH)
        leaf = np.full(padded, pad_value, dtype=separators.dtype)
        leaf[:separators.size] = separators
        levels = [leaf]
        while levels[-1].size > SIMD_WIDTH:
            below = levels[-1]
            level = below[::SIMD_WIDTH].copy()
            pad_to = max(_next_power_of_two(level.size), SIMD_WIDTH)
            if pad_to > level.size:
                level = np.concatenate(
                    [level, np.full(pad_to - level.size, pad_value,
                                    dtype=level.dtype)]
                )
            levels.append(level)
        levels.reverse()
        self._levels = levels  # root level first
        self._keys_view = scalar_view(self.keys)
        self._page_start_list = page_starts.tolist()
        self._scalar_query = self._key_column().prepare_scalar

    def size_bytes(self) -> int:
        """Full allocated footprint, including power-of-two padding."""
        total = 0
        for level in self._levels:
            total += int(level.size) * _KEY_BYTES
        # Child offsets are implicit in the blocked layout; the page
        # pointers hanging off the (padded) leaf level are real storage.
        total += int(self._levels[-1].size) * _POINTER_BYTES
        return total

    @property
    def height(self) -> int:
        return len(self._levels)

    def find_page(self, key: float) -> int:
        """Branch-free descent; returns the candidate page index."""
        # In the column's domain, the lane compares are exact.
        key = key if type(key) is int else self._scalar_query(key)
        self.stats.lookups += 1
        if self._page_starts.size == 0:
            return 0
        slot = 0
        for depth, level in enumerate(self._levels):
            start = slot * SIMD_WIDTH if depth else 0
            block = level[start:start + SIMD_WIDTH]
            self.stats.comparisons += SIMD_WIDTH
            # SIMD lane compare + popcount: rank of the key in the node.
            # Strictly-less so duplicated keys resolve to the page of
            # their first occurrence (lower-bound semantics).
            rank = int((block < key).sum())
            slot = start + max(rank - 1, 0)
        page = min(slot, self._page_starts.size - 1)
        return int(page)

    def lookup(self, key: float) -> int:
        """Lower-bound position via descent + in-page binary search."""
        if self._page_starts.size == 0:
            return 0
        key = key if type(key) is int else self._scalar_query(key)
        page = self.find_page(key)
        begin = self._page_start_list[page]
        end = min(begin + self.page_size, self.keys.size)
        keys = self._keys_view
        lo, hi = begin, end
        while lo < hi:
            mid = (lo + hi) >> 1
            self.stats.comparisons += 1
            if keys[mid] < key:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def __repr__(self) -> str:
        return (
            f"FASTTree(n={self.keys.size}, page_size={self.page_size}, "
            f"height={self.height}, size={self.size_bytes()}B)"
        )
