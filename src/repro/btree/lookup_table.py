"""Hierarchical lookup table with AVX-style branch-free scan (Figure 5).

The paper's description: "We included a comparison against a 3-stage
lookup table, which is constructed by taking every 64th key and putting
it into an array including padding to make it a multiple of 64.  Then
we repeat that process one more time over the array without padding,
creating two arrays in total.  To lookup a key, we use binary search on
the top table followed by an AVX optimized branch-free scan for the
second table and the data itself."

This class reproduces that exact construction.  The "AVX branch-free
scan" is modeled with a numpy vectorized comparison over the 64-slot
group (a data-parallel count of keys <= lookup key — the same operation
an AVX implementation performs with packed compares + popcount).
"""

from __future__ import annotations

import numpy as np

from ..range_scan import RangeScanIndexMixin
from ..util import scalar_view
from .btree import TraversalStats
from .search_baselines import binary_search

__all__ = ["HierarchicalLookupTable"]

_KEY_BYTES = 8
_GROUP = 64


class HierarchicalLookupTable(RangeScanIndexMixin):
    """Two auxiliary arrays over the data, 64-way fan-out at each stage."""

    def __init__(self, keys: np.ndarray, group: int = _GROUP):
        keys = np.asarray(keys)
        if keys.size and np.any(keys[:-1] > keys[1:]):
            raise ValueError("keys must be sorted ascending")
        if group < 2:
            raise ValueError("group must be >= 2")
        self.keys = keys
        self.group = int(group)
        self.stats = TraversalStats()
        self._build()

    def _build(self) -> None:
        g = self.group
        # Auxiliary tables keep the key's native dtype (a float64 copy
        # would round >= 2^53 integer keys and misroute the scans); the
        # +inf padding of the original becomes the dtype maximum for
        # integer keys — pads are only ever compared strictly-less, so
        # a never-less sentinel behaves identically.
        data = self.keys
        pad_value = (
            np.inf
            if data.dtype.kind not in "iu"
            else np.iinfo(data.dtype).max
        )
        # Second table: every g-th key, padded to a multiple of g.
        second = data[::g].copy()
        pad = (-second.size) % g
        if pad:
            second = np.concatenate(
                [second, np.full(pad, pad_value, dtype=second.dtype)]
            )
        # Top table: every g-th key of the second table, no padding.
        top = second[::g].copy()
        self._second = second
        self._top = top
        self._keys_view = scalar_view(data)
        self._scalar_query = self._key_column().prepare_scalar

    def size_bytes(self) -> int:
        """Both auxiliary arrays (the data array is not index overhead)."""
        return int(self._second.size + self._top.size) * _KEY_BYTES

    def _scan_group(self, array: np.ndarray, start: int, key: float) -> int:
        """Branch-free rank of ``key`` within ``array[start:start+group]``."""
        block = array[start:start + self.group]
        self.stats.comparisons += int(block.size)
        return int((block < key).sum())

    def lookup(self, key: float) -> int:
        """Lower-bound position of ``key`` in the data array."""
        self.stats.lookups += 1
        n = self.keys.size
        if n == 0:
            return 0
        # In the column's domain, the numpy compares below are exact.
        key = key if type(key) is int else self._scalar_query(key)
        # Stage 1: binary search the top table for the last entry
        # strictly < key (a separator == key may still have equal keys
        # in the group before it — lower-bound semantics under
        # duplicates).
        top_rank = binary_search(self._top, key, counter=None)
        self.stats.comparisons += max(
            1, int(np.ceil(np.log2(max(self._top.size, 2))))
        )
        top_slot = max(top_rank - 1, 0)
        # Stage 2: AVX scan of the corresponding 64-entry second-table group.
        second_start = top_slot * self.group
        rank2 = self._scan_group(self._second, second_start, key)
        second_slot = second_start + max(rank2 - 1, 0)
        second_slot = min(second_slot, self._second.size - 1)
        # Stage 3: AVX scan of the data group.
        data_start = second_slot * self.group
        data_start = min(data_start, max(n - 1, 0))
        rank3 = self._scan_group(self.keys, data_start, key)
        pos = data_start + rank3
        # rank counts strictly-smaller keys, so pos is the lower bound
        # within the group; if the key exceeds the whole group the lower
        # bound is the group end, which is the next group's start.
        return int(min(pos, n))

    def __repr__(self) -> str:
        return (
            f"HierarchicalLookupTable(n={self.keys.size}, group={self.group}, "
            f"size={self.size_bytes()}B)"
        )
