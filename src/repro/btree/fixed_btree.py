"""Fixed-size B-Tree with interpolation search (Figure 5 baseline).

The paper: "as proposed in a recent blog post we created a fixed-height
B-Tree with interpolation search.  The B-Tree height is set, so that
the total size of the tree is 1.5MB, similar to our learned model."

:class:`FixedSizeBTree` inverts the usual construction: given a target
*byte budget*, it chooses how many separator keys fit, spreads them
evenly over the data (one level), and finishes lookups with
interpolation search inside the separated run — interpolation being
the natural partner because each run is locally smooth.
"""

from __future__ import annotations

import numpy as np

from ..range_scan import RangeScanIndexMixin
from ..util import scalar_view
from .btree import TraversalStats
from .search_baselines import Counter, interpolation_search

__all__ = ["FixedSizeBTree"]

_KEY_BYTES = 8
_POINTER_BYTES = 8

#: Separators per level of the flat tree.
FANOUT = 64


class FixedSizeBTree(RangeScanIndexMixin):
    """Budgeted flat separator array + interpolation search in runs."""

    def __init__(self, keys: np.ndarray, size_budget_bytes: int):
        keys = np.asarray(keys)
        if keys.size and np.any(keys[:-1] > keys[1:]):
            raise ValueError("keys must be sorted ascending")
        if size_budget_bytes < (_KEY_BYTES + _POINTER_BYTES):
            raise ValueError("size budget smaller than one entry")
        self.keys = keys
        self.stats = TraversalStats()
        self._build(int(size_budget_bytes))

    def _build(self, budget: int) -> None:
        n = self.keys.size
        entry_bytes = _KEY_BYTES + _POINTER_BYTES
        max_entries = max(budget // entry_bytes, 1)
        # Budget is split across the separator levels of a B-Tree whose
        # bottom level has `bottom` entries; upper levels add ~1/fanout
        # overhead, so solve bottom * (1 + 1/f + 1/f^2 ...) <= max_entries.
        geometric = 1.0 / (1.0 - 1.0 / FANOUT)
        bottom = max(int(max_entries / geometric), 1)
        bottom = min(bottom, max(n, 1))
        starts = np.linspace(0, max(n - 1, 0), bottom).astype(np.int64)
        starts = np.unique(starts)
        # Native-dtype separators: float64 copies would round >= 2^53
        # integer keys and misroute the descent (ISSUE 5).
        separators = (
            self.keys[starts]
            if n
            else np.empty(0, dtype=self.keys.dtype)
        )
        self._run_starts = starts
        levels = [separators]
        while levels[-1].size > FANOUT:
            levels.append(levels[-1][::FANOUT].copy())
        self._levels = levels
        self._level_views = [scalar_view(level) for level in levels]
        self._keys_view = scalar_view(self.keys)
        self._run_start_list = starts.tolist()
        self._scalar_query = self._key_column().prepare_scalar

    def size_bytes(self) -> int:
        total = 0
        for level in self._levels:
            total += int(level.size) * (_KEY_BYTES + _POINTER_BYTES)
        return total

    @property
    def height(self) -> int:
        return len(self._levels)

    def lookup(self, key: float) -> int:
        """Lower-bound position via tree descent + interpolation search."""
        self.stats.lookups += 1
        n = self.keys.size
        if n == 0:
            return 0
        key = key if type(key) is int else self._scalar_query(key)
        # Descend the separator levels (same dense layout as BTreeIndex).
        lo = 0
        for depth in range(len(self._level_views) - 1, -1, -1):
            level = self._level_views[depth]
            hi = min(lo + FANOUT, len(level))
            self.stats.nodes_visited += 1
            left, right = lo, hi
            while left < right:
                mid = (left + right) >> 1
                self.stats.comparisons += 1
                # strict compare: the lower bound of a duplicated key
                # lives under the *first* separator >= it, so descend
                # to the last separator strictly below the query.
                if level[mid] < key:
                    left = mid + 1
                else:
                    right = mid
            slot = max(left - 1, lo)
            if depth == 0:
                run = slot
                break
            lo = slot * FANOUT
        run_start = self._run_start_list[run]
        run_end = (
            self._run_start_list[run + 1] + 1
            if run + 1 < len(self._run_start_list)
            else n
        )
        counter = Counter()
        pos = interpolation_search(
            self._keys_view, key, run_start, run_end, counter
        )
        self.stats.comparisons += counter.comparisons
        return pos

    def __repr__(self) -> str:
        return (
            f"FixedSizeBTree(n={self.keys.size}, "
            f"separators={self._run_starts.size}, height={self.height}, "
            f"size={self.size_bytes()}B)"
        )
