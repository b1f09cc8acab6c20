"""Hybrid indexes — Algorithm 1's B-Tree fallback (Section 3.3).

"the index is optimized by replacing NN models with B-Trees if
absolute min-/max-error is above a predefined threshold ... hybrid
indexes allow us to bound the worst case performance of learned indexes
to the performance of B-Trees.  That is, in the case of an extremely
difficult to learn data distribution, all models would be automatically
replaced by B-Trees, making it virtually an entire B-Tree."

:class:`HybridIndex` extends the RMI: after stage-wise training, every
last-stage model whose ``max_abs_err`` exceeds ``threshold`` is swapped
for a dense B-Tree over the key range that model is responsible for.
A scalar ``lookup`` routes exactly like the RMI; a key landing on a
replaced leaf descends the per-leaf B-Tree instead of searching the
model's window.  The batch reads are the RMI's own: the compiled plan
searches every leaf's stored error window and verifies each position
(Section 3.4), so a replaced leaf's batch answers are the same exact
lower bounds.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..btree.btree import BTreeIndex
from ..btree.search_baselines import exponential_search
from .rmi import RecursiveModelIndex

__all__ = ["HybridIndex"]


class _LeafBTree:
    """A B-Tree fallback covering one leaf's position range."""

    __slots__ = ("base", "tree", "span")

    def __init__(self, keys: np.ndarray, base: int, end: int, page_size: int):
        self.base = int(base)
        self.span = int(end - base)
        self.tree = BTreeIndex(keys[base:end], page_size=page_size)

    def lookup(self, key: float) -> int:
        return self.base + self.tree.lookup(key)

    def size_bytes(self) -> int:
        return self.tree.size_bytes()


class HybridIndex(RecursiveModelIndex):
    """RMI whose inaccurate leaves are replaced by B-Trees.

    Parameters (beyond :class:`RecursiveModelIndex`)
    ----------
    threshold:
        Maximum tolerated absolute leaf error before replacement
        (Algorithm 1's ``threshold``; Figure 6 uses 64 and 128).
    btree_page_size:
        Page size of the fallback B-Trees.
    """

    def __init__(
        self,
        keys: np.ndarray,
        stage_sizes: Sequence[int] = (1, 100),
        search_strategy: str = "binary",
        threshold: int = 128,
        btree_page_size: int = 128,
    ):
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        self.threshold = int(threshold)
        self.btree_page_size = int(btree_page_size)
        self.leaf_btrees: dict[int, _LeafBTree] = {}
        super().__init__(
            keys,
            stage_sizes=stage_sizes,
            search_strategy=search_strategy,
        )
        self._replace_bad_leaves()

    # -- Algorithm 1, lines 11-14 ---------------------------------------------

    def _replace_bad_leaves(self) -> None:
        # Algorithm 1's max_abs_err, read off the leaf error tables.
        plan = self._plan
        max_abs = np.maximum(
            np.abs(plan.lo_offsets.astype(np.int64)),
            np.abs(plan.hi_offsets.astype(np.int64)),
        )
        bad = np.nonzero(
            (self._stage_counts[-1] > 0) & (max_abs > self.threshold)
        )[0]
        if not bad.size:
            return
        assignment = self._leaf_assignment
        order = np.argsort(assignment, kind="stable")
        boundaries = np.searchsorted(
            assignment[order], np.arange(self.stage_sizes[-1] + 1),
            side="left",
        )
        for j in bad.tolist():
            members = order[boundaries[j]:boundaries[j + 1]]
            base = int(members.min())
            end = int(members.max()) + 1
            self.leaf_btrees[j] = _LeafBTree(
                self.keys, base, end, self.btree_page_size
            )

    # -- lookup -----------------------------------------------------------------

    def lookup(self, key: float) -> int:
        n = self.keys.size
        if n == 0:
            return 0
        if not self.leaf_btrees:
            return super().lookup(key)
        if isinstance(key, np.generic):
            key = key.item()
        leaf = self._route_scalar(self._space.encode_scalar(key))
        fallback = self.leaf_btrees.get(leaf)
        if fallback is None:
            return super().lookup(key)
        self.stats.lookups += 1
        pos = fallback.lookup(key)
        keys = self._keys_view
        # The per-leaf tree only sees its slice; absent keys outside the
        # slice boundaries need the usual widening fix-up.
        if (pos < n and keys[pos] < key) or (
            pos > 0 and keys[pos - 1] >= key
        ):
            self.stats.fixups += 1
            pos = exponential_search(keys, key, min(pos, n - 1))
        return pos

    # -- accounting ----------------------------------------------------------------

    def size_bytes(self) -> int:
        total = super().size_bytes()
        for fallback in self.leaf_btrees.values():
            total += fallback.size_bytes()
        return total

    @property
    def replaced_leaf_count(self) -> int:
        return len(self.leaf_btrees)

    @property
    def replaced_key_fraction(self) -> float:
        """Fraction of stored keys served by B-Tree leaves."""
        if self.keys.size == 0:
            return 0.0
        covered = sum(f.span for f in self.leaf_btrees.values())
        return min(covered / self.keys.size, 1.0)

    def __repr__(self) -> str:
        return (
            f"HybridIndex(n={self.keys.size}, stages={self.stage_sizes}, "
            f"threshold={self.threshold}, "
            f"replaced={self.replaced_leaf_count}/{self.stage_sizes[-1]}, "
            f"size={self.size_bytes()}B)"
        )
