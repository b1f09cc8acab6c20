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
The replacement and the search it plugs in are written once, in
:class:`BTreeLeaves`, which the string index
(:class:`~repro.core.StringRMI`) shares: one
:class:`~repro.btree.BTreeIndex` serves numeric and string leaves
alike.  The scalar ``lookup`` is the shared one and routes once: a key
landing on a replaced leaf descends that leaf's B-Tree in place of
searching the model's window — the tree plugs into the one Section 3.4
lookup of :class:`~repro.core.plan_index.ScalarLookup` as the search
inside the window, and the verification and fix-up after it are
shared.  The batch reads are the RMI's own: the compiled plan searches
every leaf's stored error window and verifies each position
(Section 3.4), so a replaced leaf's batch answers are the same exact
lower bounds.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..btree.btree import BTreeIndex
from .rmi import RecursiveModelIndex

__all__ = ["BTreeLeaves", "HybridIndex"]

#: Page size of the B-Trees that replace inaccurate leaves (the
#: B-Tree baselines' default).
LEAF_BTREE_PAGE_SIZE = 128


class BTreeLeaves:
    """Algorithm 1, lines 11-14, for a host of the shared scalar lookup
    (:class:`~repro.core.plan_index.ScalarLookup`): the numeric
    :class:`HybridIndex` and :class:`~repro.core.StringRMI`."""

    def _replace_bad_leaves(
        self,
        threshold: int,
        assignment: np.ndarray,
        counts: np.ndarray,
        lo_offsets: np.ndarray,
        hi_offsets: np.ndarray,
    ) -> None:
        """Swap every trained leaf whose ``max_abs_err`` — the larger
        magnitude of its two window offsets — exceeds ``threshold``
        for a B-Tree over the positions of its stored keys
        (``assignment``: the leaf of each stored key)."""
        max_abs = np.maximum(
            np.abs(lo_offsets.astype(np.int64)),
            np.abs(hi_offsets.astype(np.int64)),
        )
        bad = np.nonzero((counts > 0) & (max_abs > threshold))[0]
        #: Replaced leaf -> (first position, B-Tree over its slice).
        self.leaf_btrees: dict[int, tuple[int, BTreeIndex]] = {}
        if not bad.size:
            return
        order = np.argsort(assignment, kind="stable")
        boundaries = np.searchsorted(
            assignment[order], np.arange(counts.size + 1), side="left"
        )
        for j in bad.tolist():
            members = order[boundaries[j]:boundaries[j + 1]]
            base = int(members.min())
            end = int(members.max()) + 1
            self.leaf_btrees[j] = base, BTreeIndex(
                self.keys[base:end], page_size=LEAF_BTREE_PAGE_SIZE
            )
        self._model_search = self._search_window
        self._search_window = self._search_leaf

    def _search_leaf(self, key, leaf: int, raw: float, lo: int, hi: int):
        """A replaced leaf's B-Tree in place of its model's window; any
        other leaf searches as the host does.  The tree sees only its
        slice, so an absent key outside it takes the usual Section 3.4
        fix-up."""
        fallback = self.leaf_btrees.get(leaf)
        if fallback is not None:
            base, tree = fallback
            return base + tree.lookup(key)
        model = self._model_search
        return None if model is None else model(key, leaf, raw, lo, hi)

    def _leaf_btree_bytes(self) -> int:
        return sum(tree.size_bytes() for _, tree in self.leaf_btrees.values())

    @property
    def replaced_leaf_count(self) -> int:
        return len(self.leaf_btrees)


class HybridIndex(BTreeLeaves, RecursiveModelIndex):
    """RMI whose inaccurate leaves are replaced by B-Trees.

    Parameters (beyond :class:`RecursiveModelIndex`)
    ----------
    threshold:
        Maximum tolerated absolute leaf error before replacement
        (Algorithm 1's ``threshold``; Figure 6 uses 64 and 128).
    """

    def __init__(
        self,
        keys: np.ndarray,
        stage_sizes: Sequence[int] = (1, 100),
        search_strategy: str = "binary",
        threshold: int = 128,
    ):
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        self.threshold = int(threshold)
        super().__init__(
            keys,
            stage_sizes=stage_sizes,
            search_strategy=search_strategy,
        )

    def _leaves_trained(self, assignment: np.ndarray) -> None:
        plan = self._plan
        self._replace_bad_leaves(
            self.threshold, assignment,
            self._stage_counts[-1], plan.lo_offsets, plan.hi_offsets,
        )

    # -- accounting ----------------------------------------------------------------

    def size_bytes(self) -> int:
        return super().size_bytes() + self._leaf_btree_bytes()

    def __repr__(self) -> str:
        return (
            f"HybridIndex(n={self.keys.size}, stages={self.stage_sizes}, "
            f"threshold={self.threshold}, "
            f"replaced={self.replaced_leaf_count}/{self.stage_sizes[-1]}, "
            f"size={self.size_bytes()}B)"
        )
