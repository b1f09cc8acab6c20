"""Unit tests for the FAST-style SIMD tree."""

import numpy as np
import pytest

from repro.btree import BTreeIndex, FASTTree, SIMD_WIDTH


def truth(keys, q):
    return int(np.searchsorted(keys, q, side="left"))


class TestFASTTree:
    @pytest.mark.parametrize("page_size", [1, 4, 128])
    def test_matches_searchsorted(self, page_size, uniform_small, rng):
        tree = FASTTree(uniform_small, page_size=page_size)
        queries = np.concatenate(
            [
                rng.choice(uniform_small, 200),
                rng.integers(
                    uniform_small.min() - 5, uniform_small.max() + 5, 200
                ),
            ]
        )
        for q in queries:
            assert tree.lookup(float(q)) == truth(uniform_small, q)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            FASTTree(np.array([2, 1]))

    def test_empty_and_single(self):
        assert FASTTree(np.array([], dtype=np.int64)).lookup(1.0) == 0
        single = FASTTree(np.array([9], dtype=np.int64))
        assert single.lookup(8.0) == 0
        assert single.lookup(10.0) == 1

    def test_power_of_two_allocation_blowup(self, uniform_small):
        """The paper: FAST 'can lead to significantly larger indexes'."""
        fast = FASTTree(uniform_small, page_size=1)
        btree = BTreeIndex(uniform_small, page_size=128)
        assert fast.size_bytes() > 10 * btree.size_bytes()

    def test_every_level_visit_counts_simd_width(self, uniform_small):
        tree = FASTTree(uniform_small, page_size=64)
        tree.stats.reset()
        tree.find_page(float(uniform_small[0]))
        assert tree.stats.lookups == 1
        assert tree.stats.comparisons == tree.height * SIMD_WIDTH

    def test_extremes(self, uniform_small):
        tree = FASTTree(uniform_small, page_size=32)
        assert tree.lookup(float(uniform_small.min()) - 1) == 0
        assert tree.lookup(float(uniform_small.max()) + 1) == uniform_small.size

    def test_contains(self, uniform_small):
        tree = FASTTree(uniform_small, page_size=16)
        assert tree.contains(float(uniform_small[3]))
        assert not tree.contains(float(uniform_small.max()) + 7)
