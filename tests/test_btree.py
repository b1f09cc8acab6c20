"""Unit tests for the read-optimized B+Tree baseline."""

import bisect

import numpy as np
import pytest

from repro.btree import BTreeIndex


def truth(keys: np.ndarray, q) -> int:
    return int(np.searchsorted(keys, q, side="left"))


class TestConstruction:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            BTreeIndex(np.array([3, 1, 2]))

    def test_rejects_bad_page_size(self):
        with pytest.raises(ValueError):
            BTreeIndex(np.array([1, 2, 3]), page_size=0)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            BTreeIndex(np.zeros((2, 2)))

    def test_empty(self):
        tree = BTreeIndex(np.array([], dtype=np.int64))
        assert tree.lookup(42.0) == 0
        assert not tree.contains(42.0)

    def test_height_shrinks_with_page_size(self):
        keys = np.arange(100_000, dtype=np.int64)
        tall = BTreeIndex(keys, page_size=8)
        short = BTreeIndex(keys, page_size=512)
        assert tall.height > short.height

    def test_size_scales_inversely_with_page_size(self):
        keys = np.arange(100_000, dtype=np.int64)
        sizes = {
            p: BTreeIndex(keys, page_size=p).size_bytes()
            for p in (32, 64, 128)
        }
        # halving the page size roughly doubles the index (Figure 4's
        # 4.00x / 2.00x / 1.00x column)
        assert sizes[32] / sizes[64] == pytest.approx(2.0, rel=0.1)
        assert sizes[64] / sizes[128] == pytest.approx(2.0, rel=0.1)


class TestLookup:
    @pytest.mark.parametrize("page_size", [1, 2, 7, 32, 128, 1024])
    def test_matches_searchsorted(self, page_size, uniform_small, rng):
        keys = uniform_small
        tree = BTreeIndex(keys, page_size=page_size)
        queries = np.concatenate(
            [
                rng.choice(keys, 200),
                rng.integers(keys.min() - 5, keys.max() + 5, size=200),
                np.array([keys.min() - 100, keys.max() + 100]),
            ]
        )
        for q in queries:
            assert tree.lookup(float(q)) == truth(keys, q)

    def test_lookup_on_lognormal(self, lognormal_small, rng):
        tree = BTreeIndex(lognormal_small, page_size=64)
        for q in rng.choice(lognormal_small, 300):
            assert tree.lookup(float(q)) == truth(lognormal_small, q)

    def test_contains(self, uniform_small):
        tree = BTreeIndex(uniform_small, page_size=64)
        assert tree.contains(float(uniform_small[17]))
        missing = int(uniform_small.max()) + 1
        assert not tree.contains(float(missing))

    def test_single_key(self):
        tree = BTreeIndex(np.array([42], dtype=np.int64), page_size=16)
        assert tree.lookup(41.0) == 0
        assert tree.lookup(42.0) == 0
        assert tree.lookup(43.0) == 1

    def test_stats_accumulate(self, uniform_small):
        tree = BTreeIndex(uniform_small, page_size=64)
        tree.stats.reset()
        tree.lookup(float(uniform_small[0]))
        assert tree.stats.lookups == 1
        # At least one separator comparison on every level descended.
        assert tree.stats.comparisons >= tree.height > 0


class TestRangeQuery:
    def test_inclusive_bounds(self):
        keys = np.array([10, 20, 30, 40, 50], dtype=np.int64)
        tree = BTreeIndex(keys, page_size=2)
        np.testing.assert_array_equal(tree.range_query(20, 40), [20, 30, 40])

    def test_between_keys(self):
        keys = np.array([10, 20, 30], dtype=np.int64)
        tree = BTreeIndex(keys, page_size=2)
        np.testing.assert_array_equal(tree.range_query(11, 29), [20])

    def test_empty_range(self):
        keys = np.array([10, 20, 30], dtype=np.int64)
        tree = BTreeIndex(keys, page_size=2)
        assert tree.range_query(21, 20).size == 0

    def test_matches_numpy_reference(self, uniform_small, rng):
        tree = BTreeIndex(uniform_small, page_size=32)
        for _ in range(30):
            lo, hi = sorted(rng.integers(0, uniform_small.max(), size=2))
            expected = uniform_small[
                (uniform_small >= lo) & (uniform_small <= hi)
            ]
            np.testing.assert_array_equal(tree.range_query(lo, hi), expected)


class TestStringBTree:
    def test_string_lookups(self, strings_small, rng):
        tree = BTreeIndex(strings_small, page_size=32)
        probes = [strings_small[i] for i in rng.integers(0, len(strings_small), 100)]
        probes += [p + "!" for p in probes[:30]] + ["", "zzzz"]
        for q in probes:
            assert tree.lookup(q) == bisect.bisect_left(strings_small, q)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            BTreeIndex(["b", "a"])

    def test_contains(self, strings_small):
        tree = BTreeIndex(strings_small, page_size=16)
        assert tree.contains(strings_small[5])
        assert not tree.contains(strings_small[5] + "x")

    def test_string_membership_and_ranges(self, strings_small, rng):
        tree = BTreeIndex(strings_small, page_size=32)
        members = set(strings_small)
        probes = list(rng.choice(strings_small, 80)) + ["", "~~~absent"]
        for q in probes:
            assert tree.contains(q) == (q in members), q
            assert tree.upper_bound(q) == bisect.bisect_right(strings_small, q)
        for lo, hi in zip(probes[:40], probes[40:80]):
            want = strings_small[
                bisect.bisect_left(strings_small, lo):
                bisect.bisect_right(strings_small, hi)
            ]
            assert list(tree.range_query(lo, hi)) == want, (lo, hi)

    def test_size_counts_string_bytes(self):
        """Each separator ("aa", "ccc") counts its length + a pointer."""
        tree = BTreeIndex(["aa", "bb", "ccc", "dd"], page_size=2)
        assert tree.size_bytes() == (2 + 8) + (3 + 8)

    def test_strings_stay_the_callers_objects(self):
        """A fixed-width numpy string would read "a\x00" back as "a"."""
        keys = ["a", "a\x00", "a\x00\x00", "b"]
        tree = BTreeIndex(keys, page_size=2)
        assert tree.keys.dtype == object
        for q in keys:
            assert tree.lookup(q) == bisect.bisect_left(keys, q), q
            assert tree.contains(q)
