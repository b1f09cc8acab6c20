"""Edge-case sweep for every index's range + batch APIs (ISSUE 2).

Pins behavior — not just absence of crashes — for: the empty index, a
single key, all-duplicate arrays, queries outside the key range,
inverted ranges (``low > high``), and empty batch inputs.  Every
ordered index type goes through the same sweep so a future refactor
cannot silently change the semantics of one family.
"""

from __future__ import annotations

import bisect

import numpy as np
import pytest

from repro.btree import (
    BTreeIndex,
    FASTTree,
    FixedSizeBTree,
    HierarchicalLookupTable,
)
from repro.core import (
    HybridIndex,
    RangeScanResult,
    RecursiveModelIndex,
    StringRMI,
    WritableLearnedIndex,
)

FACTORIES = {
    "rmi": lambda keys: RecursiveModelIndex(keys, stage_sizes=(1, 16)),
    "hybrid": lambda keys: HybridIndex(keys, stage_sizes=(1, 8), threshold=2),
    "btree": lambda keys: BTreeIndex(keys, page_size=8),
    "fixed_btree": lambda keys: FixedSizeBTree(keys, size_budget_bytes=1_024),
    "lookup_table": lambda keys: HierarchicalLookupTable(keys, group=8),
    "fast_tree": lambda keys: FASTTree(keys, page_size=8),
}

ALL_NAMES = sorted(FACTORIES)


def build(name: str, keys) -> object:
    return FACTORIES[name](np.asarray(keys, dtype=np.int64))


@pytest.mark.parametrize("name", ALL_NAMES)
class TestEmptyIndex:
    def test_point_apis(self, name):
        index = build(name, [])
        assert index.lookup(5.0) == 0
        assert not index.contains(5.0)
        assert index.upper_bound(5.0) == 0
        np.testing.assert_array_equal(
            index.lookup_batch(np.array([1.0, 2.0])), [0, 0]
        )
        np.testing.assert_array_equal(
            index.contains_batch(np.array([1.0, 2.0])), [False, False]
        )

    def test_range_apis(self, name):
        index = build(name, [])
        assert len(index.range_query(1.0, 100.0)) == 0
        result = index.range_query_batch([1.0, 50.0], [100.0, 40.0])
        assert isinstance(result, RangeScanResult)
        assert len(result) == 2
        assert result.total == 0
        assert list(result.counts) == [0, 0]


@pytest.mark.parametrize("name", ALL_NAMES)
class TestSingleKey:
    def test_bounds_bracket_the_key(self, name):
        index = build(name, [42])
        assert index.lookup(41.0) == 0
        assert index.lookup(42.0) == 0
        assert index.lookup(43.0) == 1
        assert index.upper_bound(41.0) == 0
        assert index.upper_bound(42.0) == 1
        assert index.upper_bound(43.0) == 1

    def test_ranges_around_the_key(self, name):
        index = build(name, [42])
        assert list(index.range_query(42.0, 42.0)) == [42]
        assert list(index.range_query(0.0, 100.0)) == [42]
        assert len(index.range_query(43.0, 100.0)) == 0
        assert len(index.range_query(0.0, 41.0)) == 0
        result = index.range_query_batch(
            [42.0, 0.0, 43.0], [42.0, 100.0, 100.0]
        )
        assert list(result[0]) == [42]
        assert list(result[1]) == [42]
        assert list(result[2]) == []


@pytest.mark.parametrize("name", ALL_NAMES)
class TestAllDuplicates:
    KEYS = [7] * 64

    def test_lower_and_upper_bounds(self, name):
        index = build(name, self.KEYS)
        assert index.lookup(7.0) == 0
        assert index.upper_bound(7.0) == 64
        assert index.lookup(6.0) == 0
        assert index.lookup(8.0) == 64
        np.testing.assert_array_equal(
            index.lookup_batch(np.array([6.0, 7.0, 8.0])), [0, 0, 64]
        )

    def test_range_returns_whole_run(self, name):
        index = build(name, self.KEYS)
        assert len(index.range_query(7.0, 7.0)) == 64
        result = index.range_query_batch([7.0, 0.0, 8.0], [7.0, 100.0, 9.0])
        assert list(result.counts) == [64, 64, 0]
        assert result.total == 128


@pytest.mark.parametrize("name", ALL_NAMES)
class TestOutOfRangeAndInverted:
    KEYS = list(range(100, 200, 2))

    def test_queries_outside_key_range(self, name):
        index = build(name, self.KEYS)
        n = len(self.KEYS)
        assert index.lookup(-1e12) == 0
        assert index.lookup(1e12) == n
        assert index.upper_bound(-1e12) == 0
        assert index.upper_bound(1e12) == n
        assert not index.contains(99.0)
        assert not index.contains(201.0)
        assert len(index.range_query(0.0, 99.0)) == 0
        assert len(index.range_query(199.0, 500.0)) == 0
        assert len(index.range_query(0.0, 1e12)) == n

    def test_inverted_ranges_are_empty(self, name):
        index = build(name, self.KEYS)
        assert len(index.range_query(150.0, 120.0)) == 0
        result = index.range_query_batch(
            [150.0, 120.0, 1e12], [120.0, 150.0, -1e12]
        )
        assert list(result.counts)[0] == 0
        assert list(result.counts)[2] == 0
        expected = [k for k in self.KEYS if 120 <= k <= 150]
        assert list(result[1]) == expected

    def test_empty_batches(self, name):
        index = build(name, self.KEYS)
        assert index.lookup_batch(np.array([])).size == 0
        assert index.contains_batch(np.array([])).size == 0
        result = index.range_query_batch([], [])
        assert len(result) == 0
        assert result.total == 0
        assert list(result) == []

    def test_mismatched_endpoint_lengths_raise(self, name):
        index = build(name, self.KEYS)
        with pytest.raises(ValueError):
            index.range_query_batch([1.0, 2.0], [3.0])


class TestRangeScanResultContainer:
    def test_indexing_and_iteration(self):
        index = RecursiveModelIndex(
            np.arange(0, 100, dtype=np.int64), stage_sizes=(1, 4)
        )
        result = index.range_query_batch([10.0, 90.0], [12.0, 95.0])
        assert len(result) == 2
        assert list(result[0]) == [10, 11, 12]
        assert list(result[-1]) == [90, 91, 92, 93, 94, 95]
        assert [len(chunk) for chunk in result] == [3, 6]
        assert result.total == 9
        with pytest.raises(IndexError):
            result[2]
        with pytest.raises(IndexError):
            result[-3]
        # starts/ends expose the resolved positions for slice reuse.
        np.testing.assert_array_equal(result.starts, [10, 90])
        np.testing.assert_array_equal(result.ends, [13, 96])


class TestStringIndexEdgeCases:
    @pytest.mark.parametrize("keys", [[], ["only"]])
    def test_empty_and_single(self, keys):
        for index in (
            StringRMI(keys, num_leaves=4),
            BTreeIndex(keys, page_size=8),
        ):
            assert list(index.range_query("a", "z")) == keys
            assert list(index.range_query("z", "a")) == []

    def test_all_duplicate_strings(self):
        keys = ["dup"] * 32
        for index in (
            StringRMI(keys, num_leaves=4),
            BTreeIndex(keys, page_size=8),
        ):
            assert index.lookup("dup") == 0
            assert index.upper_bound("dup") == 32
            assert [
                len(index.range_query(lo, hi))
                for lo, hi in (("a", "z"), ("dup", "dup"), ("e", "f"))
            ] == [32, 32, 0]


class TestWritableEdgeCases:
    def test_empty_writable(self):
        index = WritableLearnedIndex()
        assert list(index.range_query(0, 100)) == []
        assert list(index.range_query(5, 1)) == []

    def test_inverted_and_out_of_range(self):
        index = WritableLearnedIndex(
            np.arange(0, 1_000, 10, dtype=np.int64), merge_threshold=10**9
        )
        index.insert(5)
        index.delete(20)
        assert list(index.range_query(100, 0)) == []  # inverted
        assert list(index.range_query(-500, -100)) == []  # below all keys
        assert list(index.range_query(2_000, 3_000)) == []  # above all keys
        # delta in, tombstone out
        assert list(index.range_query(0, 30)) == [0, 5, 10, 30]

    def test_float_endpoints_match_scalar(self):
        # Fractional endpoints bound the range where they say, against
        # the delta buffer exactly as against the main index: the range
        # read and a bisect oracle over the live keys agree.
        base = list(range(0, 100, 4))
        index = WritableLearnedIndex(
            np.array(base, dtype=np.int64), merge_threshold=10**9
        )
        for key in (5, 3, -1):
            index.insert(key)
        live = sorted(base + [5, 3, -1])
        lows = [0.5, 3.9, 10.0, 5.5, -0.5, 3.5, -5, 2.5]
        highs = [4.0, 8.1, 3.5, 5.2, 4.2, 10, -1.5, 3.0]
        result = [list(index.range_query(lo, hi)) for lo, hi in zip(lows, highs)]
        for i, (lo, hi) in enumerate(zip(lows, highs)):
            expected = live[
                bisect.bisect_left(live, lo):bisect.bisect_right(live, hi)
            ]
            assert result[i] == expected, f"range {i}"
        assert result[0] == [3, 4]     # 0 excluded: 0 < 0.5
        assert result[3] == []         # inverted on the float values
        assert result[5] == [4, 5, 8]  # delta 3 < 3.5
        assert result[6] == []         # delta -1 > -1.5
