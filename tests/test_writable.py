"""Unit tests for the writable learned index (Appendix D.1)."""

import bisect

import numpy as np
import pytest

from repro.core import WritableLearnedIndex
from repro.data import lognormal_keys


@pytest.fixture()
def base_keys():
    return lognormal_keys(20_000, seed=33)


class TestConstruction:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            WritableLearnedIndex(np.array([3, 1]))

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            WritableLearnedIndex(merge_threshold=0)

    def test_empty_start(self):
        index = WritableLearnedIndex()
        assert len(index) == 0
        assert not index.contains(5)

    def test_empty_index_reads(self):
        index = WritableLearnedIndex()
        for key in (-1, 0, 1, 2**62):
            assert index.lookup(key) == 0
            assert index.upper_bound(key) == 0
            assert not index.contains(key)
        assert index.range_query(0, 10).size == 0
        assert index.range_query(10, 0).size == 0


class TestInsert:
    def test_insert_then_contains(self, base_keys):
        index = WritableLearnedIndex(base_keys, stage_sizes=(1, 64))
        new_key = int(base_keys.max()) + 1000
        assert not index.contains(new_key)
        index.insert(new_key)
        assert index.contains(new_key)
        assert len(index) == base_keys.size + 1

    def test_duplicate_insert_idempotent(self, base_keys):
        index = WritableLearnedIndex(base_keys, stage_sizes=(1, 64))
        index.insert(int(base_keys[0]))  # already in main
        assert len(index) == base_keys.size
        index.insert(999_999_999_999)
        index.insert(999_999_999_999)
        assert len(index) == base_keys.size + 1

    def test_reads_see_both_sides(self, base_keys):
        index = WritableLearnedIndex(
            base_keys, stage_sizes=(1, 64), merge_threshold=10**9
        )
        top = int(base_keys.max())
        inserted = [top + 10, top + 20]
        index.insert_batch(inserted)
        assert index.delta_size == 2
        for key in inserted:
            assert index.contains(key)
        assert index.contains(int(base_keys[0]))

    def test_auto_merge_at_threshold(self, base_keys):
        index = WritableLearnedIndex(
            base_keys, stage_sizes=(1, 64), merge_threshold=50
        )
        rng = np.random.default_rng(0)
        for key in rng.integers(0, base_keys.max(), size=120):
            index.insert(int(key))
        assert index.merges >= 2
        assert index.delta_size < 50

    def test_insert_batch_merges_at_most_once(self, base_keys):
        """A bulk load lands the whole batch, then merges once."""
        index = WritableLearnedIndex(
            base_keys, stage_sizes=(1, 64), merge_threshold=50
        )
        rng = np.random.default_rng(0)
        fresh = rng.integers(0, base_keys.max(), size=120)
        index.insert_batch(fresh)
        assert index.merges == 1
        assert index.delta_size == 0
        for key in np.unique(fresh):
            assert index.contains(int(key))


class TestDelete:
    def test_delete_from_main(self, base_keys):
        index = WritableLearnedIndex(base_keys, stage_sizes=(1, 64))
        victim = int(base_keys[777])
        assert index.delete(victim)
        assert not index.contains(victim)
        assert len(index) == base_keys.size - 1

    def test_delete_from_delta(self, base_keys):
        index = WritableLearnedIndex(
            base_keys, stage_sizes=(1, 64), merge_threshold=10**9
        )
        key = int(base_keys.max()) + 5
        index.insert(key)
        assert index.delete(key)
        assert not index.contains(key)

    def test_delete_absent(self, base_keys):
        index = WritableLearnedIndex(base_keys, stage_sizes=(1, 64))
        assert not index.delete(int(base_keys.max()) + 123)

    def test_reinsert_after_delete(self, base_keys):
        index = WritableLearnedIndex(base_keys, stage_sizes=(1, 64))
        victim = int(base_keys[123])
        index.delete(victim)
        index.insert(victim)
        assert index.contains(victim)
        assert len(index) == base_keys.size

    def test_tombstones_fold_into_merge(self, base_keys):
        index = WritableLearnedIndex(base_keys, stage_sizes=(1, 64))
        victims = [int(base_keys[i]) for i in (5, 500, 5_000)]
        for victim in victims:
            index.delete(victim)
        index.merge()
        for victim in victims:
            assert not index.contains(victim)
        assert index._main.keys.size == base_keys.size - 3


def delta_and_tombstones():
    """A main index with an unmerged delta and tombstones over both
    sides, plus the sorted live keys it must answer for."""
    base = np.arange(0, 4_000, 4, dtype=np.int64)
    index = WritableLearnedIndex(base, merge_threshold=10_000)
    live = set(base.tolist())
    for k in range(1, 600, 6):
        index.insert(k)
        live.add(k)
    for k in range(0, 1_200, 8):
        index.delete(k)
        live.discard(k)
    assert index.delta_size > 0
    return index, sorted(live)


class TestPointReads:
    def test_reads_with_delta_and_tombstones(self):
        index, live = delta_and_tombstones()
        members = set(live)
        for q in range(-10, 4_020):
            assert index.lookup(q) == bisect.bisect_left(live, q), q
            assert index.upper_bound(q) == bisect.bisect_right(live, q), q
            assert index.contains(q) == (q in members), q


class TestRangeQueries:
    def test_ranges_with_delta_and_tombstones(self):
        """Wide, narrow, single-key and reversed ranges over a main
        index whose delta and tombstones are not yet merged."""
        index, live = delta_and_tombstones()
        lows = np.arange(-10, 4_010, 97, dtype=np.int64)
        highs = lows + np.tile([0, -5, 50, 400], lows.size)[: lows.size]
        for lo, hi in zip(lows.tolist(), highs.tolist()):
            want = live[bisect.bisect_left(live, lo):bisect.bisect_right(live, hi)]
            assert index.range_query(lo, hi).tolist() == want, (lo, hi)

    def test_merged_view(self, base_keys):
        index = WritableLearnedIndex(
            base_keys, stage_sizes=(1, 64), merge_threshold=10**9
        )
        lo, hi = int(base_keys[1000]), int(base_keys[1100])
        inside = lo + 1
        while inside in set(base_keys[1000:1101].tolist()):
            inside += 1
        index.insert(inside)
        deleted = int(base_keys[1050])
        index.delete(deleted)
        hits = index.range_query(lo, hi)
        assert inside in hits
        assert deleted not in hits
        assert np.all(np.diff(hits) > 0)

    def test_matches_reference_after_workload(self, base_keys):
        rng = np.random.default_rng(4)
        index = WritableLearnedIndex(
            base_keys, stage_sizes=(1, 64), merge_threshold=200
        )
        reference = set(base_keys.tolist())
        for _ in range(500):
            if rng.random() < 0.6:
                key = int(rng.integers(0, base_keys.max() * 2))
                index.insert(key)
                reference.add(key)
            else:
                key = int(rng.choice(sorted(reference)))
                index.delete(key)
                reference.discard(key)
        # Batch inserts interleaved with deletes: each batch resurrects
        # tombstoned main keys and repeats delta, live-main and fresh
        # keys, which must all land exactly as a scalar insert loop.
        main = base_keys.tolist()
        for _ in range(40):
            gone = [int(k) for k in rng.choice(main, 6)]
            gone.append(int(rng.choice(sorted(reference))))
            for key in gone:
                assert index.delete(key) == (key in reference)
                reference.discard(key)
            batch = gone[: int(rng.integers(1, 8))] + [
                int(k) for k in rng.integers(0, base_keys.max() * 2, 4)
            ]
            batch += [int(rng.choice(sorted(reference))), batch[0]]
            index.insert_batch(np.array(batch))
            reference.update(batch)
            for key in gone + batch:
                assert index.contains(key) == (key in reference), key
        lo, hi = sorted(
            (int(rng.integers(0, base_keys.max())),
             int(rng.integers(0, base_keys.max())))
        )
        expected = np.array(
            sorted(k for k in reference if lo <= k <= hi), dtype=np.int64
        )
        np.testing.assert_array_equal(index.range_query(lo, hi), expected)
        assert len(index) == len(reference)


class TestAppendFastPath:
    def test_appends_skip_retraining(self):
        keys = np.arange(0, 100_000, 5, dtype=np.int64)
        index = WritableLearnedIndex(
            keys, stage_sizes=(1, 64), merge_threshold=500
        )
        retrains_before = index.retrains
        # append keys continuing the same linear pattern
        appended = np.arange(100_000, 110_000, 5, dtype=np.int64)
        index.insert_batch(appended)
        index.merge()
        assert index.fast_appends >= 1
        assert index.retrains == retrains_before
        # correctness after the fast path
        for key in appended[::97]:
            assert index.contains(int(key))
        assert index.contains(int(keys[123]))
        assert not index.contains(3)

    def test_distribution_shift_forces_retrain(self):
        keys = np.arange(0, 100_000, 5, dtype=np.int64)
        index = WritableLearnedIndex(
            keys, stage_sizes=(1, 64), merge_threshold=10**9
        )
        retrains_before = index.retrains
        # appended keys wildly off the learned pattern
        shifted = np.arange(10**9, 10**9 + 2_000_000, 1_000, dtype=np.int64)
        index.insert_batch(shifted)
        index.merge()
        assert index.retrains > retrains_before
        for key in shifted[::199]:
            assert index.contains(int(key))


class TestKeyContract:
    """Writes take keys under the LSM store's key contract: a
    non-integer is a ``TypeError``, a key outside int64 an
    ``OverflowError``, and a refused call changes nothing."""

    REFUSED = {
        "insert(7.9)": (lambda w: w.insert(7.9), TypeError),
        "insert(7.0)": (lambda w: w.insert(7.0), TypeError),
        "insert('7')": (lambda w: w.insert("7"), TypeError),
        "insert(2**63)": (lambda w: w.insert(2**63), OverflowError),
        "delete(4.9)": (lambda w: w.delete(4.9), TypeError),
        "delete(-2**63-1)": (lambda w: w.delete(-(2**63) - 1), OverflowError),
        "insert_batch(float)": (
            lambda w: w.insert_batch(np.array([2.5, 6.0])), TypeError
        ),
        "insert_batch(uint64 2**63)": (
            lambda w: w.insert_batch(np.array([2**63], dtype=np.uint64)),
            OverflowError,
        ),
        "insert_batch(uint64 2**64-5)": (
            lambda w: w.insert_batch(
                np.array([5, 2**64 - 5], dtype=np.uint64)
            ),
            OverflowError,
        ),
    }

    @pytest.mark.parametrize("case", sorted(REFUSED))
    def test_refused_write_changes_nothing(self, case):
        call, error = self.REFUSED[case]
        index = WritableLearnedIndex(
            np.arange(0, 100, 4, dtype=np.int64), merge_threshold=10**9
        )
        index.insert(3)
        index.insert(-1)
        index.delete(8)
        everything = (-(2**63), 2**63 - 1)
        before = index.range_query(*everything).copy()
        with pytest.raises(error):
            call(index)
        np.testing.assert_array_equal(index.range_query(*everything), before)
        assert (len(index), index.delta_size) == (before.size, 2)

    @pytest.mark.parametrize(
        "keys, error",
        [
            (np.array([2**63], dtype=np.uint64), OverflowError),
            # Several keys: not a misleading "unsorted" error.
            (np.array([5, 2**63], dtype=np.uint64), OverflowError),
            (np.array([1.0, 2.0]), TypeError),
        ],
        ids=["uint64 2**63", "uint64 5, 2**63", "float"],
    )
    def test_constructor_refuses(self, keys, error):
        with pytest.raises(error):
            WritableLearnedIndex(keys)

    def test_uint64_keys_inside_int64_are_keys(self):
        index = WritableLearnedIndex(np.array([1, 5], dtype=np.uint64))
        index.insert_batch(np.array([9], dtype=np.uint64))
        assert list(index.range_query(0, 10)) == [1, 5, 9]
