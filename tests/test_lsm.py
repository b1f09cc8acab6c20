"""Unit tests for the learned LSM storage engine (Appendix D.1)."""

import numpy as np
import pytest

from repro.lsm import (
    LearnedLSMStore,
    Memtable,
    SizeTieredCompaction,
    SortedRun,
    merge_runs,
)
from repro.range_scan import RangeScanResult, merge_scan_results


# -- memtable ------------------------------------------------------------------

class TestMemtable:
    def test_put_get_delete(self):
        mem = Memtable()
        mem.put(5, 50)
        assert mem.probe(5) == (True, False, 50)
        mem.put(5, 51)
        assert mem.probe(5) == (True, False, 51)
        assert len(mem) == 1
        mem.delete(5)
        assert mem.probe(5) == (True, True, 0)
        assert len(mem) == 1  # the tombstone is an entry
        assert mem.probe(6) == (False, False, 0)

    def test_put_overrides_tombstone(self):
        mem = Memtable()
        mem.delete(9)
        mem.put(9, 90)
        assert mem.probe(9) == (True, False, 90)

    def test_put_batch_last_wins(self):
        mem = Memtable()
        mem.put_batch([3, 1, 3], [30, 10, 31])
        assert mem.probe(3) == (True, False, 31)
        keys, values, dead = mem.entries()
        np.testing.assert_array_equal(keys, [1, 3])
        np.testing.assert_array_equal(values, [10, 31])
        assert not dead.any()

    def test_put_batch_clears_tombstones(self):
        mem = Memtable()
        mem.delete_batch([1, 2, 3])
        mem.put_batch([2, 4], [20, 40])
        keys, values, dead = mem.entries()
        np.testing.assert_array_equal(keys, [1, 2, 3, 4])
        np.testing.assert_array_equal(dead, [True, False, True, False])
        np.testing.assert_array_equal(values, [0, 20, 0, 40])

    def test_sorted_views_track_mutations(self):
        mem = Memtable()
        mem.put_batch([5, 2, 9], [1, 2, 3])
        np.testing.assert_array_equal(mem.entries()[0], [2, 5, 9])
        mem.delete(5)
        keys, _, dead = mem.entries()
        np.testing.assert_array_equal(keys, [2, 5, 9])
        np.testing.assert_array_equal(dead, [False, True, False])
        mem.clear()
        assert all(part.size == 0 for part in mem.entries())

    def test_entries_interleave_tombstones(self):
        mem = Memtable()
        mem.put_batch([2, 8], [20, 80])
        mem.delete(5)
        keys, values, dead = mem.entries()
        np.testing.assert_array_equal(keys, [2, 5, 8])
        np.testing.assert_array_equal(dead, [False, True, False])
        np.testing.assert_array_equal(values, [20, 0, 80])

    def test_entries_are_cached_until_a_write(self):
        mem = Memtable()
        mem.put_batch([4, 1], [40, 10])
        mem.delete(2)
        first = mem.entries()
        assert mem.entries() is first
        mem.probe(4)
        assert mem.entries() is first
        mem.put(3, 30)
        assert mem.entries() is not first

    @pytest.mark.parametrize(
        "write, error",
        [
            (lambda m: m.put_batch(np.array([2.5]), np.array([1])), TypeError),
            (lambda m: m.put_batch(np.array([2]), np.array([1.5])), TypeError),
            (lambda m: m.put_batch(["7"], [1]), TypeError),
            (lambda m: m.delete_batch(np.array([2.0])), TypeError),
            (
                lambda m: m.put_batch(
                    np.array([2**63], dtype=np.uint64), np.array([1])
                ),
                OverflowError,
            ),
            (
                lambda m: m.delete_batch(
                    np.array([1, 2**64 - 5], dtype=np.uint64)
                ),
                OverflowError,
            ),
        ],
    )
    def test_key_contract_refuses_and_buffers_nothing(self, write, error):
        """A float key used to buffer its truncation (2.5 as 2) and a
        uint64 above 2^63 - 1 its wrap onto a negative key."""
        mem = Memtable()
        mem.put(1, 10)
        before = mem.entries()
        with pytest.raises(error):
            write(mem)
        assert len(mem) == 1
        assert mem.entries() is before
        assert mem.probe(2) == (False, False, 0)


# -- sorted runs ---------------------------------------------------------------

class TestSortedRun:
    def test_seal_roundtrip(self):
        """A sealed memtable answers exactly what was buffered."""
        rng = np.random.default_rng(1)
        mem = Memtable()
        keys = rng.choice(10_000, 2_000, replace=False)
        vals = rng.integers(0, 10**6, 2_000)
        mem.put_batch(keys, vals)
        for k in keys[:100]:
            mem.delete(int(k))
        run = SortedRun(*mem.entries())
        hit, dead, got = run.probe_batch(np.sort(keys))
        assert hit.all()
        assert int(dead.sum()) == len(set(keys[:100].tolist()))
        lookup = dict(zip(keys.tolist(), vals.tolist()))
        order = np.argsort(keys)
        expected = np.array([lookup[int(k)] for k in np.sort(keys)])
        live = ~dead
        np.testing.assert_array_equal(got[live], expected[live])

    def test_rejects_unsorted_or_duplicate(self):
        with pytest.raises(ValueError):
            SortedRun(np.array([3, 1]))
        with pytest.raises(ValueError):
            SortedRun(np.array([1, 1]))

    def test_key_contract(self):
        """``2**63`` as uint64 used to wrap to ``-2**63``, and float
        keys to truncate onto their integer neighbours."""
        with pytest.raises(OverflowError):
            SortedRun(np.array([2**63], dtype=np.uint64))
        with pytest.raises(TypeError):
            SortedRun(np.array([0.5, 1.5]))
        with pytest.raises(TypeError):
            SortedRun(np.array([1, 2]), np.array([1.5, 2.5]))
        dead = np.zeros(1, dtype=bool)
        with pytest.raises(TypeError):
            SortedRun.from_arrays(np.array([2.5]), np.array([1]), dead)
        with pytest.raises(OverflowError):
            SortedRun.from_arrays(
                np.array([2**63], dtype=np.uint64), np.array([1]), dead
            )
        top = np.array([2**63 - 1], dtype=np.uint64)
        assert SortedRun(top).keys.tolist() == [2**63 - 1]

    def test_bloom_has_no_false_negatives(self):
        keys = np.arange(0, 50_000, 7, dtype=np.int64)
        run = SortedRun(keys)
        assert run.bloom_contains_batch(keys).all()

    def test_bloom_rejects_most_absent(self):
        keys = np.arange(0, 50_000, 7, dtype=np.int64)
        run = SortedRun(keys)
        absent = np.arange(1, 50_000, 7, dtype=np.int64)
        assert run.bloom_contains_batch(absent).mean() < 0.05

    def test_range_scan_flags_tombstones(self):
        keys = np.arange(10, dtype=np.int64)
        dead = np.zeros(10, dtype=bool)
        dead[3] = dead[7] = True
        run = SortedRun(keys, tombstones=dead)
        result, flags = run.range_scan_batch([0.0, 6.0], [5.0, 20.0])
        np.testing.assert_array_equal(result[0], [0, 1, 2, 3, 4, 5])
        np.testing.assert_array_equal(
            flags[:6], [False, False, False, True, False, False]
        )


# -- compaction ----------------------------------------------------------------

def _run(keys, dead=()):
    keys = np.asarray(keys, dtype=np.int64)
    mask = np.isin(keys, np.asarray(list(dead), dtype=np.int64))
    return SortedRun(keys, tombstones=mask)


class TestMergeRuns:
    def test_newest_wins(self):
        new = SortedRun(np.array([1, 5]), np.array([100, 500]))
        old = SortedRun(np.array([1, 9]), np.array([-1, 900]))
        merged = merge_runs([new, old], drop_tombstones=False)
        np.testing.assert_array_equal(merged.keys, [1, 5, 9])
        np.testing.assert_array_equal(merged.values, [100, 500, 900])

    def test_tombstone_shadows_older_key(self):
        new = _run([5], dead=[5])
        old = _run([1, 5])
        kept = merge_runs([new, old], drop_tombstones=False)
        np.testing.assert_array_equal(kept.keys, [1, 5])
        assert kept.tombstones[1]  # marker survives for deeper runs
        gc = merge_runs([new, old], drop_tombstones=True)
        np.testing.assert_array_equal(gc.keys, [1])
        assert gc.num_tombstones == 0

    def test_put_resurrects_tombstoned_key(self):
        newest = _run([5])           # re-insert
        middle = _run([5], dead=[5])  # older delete
        oldest = _run([5, 6])
        merged = merge_runs([newest, middle, oldest], drop_tombstones=True)
        np.testing.assert_array_equal(merged.keys, [5, 6])

    def test_merged_run_filter_has_no_false_negatives(self):
        """The merge output builds its own filter at the store's one
        false-positive rate: every merged key passes, most absent
        keys do not."""
        new = _run(np.arange(0, 30_000, 6))
        old = _run(np.arange(3, 30_000, 6))
        merged = merge_runs([new, old], drop_tombstones=True)
        assert merged.bloom_contains_batch(merged.keys).all()
        absent = np.arange(1, 30_000, 3, dtype=np.int64)
        assert merged.bloom_contains_batch(absent).mean() < 0.05


class TestPolicies:
    def test_size_tiered_waits_for_min_runs(self):
        policy = SizeTieredCompaction(min_runs=4)
        runs = [_run(np.arange(100)) for _ in range(3)]
        assert policy.select(runs) is None
        runs.insert(0, _run(np.arange(100)))
        assert policy.select(runs) == (0, 4, 0)

    def test_size_tiered_ignores_mixed_buckets(self):
        policy = SizeTieredCompaction(min_runs=2)
        runs = [_run(np.arange(100)), _run(np.arange(10_000))]
        assert policy.select(runs) is None

    def test_size_tiered_backstop_bounds_run_count(self):
        """Alternating buckets can never form a streak; the max_runs
        backstop must still merge the oldest window (regression for a
        degenerate workload that stranded hundreds of runs)."""
        policy = SizeTieredCompaction(min_runs=2, max_runs=4)
        runs = [
            _run(np.arange(100 if i % 2 else 10_000)) for i in range(4)
        ]
        assert policy.select(runs) == (2, 4, 0)
        # And end-to-end: a confined keyspace with heavy deletes keeps
        # the run count bounded by the backstop.
        rng = np.random.default_rng(6)
        store = LearnedLSMStore(
            memtable_capacity=7,
            compaction=SizeTieredCompaction(min_runs=2, max_runs=8),
        )
        for _ in range(1_500):
            if rng.random() < 0.5:
                store.insert(int(rng.integers(0, 500)))
            else:
                store.delete(int(rng.integers(0, 500)))
        store.wait_for_compaction()
        assert store.num_runs < 8

    @pytest.mark.parametrize("durable", [False, True], ids=["memory", "durable"])
    def test_seal_cascades_only_in_memory(self, tmp_path, durable):
        """A seal whose first merge completes a second same-bucket
        streak cascades through both merges in memory; a durable seal
        stops after one window, so an fsynced ack never waits on a
        cascade (the next seal picks the second merge up)."""
        with LearnedLSMStore(
            memtable_capacity=1_000,
            compaction=SizeTieredCompaction(min_runs=2),
            path=str(tmp_path / "db") if durable else None,
            background=False,
        ) as store:
            for start, count in ((0, 40), (100, 10)):
                store.insert_batch(np.arange(start, start + count))
                store.flush()
            # Buckets 1 and 2 (base 4): a stable layout.
            assert [len(run) for run in store.runs] == [10, 40]
            assert store.write_stats.compactions == 0
            store.insert_batch(np.arange(200, 208))
            store.flush()  # 8 + 10 keys merge up into the 40-key bucket
            expected = [18, 40] if durable else [58]
            assert [len(run) for run in store.runs] == expected
            assert store.write_stats.compactions == (1 if durable else 2)
            everything = np.concatenate([
                np.arange(0, 40), np.arange(100, 110), np.arange(200, 208),
            ])
            assert store.contains_batch(everything).all()


# -- the store -----------------------------------------------------------------

@pytest.fixture(params=["memory", "durable"])
def make_store(request, tmp_path):
    """``LearnedLSMStore`` factory: each case runs memory-only (a seal
    cascades its merges) and durable (runs on disk, one merge window
    per seal).  Every store made is closed at teardown."""
    stores = []

    def make(*args, **kwargs):
        if request.param == "durable":
            kwargs["path"] = str(tmp_path / f"db{len(stores)}")
        store = LearnedLSMStore(*args, **kwargs)
        stores.append(store)
        return store

    yield make
    for store in stores:
        store.close()


class TestLearnedLSMStore:
    def test_bulk_load_then_read(self, make_store):
        keys = np.arange(0, 30_000, 3, dtype=np.int64)
        store = make_store(keys)
        assert store.num_runs == 1
        assert store.lookup(300) == 300
        assert store.lookup(301) is None
        np.testing.assert_array_equal(
            store.range_query(10, 20), [12, 15, 18]
        )
        assert len(store) == keys.size

    def test_values_roundtrip(self, make_store):
        store = make_store(memtable_capacity=100)
        rng = np.random.default_rng(5)
        keys = rng.choice(10**6, 1_000, replace=False)
        vals = rng.integers(0, 10**9, 1_000)
        store.insert_batch(keys, vals)
        values, found = store.lookup_batch(keys)
        assert found.all()
        np.testing.assert_array_equal(values, vals)

    def test_seal_fires_at_capacity(self, make_store):
        store = make_store(memtable_capacity=64)
        for k in range(200):
            store.insert(k)
        assert store.write_stats.seals >= 2
        assert len(store.memtable) < 64
        assert store.contains(0) and store.contains(199)

    def test_delete_shadows_sealed_key(self, make_store):
        store = make_store(
            np.arange(1_000, dtype=np.int64),
            memtable_capacity=10**9,
        )
        store.delete(500)
        assert not store.contains(500)
        assert store.lookup(500) is None
        assert 500 not in store.range_query(490, 510)
        assert len(store) == 999

    def test_tombstone_resurrection(self, make_store):
        store = make_store(
            np.arange(100, dtype=np.int64),
            memtable_capacity=4,
        )
        store.delete(50)
        store.flush()
        assert not store.contains(50)
        store.insert(50, 5050)
        store.flush()
        assert store.contains(50)
        assert store.lookup(50) == 5050

    def test_full_compaction_garbage_collects(self, make_store):
        store = make_store(memtable_capacity=32)
        store.insert_batch(np.arange(500, dtype=np.int64))
        for k in range(0, 500, 2):
            store.delete(k)
        store.compact()
        assert store.num_runs == 1
        assert store.runs[0].num_tombstones == 0
        assert len(store.runs[0]) == 250
        np.testing.assert_array_equal(
            store.runs[0].keys, np.arange(1, 500, 2)
        )

    def test_bloom_short_circuits_negative_probes(self):
        """On a many-run store, absent-key reads mostly skip the RMIs."""
        rng = np.random.default_rng(9)
        store = LearnedLSMStore(
            memtable_capacity=2_000,
            compaction=SizeTieredCompaction(min_runs=32),  # keep runs
        )
        for _ in range(10):
            store.insert_batch(rng.integers(0, 10**9, 2_000))
        assert store.num_runs == 10
        absent = rng.integers(2 * 10**9, 3 * 10**9, 5_000)
        store.read_stats.reset()
        _, found = store.lookup_batch(absent)
        assert not found.any()
        stats = store.read_stats
        assert stats.bloom_rejects + stats.probe_misses == 10 * 5_000
        assert stats.negative_probes_eliminated >= 0.8

    def test_small_sub_batches_are_probed_without_the_filter(self):
        """A 4-key lookup costs less to probe than to filter, so the
        runs are probed unguarded; a 50 000-key lookup of the same
        absent keys is filtered as ever.  Same answers, and the
        filter's own accounting only ever describes the filter."""
        rng = np.random.default_rng(21)
        store = LearnedLSMStore(
            memtable_capacity=2_000,
            compaction=SizeTieredCompaction(min_runs=32),  # keep runs
        )
        for _ in range(3):
            store.insert_batch(rng.integers(0, 10**9, 2_000))
        assert store.num_runs == 3
        absent = rng.integers(2 * 10**9, 3 * 10**9, 50_000)
        stats = store.read_stats

        stats.reset()
        few_values, few_found = store.lookup_batch(absent[:4])
        assert stats.unguarded_probes == stats.run_probes == 3 * 4
        assert stats.bloom_rejects == stats.probe_misses == 0
        assert stats.negative_probes_eliminated == 0.0

        stats.reset()
        values, found = store.lookup_batch(absent)
        np.testing.assert_array_equal(values[:4], few_values)
        np.testing.assert_array_equal(found[:4], few_found)
        assert not found.any()
        assert stats.unguarded_probes == 0
        # what the filters themselves say, run by run
        passed = sum(
            int(run.bloom_contains_batch(absent).sum()) for run in store.runs
        )
        assert stats.probe_misses == stats.run_probes == passed
        assert stats.bloom_rejects == 3 * absent.size - passed
        assert stats.negative_probes_eliminated == pytest.approx(
            1 - passed / (3 * absent.size)
        )
        assert stats.negative_probes_eliminated >= 0.95

    def test_read_short_circuits_on_newest_hit(self, make_store):
        store = make_store(
            memtable_capacity=100,
            compaction=SizeTieredCompaction(min_runs=100),
        )
        store.insert_batch(np.arange(100, dtype=np.int64))   # older run
        store.insert_batch(np.arange(100, dtype=np.int64))   # newer run
        assert store.num_runs == 2
        store.read_stats.reset()
        _, found = store.lookup_batch(np.arange(100, dtype=np.int64))
        assert found.all()
        # Every query resolved in the newest run: one probe each.
        assert store.read_stats.run_probes == 100

    def test_write_amplification_metered(self, make_store):
        store = make_store(memtable_capacity=256)
        rng = np.random.default_rng(3)
        for _ in range(40):
            store.insert_batch(rng.integers(0, 10**8, 200))
        store.wait_for_compaction()
        wa = store.write_stats.write_amplification
        assert wa >= 1.0
        assert wa < 30.0

    @pytest.mark.parametrize(
        "policy", ["size_tiered", "leveled", object()],
        ids=["size_tiered", "leveled", "object"],
    )
    def test_unknown_policy_rejected(self, policy):
        with pytest.raises(TypeError, match="SizeTieredCompaction"):
            LearnedLSMStore(compaction=policy)

    def test_empty_store(self, make_store):
        store = make_store()
        assert len(store) == 0
        assert store.lookup(5) is None
        values, found = store.lookup_batch([1, 2, 3])
        assert not found.any()
        assert store.range_query(0, 10).size == 0
        result = store.range_query_batch([0], [10])
        assert len(result) == 1 and result.total == 0


# -- the multi-source merge helper ---------------------------------------------

def _rsr(values, offsets):
    return RangeScanResult(
        values=np.asarray(values, dtype=np.int64),
        offsets=np.asarray(offsets, dtype=np.int64),
    )


class TestMergeScanResults:
    def test_interleaves_sorted(self):
        a = _rsr([1, 5], [0, 2])
        b = _rsr([2, 9], [0, 2])
        merged = merge_scan_results([a, b])
        np.testing.assert_array_equal(merged[0], [1, 2, 5, 9])

    def test_dedup_keeps_newest_source(self):
        a = _rsr([5], [0, 1])
        b = _rsr([5], [0, 1])
        merged = merge_scan_results([a, b])
        np.testing.assert_array_equal(merged[0], [5])

    def test_drop_mask_shadows_older_sources(self):
        newest = _rsr([5], [0, 1])
        oldest = _rsr([5, 6], [0, 2])
        merged = merge_scan_results(
            [newest, oldest],
            drop_masks=[np.array([True]), None],
        )
        np.testing.assert_array_equal(merged[0], [6])

    def test_per_range_independence(self):
        a = _rsr([1, 1], [0, 1, 2])   # key 1 in both ranges
        b = _rsr([1], [0, 0, 1])      # key 1 only in range 1
        merged = merge_scan_results([a, b])
        np.testing.assert_array_equal(merged[0], [1])
        np.testing.assert_array_equal(merged[1], [1])

    def test_mismatched_ranges_rejected(self):
        with pytest.raises(ValueError):
            merge_scan_results([_rsr([], [0]), _rsr([], [0, 0])])

    def test_empty_sources(self):
        merged = merge_scan_results([])
        assert len(merged) == 0


# -- range_items_batch (ISSUE 5 satellite) -------------------------------------

class TestRangeItemsBatch:
    """(key, value) range reads: the merge_scan_results payload gather."""

    def build(self):
        rng = np.random.default_rng(0x17EB5)
        keys = np.unique(rng.integers(0, 20_000, 1_500)).astype(np.int64)
        store = LearnedLSMStore(
            keys, values=keys * 3, memtable_capacity=120
        )
        truth = {int(k): int(k) * 3 for k in keys}
        # Overwrites across runs (newest wins), deletes, and fresh keys
        # still buffered in the memtable.
        for k in keys[::5].tolist():
            store.insert(k, k + 7)
            truth[k] = k + 7
        for k in keys[1::9].tolist():
            store.delete(k)
            truth.pop(k, None)
        for k in range(20_001, 20_040):
            store.insert(k, k * 2)
            truth[k] = k * 2
        return store, truth

    def test_items_match_oracle(self):
        store, truth = self.build()
        rng = np.random.default_rng(3)
        lows = rng.integers(-10, 20_050, 60)
        highs = lows + rng.integers(-20, 500, 60)
        result, values = store.range_items_batch(lows, highs)
        keys_only = store.range_query_batch(lows, highs)
        np.testing.assert_array_equal(result.offsets, keys_only.offsets)
        np.testing.assert_array_equal(result.values, keys_only.values)
        assert values.size == result.total
        for j, key in enumerate(np.asarray(result.values).tolist()):
            assert values[j] == truth[key], (j, key)

    def test_items_empty_batch(self):
        store, _ = self.build()
        result, values = store.range_items_batch([], [])
        assert len(result) == 0
        assert values.size == 0

    def test_items_inverted_and_empty_ranges(self):
        store, _ = self.build()
        result, values = store.range_items_batch([500, 100], [400, 100 - 1])
        assert result.total == 0
        assert values.size == 0

    def test_run_level_value_gather(self):
        keys = np.array([1, 3, 5, 9], dtype=np.int64)
        run = SortedRun(keys, values=keys * 10)
        result, flags, values = run.range_scan_batch(
            np.array([0, 4]), np.array([5, 9]), with_values=True
        )
        np.testing.assert_array_equal(result.values, [1, 3, 5, 5, 9])
        np.testing.assert_array_equal(values, [10, 30, 50, 50, 90])
        assert not flags.any()

    def test_merge_scan_results_payloads(self):
        newer = _rsr([5, 7], [0, 2])
        older = _rsr([5, 8], [0, 2])
        merged, payloads = merge_scan_results(
            [newer, older],
            payloads=[np.array([50, 70]), np.array([-5, 80])],
        )
        np.testing.assert_array_equal(merged.values, [5, 7, 8])
        np.testing.assert_array_equal(payloads, [50, 70, 80])

    def test_merge_scan_results_payload_length_mismatch(self):
        source = _rsr([5, 7], [0, 2])
        with pytest.raises(ValueError):
            merge_scan_results([source], payloads=[np.array([1])])


class TestMemtableEndpointExactness:
    """Regression: memtable-resident data must resolve float range
    endpoints through the query core exactly like run-resident data
    (a raw searchsorted promoted the int64 snapshot to float64, so
    2^53+1 fell inside the range [2^53, 2^53])."""

    def test_buffered_and_sealed_answers_match(self):
        key = 2**53 + 1
        store = LearnedLSMStore(memtable_capacity=10**9)
        store.insert(key)
        lows, highs = [float(2**53)], [float(2**53)]
        buffered = store.range_query_batch(lows, highs)
        assert list(buffered[0]) == []
        assert list(store.range_query_batch([key], [key])[0]) == [key]
        items, _values = store.range_items_batch(lows, highs)
        assert items.total == 0
        store.flush()
        sealed = store.range_query_batch(lows, highs)
        assert list(sealed[0]) == list(buffered[0])

    def test_reads_never_rematerialize_the_seal_layout(self):
        """Reads with no write between them share the memtable's one
        cached run-layout triple, and ``flush()`` seals exactly that
        triple: the run adopts its arrays, with no second sort."""
        store = LearnedLSMStore(np.arange(0, 100, 2), memtable_capacity=10**9)
        store.insert_batch([1, 3, 4], [10, 30, 40])
        store.delete_batch([4, 6])
        triple = store.memtable.entries()
        values, found = store.lookup_batch([1, 4, 6, 8])
        assert found.tolist() == [True, False, False, True]
        assert values.tolist() == [10, 0, 0, 8]
        assert list(store.range_query_batch([0], [8])[0]) == [0, 1, 2, 3, 8]
        items, payloads = store.range_items_batch([0], [8])
        assert list(items[0]) == [0, 1, 2, 3, 8]
        assert payloads.tolist() == [0, 10, 2, 30, 8]
        assert store.lookup(3) == 30 and store.lookup(6) is None
        with store.snapshot() as snap:
            assert snap.mem is triple
            assert snap.lookup_batch([3, 6])[1].tolist() == [True, False]
            assert list(snap.range_query_batch([5], [9])[0]) == [8]
        assert list(store.live_keys()[:6]) == [0, 1, 2, 3, 8, 10]
        assert store.memtable.entries() is triple
        store.flush()
        sealed = store.runs[0]
        for stored, buffered in zip(
            (sealed.keys, sealed.values, sealed.tombstones), triple
        ):
            assert np.shares_memory(stored, buffered)
            np.testing.assert_array_equal(stored, buffered)


# -- compaction no-progress guard (ISSUE 7) ------------------------------------

class _BoundedSelects:
    """Mixin: fail the test (instead of hanging it) if the store
    consults ``select`` more than ``limit`` times — the signature an
    unguarded compaction loop leaves behind."""

    limit = 200

    def __init__(self):
        self.calls = 0

    def _metered(self):
        self.calls += 1
        assert self.calls <= self.limit, (
            "compaction loop failed to terminate: policy.select was "
            f"consulted {self.calls} times for one seal"
        )


class _SelfWindowPolicy(_BoundedSelects, SizeTieredCompaction):
    """Always re-selects the newest run onto its own level — a pure
    no-op window that re-runs ``policy.select`` without ever changing
    the layout."""

    def __init__(self):
        _BoundedSelects.__init__(self)

    def select(self, runs):
        self._metered()
        if not runs:
            return None
        return 0, 1, runs[0].level


class _LevelOscillator(_BoundedSelects, SizeTieredCompaction):
    """Bounces the newest run between levels 0 and 1 forever: each
    selection is individually 'productive' (the level changes), but
    the second bounce reproduces an earlier (layout, selection)
    signature exactly — only the signature guard can stop it."""

    def __init__(self):
        _BoundedSelects.__init__(self)

    def select(self, runs):
        self._metered()
        if not runs:
            return None
        return 0, 1, 1 - runs[0].level


class TestCompactionTermination:
    def test_self_window_policy_terminates(self):
        policy = _SelfWindowPolicy()
        store = LearnedLSMStore(
            memtable_capacity=4, compaction=policy, background=False
        )
        store.insert_batch(np.arange(8, dtype=np.int64))
        assert store.num_runs >= 1
        assert policy.calls <= policy.limit
        # Correctness untouched by the rejected windows:
        _, found = store.lookup_batch(np.arange(8, dtype=np.int64))
        assert found.all()

    def test_oscillating_policy_terminates(self):
        policy = _LevelOscillator()
        store = LearnedLSMStore(
            memtable_capacity=4, compaction=policy, background=False
        )
        store.insert_batch(np.arange(8, dtype=np.int64))
        assert policy.calls <= policy.limit
        _, found = store.lookup_batch(np.arange(8, dtype=np.int64))
        assert found.all()

    def test_self_window_with_droppable_tombstones_is_progress(self):
        """The single-run exemption: when the window is the whole list
        and carries tombstones, re-merging it GCs them — that is real
        progress, must happen exactly once, and must not retrigger."""
        policy = _SelfWindowPolicy()
        store = LearnedLSMStore(
            memtable_capacity=4, compaction=policy, background=False
        )
        keys = np.arange(4, dtype=np.int64)
        dead = np.array([True, True, False, False])
        store.runs = [SortedRun(keys, keys * 2, dead)]
        store._compact(None)
        assert policy.calls <= policy.limit
        assert store.num_runs == 1
        assert store.runs[0].num_tombstones == 0  # the GC merge ran
        assert store.write_stats.compactions == 1  # ...exactly once
        _, found = store.lookup_batch(keys)
        assert not found[:2].any() and found[2:].all()

    @staticmethod
    def _bad_policy():
        class Bad(_BoundedSelects, SizeTieredCompaction):
            def __init__(self):
                _BoundedSelects.__init__(self)

            def select(self, runs):
                self._metered()
                return 0, len(runs) + 1, 0

        return Bad()

    def test_invalid_selection_rejected(self):
        store = LearnedLSMStore(
            memtable_capacity=4,
            compaction=self._bad_policy(),
            background=False,
        )
        with pytest.raises(ValueError, match="invalid window"):
            store.insert_batch(np.arange(8, dtype=np.int64))

    def test_invalid_selection_rejected_background(self):
        """On the worker thread the same guard trips, sticks, and
        re-raises at the synchronization point instead of vanishing
        into a dead daemon."""
        store = LearnedLSMStore(
            memtable_capacity=4,
            compaction=self._bad_policy(),
            background=True,
        )
        store.insert_batch(np.arange(8, dtype=np.int64))
        with pytest.raises(ValueError, match="invalid window"):
            store.wait_for_compaction()
