"""Unit tests for the learned LSM storage engine (Appendix D.1)."""

import numpy as np
import pytest

from repro.dispatch import ORDERED_SEARCH_MIN_KEYS
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
        assert policy.select(runs) == (0, 4)

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
        assert policy.select(runs) == (2, 4)
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

    def test_every_window_shortens_the_run_list(self):
        """Every window holds at least ``min_runs`` >= 2 runs, so a
        drain ends within as many merges as there are runs, even when
        merged outputs shrink back a bucket (tombstone GC)."""
        rng = np.random.default_rng(48)
        for _ in range(300):
            low = int(rng.integers(2, 5))
            high = int(rng.integers(low, 3 * low))
            policy = SizeTieredCompaction(min_runs=low, max_runs=high)
            # ``select`` reads only each run's length: a range stands in.
            sizes = rng.integers(1, 5_000, rng.integers(1, 40))
            runs = [range(n) for n in sizes]
            for _ in range(len(runs)):
                if (selection := policy.select(runs)) is None:
                    break
                start, stop = selection
                assert 0 <= start and stop <= len(runs)
                assert stop - start >= low
                total = sum(map(len, runs[start:stop]))
                runs[start:stop] = [range(rng.integers(1, total + 1))]
            assert policy.select(runs) is None

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
    def test_seal_fires_at_capacity(self, make_store):
        store = make_store(memtable_capacity=64)
        for k in range(200):
            store.insert(k)
        assert store.write_stats.seals >= 2
        assert len(store.memtable) < 64
        assert store.contains(0) and store.contains(199)

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

    def test_merges_never_outnumber_the_runs_they_remove(self, make_store):
        """Each seal adds one run and each merge removes at least one,
        over puts and deletes whose merges shrink back a bucket."""
        store = make_store(
            memtable_capacity=4, compaction=SizeTieredCompaction(min_runs=2)
        )
        rng = np.random.default_rng(8)
        oracle = {}
        for _ in range(60):
            keys = rng.integers(0, 40, 4)
            if rng.random() < 0.3:
                store.delete_batch(keys)
                oracle.update(dict.fromkeys(keys.tolist()))
            else:
                store.insert_batch(keys, keys * 3)
                oracle.update((k, 3 * k) for k in keys.tolist())
        store.wait_for_compaction()
        stats = store.write_stats
        assert 1 <= stats.compactions <= stats.seals - store.num_runs
        queries = np.arange(40, dtype=np.int64)
        np.testing.assert_equal(
            store.lookup_batch(queries), _replay(oracle, queries)
        )

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


# -- the batch read walk on a fixed history -----------------------------------

def _walked_store():
    """``(store, dict replay, query pool)`` after one fixed history on
    a memory-only synchronous store: a bulk load, three sealed insert
    batches that a merge folds, deletes sealed over them, then puts
    and tombstones left in the memtable over keys of every run.  The
    pool holds memtable puts and tombstones, run keys, deleted run
    keys, absent keys inside the key range and keys outside it."""
    rng = np.random.default_rng(0x5EA1)
    base = np.arange(0, 400_000, 8, dtype=np.int64)
    store = LearnedLSMStore(
        base, memtable_capacity=1 << 20,
        compaction=SizeTieredCompaction(min_runs=3), background=False,
    )
    oracle = dict(zip(base.tolist(), base.tolist()))

    def insert(keys):
        values = rng.integers(0, 10**9, keys.size)
        store.insert_batch(keys, values)
        oracle.update(zip(keys.tolist(), values.tolist()))

    def delete(keys):
        store.delete_batch(keys)
        for key in keys.tolist():
            oracle.pop(key, None)

    for _ in range(3):
        insert(rng.integers(0, 400_000, 4_096))
        store.flush()
    assert store.num_runs == 2 and store.write_stats.compactions == 1
    delete(rng.choice(base, 1_500, replace=False))
    store.flush()
    insert(rng.integers(0, 400_000, 2_000))
    delete(rng.choice(base, 500, replace=False))
    delete(rng.integers(0, 400_000, 300))
    assert store.num_runs == 3 and len(store.memtable) > 2_000
    mem_keys, _, mem_dead = store.memtable.entries()
    pool = np.concatenate([
        mem_keys[~mem_dead], mem_keys[mem_dead],
        rng.choice(base, 2_000), rng.integers(0, 400_000, 2_000),
        [-(2**63), -1, 400_001, 2**40, 2**63 - 1],
    ])
    return store, oracle, pool


def _replay(oracle, queries):
    values = [oracle.get(q) for q in queries.tolist()]
    found = np.array([v is not None for v in values], dtype=bool)
    return np.array([v or 0 for v in values], dtype=np.int64), found


class TestBatchReadWalk:
    #: The read accounting of the fixed history's 64-, 1 024- and
    #: 4 096-key reads, field by field in ``LSMReadStats._FIELDS``
    #: order.  A change to how the walk searches a source must leave
    #: every count as it is.  ``run_probes``, ``probe_misses`` and
    #: ``bloom_rejects`` also depend on which absent keys the runs'
    #: filters pass.
    PINNED = {
        64: (64, 19, 133, 0, 0, 133),
        1_024: (1_024, 412, 378, 35, 1_406, 0),
        4_096: (4_096, 1_683, 1_538, 122, 5_573, 0),
    }

    #: What no filter changes, per read: ``lookups``, ``memtable_hits``,
    #: ``unguarded_probes``, the negative (query, run) pairs the filters
    #: saw (``bloom_rejects + probe_misses``) and the probes that found
    #: an entry (``run_probes - probe_misses``).  The runs' standard
    #: filters gave these same counts.
    FILTER_FREE = {
        64: (64, 19, 133, 0, 133),
        1_024: (1_024, 412, 0, 1_441, 343),
        4_096: (4_096, 1_683, 0, 5_695, 1_416),
    }

    def test_read_accounting_is_pinned(self):
        store, oracle, pool = _walked_store()
        rng = np.random.default_rng(0x5EA2)
        stats = store.read_stats
        for size, expected in self.PINNED.items():
            queries = rng.choice(pool, size)
            stats.reset()
            values, found = store.lookup_batch(queries)
            want_values, want_found = _replay(oracle, queries)
            np.testing.assert_array_equal(found, want_found)
            np.testing.assert_array_equal(values, want_values)
            got = tuple(getattr(stats, field) for field in stats._FIELDS)
            assert got == expected, (size, got)
            lookups, hits, probes, misses, rejects, unguarded = got
            assert (
                lookups, hits, unguarded, rejects + misses, probes - misses
            ) == self.FILTER_FREE[size]

    @pytest.mark.parametrize(
        "size",
        [ORDERED_SEARCH_MIN_KEYS - 1, ORDERED_SEARCH_MIN_KEYS,
         4 * ORDERED_SEARCH_MIN_KEYS],
    )
    def test_batch_reads_match_the_dict_replay(self, size):
        """Either side of the size the memtable search starts sorting
        its queries at: duplicate queries, tombstoned keys, keys outside
        the memtable's range, and the same reads once the memtable is
        sealed and empty."""
        store, oracle, pool = _walked_store()
        rng = np.random.default_rng(size)
        queries = rng.choice(pool, size)
        quarter = size // 4
        queries[:quarter] = queries[quarter: 2 * quarter]
        assert np.unique(queries).size < size
        for _ in range(2):
            values, found = store.lookup_batch(queries)
            want_values, want_found = _replay(oracle, queries)
            np.testing.assert_array_equal(found, want_found)
            np.testing.assert_array_equal(values, want_values)
            store.flush()
            assert len(store.memtable) == 0

    def test_ordered_walk_reads_alike_on_either_side_of_the_run_table(
        self, monkeypatch
    ):
        """Three runs under a non-empty memtable, read at sizes either
        side of the memtable's ordering switch and well past it: with
        every run probe of ascending needles forced onto the key column,
        then onto the RMI, the answers match the dict replay and the
        read accounting is the same."""
        import repro.lsm.run as run_mod

        store, oracle, pool = _walked_store()
        assert store.num_runs >= 3 and len(store.memtable)
        stats = store.read_stats
        for size in (127, 128, 2_048, 8_192):
            queries = np.random.default_rng(size).choice(pool, size)
            want_values, want_found = _replay(oracle, queries)
            counts = set()
            for beyond in (2**62, 0):  # every call the column's, none
                monkeypatch.setattr(
                    run_mod, "ORDERED_PROBE_CROSSOVERS", ((), beyond)
                )
                stats.reset()
                values, found = store.lookup_batch(queries)
                np.testing.assert_array_equal(found, want_found)
                np.testing.assert_array_equal(values, want_values)
                counts.add(tuple(getattr(stats, f) for f in stats._FIELDS))
            assert len(counts) == 1, (size, counts)


# -- the multi-source merge helper ---------------------------------------------

def _rsr(values, offsets):
    return RangeScanResult(
        values=np.asarray(values, dtype=np.int64),
        offsets=np.asarray(offsets, dtype=np.int64),
    )


class TestMergeScanResults:
    """Sources are listed oldest first: the last one holding a key wins."""

    def test_interleaves_sorted(self):
        a = _rsr([1, 5], [0, 2])
        b = _rsr([2, 9], [0, 2])
        merged = merge_scan_results([a, b])
        np.testing.assert_array_equal(merged[0], [1, 2, 5, 9])

    def test_dedup_keeps_newest_source(self):
        older = _rsr([5], [0, 1])
        newer = _rsr([5], [0, 1])
        merged, payloads = merge_scan_results(
            [older, newer], payloads=[np.array([1]), np.array([2])]
        )
        np.testing.assert_array_equal(merged[0], [5])
        np.testing.assert_array_equal(payloads, [2])

    def test_drop_mask_shadows_older_sources(self):
        oldest = _rsr([5, 6], [0, 2])
        newest = _rsr([5], [0, 1])
        merged = merge_scan_results(
            [oldest, newest],
            drop_masks=[None, np.array([True])],
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
        """Sources that cover no range merge to no range."""
        for count in (1, 2):
            merged = merge_scan_results([_rsr([], [0])] * count)
            assert len(merged) == 0
            assert merged.values.size == 0

    def test_no_source_rejected(self):
        with pytest.raises(ValueError, match="at least one source"):
            merge_scan_results([])


# -- range_items_batch (ISSUE 5 satellite) -------------------------------------

class TestRangeItemsBatch:
    """(key, value) range reads: the merge_scan_results payload gather."""

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
        older = _rsr([5, 8], [0, 2])
        newer = _rsr([5, 7], [0, 2])
        merged, payloads = merge_scan_results(
            [older, newer],
            payloads=[np.array([-5, 80]), np.array([50, 70])],
        )
        np.testing.assert_array_equal(merged.values, [5, 7, 8])
        np.testing.assert_array_equal(payloads, [50, 70, 80])

    def test_merge_scan_results_payload_length_mismatch(self):
        source = _rsr([5, 7], [0, 2])
        with pytest.raises(ValueError):
            merge_scan_results([source], payloads=[np.array([1])])


class TestMemtableEndpointExactness:
    """Memtable-resident data is read as the run layout a seal writes.

    That it resolves float range endpoints exactly like run-resident
    data (a raw searchsorted once promoted the int64 snapshot to
    float64, so 2^53+1 fell inside the range [2^53, 2^53]) is
    ``test_kv_history.py``'s: ``float(k)`` endpoints over its 2^53
    cluster, buffered and sealed."""

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


# -- compaction failure -------------------------------------------------------

@pytest.fixture
def failing_merges(monkeypatch):
    def failing_merge(runs, *, drop_tombstones):
        raise RuntimeError("merge failed")

    monkeypatch.setattr("repro.lsm.store.merge_runs", failing_merge)


def _pair_store(background):
    return LearnedLSMStore(
        memtable_capacity=4,
        compaction=SizeTieredCompaction(min_runs=2),
        background=background,
    )


def test_inline_merge_failure_reaches_the_writer(failing_merges):
    """A merge that fails on the write path raises from the write that
    triggered it; its sealed inputs stay, so every key still answers."""
    store = _pair_store(background=False)
    store.insert_batch(np.arange(4, dtype=np.int64))
    with pytest.raises(RuntimeError, match="merge failed"):
        store.insert_batch(np.arange(4, 8, dtype=np.int64))
    assert store.num_runs == 2 and store.write_stats.compactions == 0
    got, found = store.lookup_batch(np.arange(8, dtype=np.int64))
    assert found.all() and np.array_equal(got, np.arange(8))


def test_compactor_failure_is_sticky(failing_merges):
    """A merge that fails on the worker thread is re-raised by every
    later drain, not only the first: the worker is gone, and a store
    that went quiet after one report would hide that."""
    with _pair_store(background=True) as store:
        # Four seals, so the policy has a window to merge (one 16-key
        # batch would seal once and never merge).
        for start in range(0, 16, 4):
            store.insert_batch(np.arange(start, start + 4, dtype=np.int64))
        for _ in range(2):
            with pytest.raises(RuntimeError, match="merge failed"):
                store.wait_for_compaction()
