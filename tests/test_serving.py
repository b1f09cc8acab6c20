"""Serving-layer unit tests: coalescer edge cases, CDF splitter,
CRC32C fallback and backup/restore.

The sharded-store integration tests (worker processes, snapshots)
live in ``test_sharded.py``; everything here runs in-process.
"""

from __future__ import annotations

import asyncio
import glob
import os
import zlib

import numpy as np
import pytest

from repro.lsm.format import (
    ALGO_CRC32C,
    _HAVE_CRC32C,
    checksum,
    crc32c,
    software_crc32c,
)
from repro.lsm.store import LearnedLSMStore
from repro.serving import CoalescingIndexServer, CDFSplitter
from repro.serving.coalescer import CoalescerStats


# ---------------------------------------------------------------------------
# CDF splitter
# ---------------------------------------------------------------------------


class TestCDFSplitter:
    def test_fit_balances_skewed_keys(self, lognormal_small):
        split = CDFSplitter.fit(lognormal_small, 4)
        counts = np.bincount(
            split.shard_of_batch(lognormal_small), minlength=4
        )
        # Quantile boundaries put ~1/4 of the mass per shard even on a
        # heavy-tailed distribution (a fixed-width split would not).
        assert counts.min() >= 0.8 * lognormal_small.size / 4
        assert counts.max() <= 1.2 * lognormal_small.size / 4

    def test_uniform_fallback_covers_domain(self):
        split = CDFSplitter.uniform(4)
        keys = np.array(
            [-(2**63), -1, 0, 2**63 - 1], dtype=np.int64
        )
        shards = split.shard_of_batch(keys)
        assert shards[0] == 0 and shards[-1] == 3
        assert np.all((shards >= 0) & (shards < 4))

    def test_routing_matches_the_boundaries(self, uniform_small):
        # Shard s owns [boundaries[s - 1], boundaries[s]): the
        # boundaries tile the domain with no gap or overlap.
        split = CDFSplitter.fit(uniform_small, 3)
        assert split.boundaries.size == 2
        np.testing.assert_array_equal(
            split.shard_of_batch(uniform_small),
            np.searchsorted(split.boundaries, uniform_small, side="right"),
        )

    def test_shards_overlapping(self, uniform_small):
        split = CDFSplitter.fit(uniform_small, 4)
        b = split.boundaries
        lows = np.array(
            [int(b[0]), int(b[0]), 10, 10], dtype=np.int64
        )
        highs = np.array(
            [int(b[2]), int(b[0]), 5, int(b[2]) - 1], dtype=np.int64
        )
        overlap = split.shards_overlapping(lows, highs)
        assert overlap.shape == (4, 4)
        # Range 0 spans shards 1..3's start; range 1 is a point on a
        # boundary key (owned by the right shard); range 2 inverted.
        assert list(np.nonzero(overlap[:, 0])[0]) == [1, 2, 3]
        assert list(np.nonzero(overlap[:, 1])[0]) == [1]
        assert not overlap[:, 2].any()
        assert overlap[:, 3].any()

    def test_empty_sample_and_bad_args(self):
        split = CDFSplitter.fit(np.empty(0, dtype=np.int64), 3)
        assert split.num_shards == 3
        with pytest.raises(ValueError):
            CDFSplitter(np.array([2, 1], dtype=np.int64), 3)
        with pytest.raises(ValueError):
            CDFSplitter(np.array([1], dtype=np.int64), 3)
        with pytest.raises(ValueError):
            CDFSplitter.fit([1, 2, 3], 0)

    def test_single_shard(self):
        split = CDFSplitter.fit([5, 6, 7], 1)
        assert split.shard_of_batch([-(2**63), 0, 2**63 - 1]).max() == 0


# ---------------------------------------------------------------------------
# Coalescer
# ---------------------------------------------------------------------------


class _CountingStore:
    """In-memory store recording every batch call it receives."""

    def __init__(self, keys, values):
        self._keys = np.asarray(keys, dtype=np.int64)
        self._values = np.asarray(values, dtype=np.int64)
        self.point_calls: list[int] = []
        self.range_calls: list[int] = []
        self.sent_keys: list[list[int]] = []  # each point call's keys

    def lookup_batch(self, keys):
        queries = np.asarray(keys, dtype=np.int64).ravel()
        self.point_calls.append(int(queries.size))
        self.sent_keys.append(queries.tolist())
        pos = np.searchsorted(self._keys, queries)
        pos = np.minimum(pos, self._keys.size - 1)
        found = (
            (self._keys.size > 0) & (self._keys[pos] == queries)
        )
        return np.where(found, self._values[pos], 0), found

    def range_query_batch(self, lows, highs):
        from repro.range_scan import RangeScanResult

        lows = np.asarray(lows, dtype=np.int64)
        highs = np.asarray(highs, dtype=np.int64)
        self.range_calls.append(int(lows.size))
        starts = np.searchsorted(self._keys, lows, side="left")
        ends = np.searchsorted(self._keys, highs, side="right")
        ends = np.maximum(ends, starts)
        offsets = np.zeros(lows.size + 1, dtype=np.int64)
        np.cumsum(ends - starts, out=offsets[1:])
        values = (
            np.concatenate(
                [self._keys[s:e] for s, e in zip(starts, ends)]
            )
            if lows.size
            else np.empty(0, dtype=np.int64)
        )
        return RangeScanResult(values=values, offsets=offsets)


class _PoisonStore(_CountingStore):
    """Raises whenever a designated key appears in a batch."""

    def __init__(self, keys, values, poison: int):
        super().__init__(keys, values)
        self.poison = poison

    def lookup_batch(self, keys):
        queries = np.asarray(keys, dtype=np.int64).ravel()
        if np.any(queries == self.poison):
            self.point_calls.append(int(queries.size))
            raise RuntimeError("poisoned request")
        return super().lookup_batch(queries)

    def range_query_batch(self, lows, highs):
        if np.any(np.asarray(lows, dtype=np.int64) == self.poison):
            self.range_calls.append(int(np.size(lows)))
            raise RuntimeError("poisoned range")
        return super().range_query_batch(lows, highs)


@pytest.fixture()
def kv():
    keys = np.arange(0, 10_000, 7, dtype=np.int64)
    return keys, keys * 3


class TestCoalescer:
    def test_concurrent_lookups_become_one_batch(self, kv):
        keys, values = kv
        store = _CountingStore(keys, values)

        async def main():
            srv = CoalescingIndexServer(store)
            sample = keys[100:164]
            results = await asyncio.gather(
                *(srv.lookup(int(k)) for k in sample)
            )
            assert results == [int(k) * 3 for k in sample]
            return srv.stats

        stats = asyncio.run(main())
        # 64 requests, one store call of 64 keys.
        assert store.point_calls == [64]
        assert stats.requests_served == 64
        assert stats.mean_point_batch() == 64.0

    def test_mixed_hits_misses_and_ranges(self, kv):
        keys, values = kv
        store = _CountingStore(keys, values)

        async def main():
            srv = CoalescingIndexServer(store)
            hit, miss = int(keys[5]), int(keys[5]) + 1
            v_hit, v_miss, scan = await asyncio.gather(
                srv.lookup(hit),
                srv.lookup(miss),
                srv.range_query(int(keys[10]), int(keys[20])),
            )
            assert v_hit == hit * 3
            assert v_miss is None
            assert np.array_equal(scan, keys[10:21])

        asyncio.run(main())
        assert store.point_calls == [2]
        assert store.range_calls == [1]

    def test_range_batches_coalesce_and_slice_back(self, kv):
        keys, values = kv
        store = _CountingStore(keys, values)

        async def main():
            srv = CoalescingIndexServer(store)
            r1, r2 = await asyncio.gather(
                srv.range_query_batch(
                    [int(keys[0]), int(keys[50])],
                    [int(keys[5]), int(keys[52])],
                ),
                srv.range_query_batch(
                    [int(keys[100])], [int(keys[110])]
                ),
            )
            assert np.array_equal(r1[0], keys[0:6])
            assert np.array_equal(r1[1], keys[50:53])
            assert np.array_equal(r2[0], keys[100:111])

        asyncio.run(main())
        # 2 + 1 ranges coalesced into one 3-range store call.
        assert store.range_calls == [3]

    def test_one_tick_is_one_store_call_whatever_its_size(self, kv):
        keys, values = kv
        store = _CountingStore(keys, values)

        async def main():
            srv = CoalescingIndexServer(store)
            reqs = [keys[:500], keys[500:503], keys[503:504]]
            results = await asyncio.gather(
                *(srv.lookup_batch(r) for r in reqs)
            )
            for r, (vals, found) in zip(reqs, results):
                assert found.all()
                assert np.array_equal(vals, r * 3)
            return srv.stats

        stats = asyncio.run(main())
        # Never chunked: the large request and its neighbours share one
        # 504-key store call, each sliced back to its own keys.
        assert store.point_calls == [504]
        assert stats.ticks == 1

    def test_each_tick_flushes_only_its_own_requests(self, kv):
        keys, values = kv
        store = _CountingStore(keys, values)

        async def main():
            srv = CoalescingIndexServer(store)
            first = await srv.lookup(int(keys[0]))
            # Staggered arrivals do not wait for one another: each is
            # served by the tick after it was queued.
            second = await srv.lookup(int(keys[1]))
            pair = await asyncio.gather(
                srv.lookup(int(keys[2])), srv.lookup(int(keys[3]))
            )
            assert [first, second, *pair] == [int(k) * 3 for k in keys[:4]]
            return srv.stats

        stats = asyncio.run(main())
        assert store.point_calls == [1, 1, 2]
        assert stats.ticks == 3
        assert stats.empty_ticks == 0

    def test_exception_isolated_to_poisoned_request(self, kv):
        keys, values = kv
        poison = int(keys.max()) + 1000
        store = _PoisonStore(keys, values, poison)

        async def main():
            srv = CoalescingIndexServer(store)
            good = [srv.lookup(int(k)) for k in keys[:3]]
            bad = srv.lookup(poison)
            results = await asyncio.gather(
                *good, bad, return_exceptions=True
            )
            assert results[:3] == [int(k) * 3 for k in keys[:3]]
            assert isinstance(results[3], RuntimeError)
            return srv.stats

        stats = asyncio.run(main())
        # One failed 4-key batch, then 4 solo fallback calls of which
        # only the poisoned one raised.
        assert store.point_calls[0] == 4
        assert stats.fallback_requests == 4
        assert stats.requests_served == 3

    # Cancellation inside the tick: ``ensure_future`` the requests,
    # ``sleep(0)`` so they queue (the flush callback is now scheduled),
    # then cancel before that callback runs.

    def test_cancellation_mid_window(self, kv):
        keys, values = kv
        store = _CountingStore(keys, values)

        async def main():
            srv = CoalescingIndexServer(store)
            tasks = [
                asyncio.ensure_future(srv.lookup(int(k)))
                for k in keys[:4]
            ]
            await asyncio.sleep(0)  # all four queued, flush pending
            doomed, kept = tasks[0], tasks[1:]
            doomed.cancel()
            assert await asyncio.gather(*kept) == [
                int(k) * 3 for k in keys[1:4]
            ]
            with pytest.raises(asyncio.CancelledError):
                await doomed
            return srv.stats

        stats = asyncio.run(main())
        # The cancelled request never reached the store.
        assert store.point_calls == [3]
        assert stats.requests_cancelled == 1

    def test_client_timeout_then_recovery(self, kv):
        keys, values = kv
        store = _CountingStore(keys, values)

        async def main():
            srv = CoalescingIndexServer(store)
            request = asyncio.ensure_future(srv.lookup(int(keys[0])))
            await asyncio.sleep(0)  # queued, flush pending
            with pytest.raises(asyncio.TimeoutError):
                # A zero timeout cancels before the flush runs.
                await asyncio.wait_for(request, timeout=0)
            # The server stays healthy for later clients.
            assert await srv.lookup(int(keys[1])) == int(keys[1]) * 3
            return srv.stats

        stats = asyncio.run(main())
        assert stats.requests_cancelled == 1
        assert stats.requests_served == 1

    def test_all_cancelled_is_empty_tick(self, kv):
        keys, values = kv
        store = _CountingStore(keys, values)

        async def main():
            srv = CoalescingIndexServer(store)
            tasks = [
                asyncio.ensure_future(srv.lookup(int(k)))
                for k in keys[:4]
            ]
            await asyncio.sleep(0)
            for t in tasks:
                t.cancel()
            await asyncio.sleep(0)  # the flush runs
            return srv.stats

        stats = asyncio.run(main())
        # Flush ran, found only corpses, and never touched the store.
        assert store.point_calls == []
        assert stats.empty_ticks >= 1
        assert stats.requests_cancelled == 4

    def test_bad_args(self, kv):
        keys, values = kv
        store = _CountingStore(keys, values)

        async def main():
            srv = CoalescingIndexServer(store)
            with pytest.raises(ValueError):
                await srv.range_query_batch([1, 2], [3])

        asyncio.run(main())

    def test_one_tick_mixes_scalars_batches_and_ranges(self, kv):
        keys, values = kv
        store = _CountingStore(keys, values)

        async def main():
            srv = CoalescingIndexServer(store)
            hit, miss = int(keys[7]), int(keys[7]) + 1
            got = await asyncio.gather(
                srv.lookup_batch(keys[40:45]),
                srv.lookup(hit),
                srv.range_query_batch([int(keys[0])], [int(keys[3])]),
                srv.lookup_batch(np.array([miss, int(keys[9])])),
                srv.lookup(miss),
                srv.lookup_batch(keys[60:160]),
                srv.range_query(int(keys[20]), int(keys[22])),
                srv.lookup(np.int64(keys[8])),
            )
            return got, srv.stats

        got, stats = asyncio.run(main())
        five, v_hit, r1, pair, v_miss, hundred, r2, v_np = got
        # One store call per kind; the tick's scalars lead the batch.
        assert store.point_calls == [3 + 5 + 2 + 100]
        assert store.sent_keys[0][:3] == [
            int(keys[7]), int(keys[7]) + 1, int(keys[8])
        ]
        assert store.range_calls == [2]
        assert stats.ticks == 1 and stats.store_calls == 2
        assert (v_hit, v_miss, v_np) == (
            int(keys[7]) * 3, None, int(keys[8]) * 3
        )
        assert five[1].all() and np.array_equal(five[0], keys[40:45] * 3)
        assert pair[1].tolist() == [False, True]
        assert pair[0][1] == int(keys[9]) * 3
        assert hundred[1].all()
        assert np.array_equal(hundred[0], keys[60:160] * 3)
        assert np.array_equal(r1[0], keys[0:4])
        assert np.array_equal(r2, keys[20:23])

    def test_scalar_answers_are_python_ints_or_none(self, kv):
        keys, values = kv
        store = _CountingStore(keys, values)

        async def main():
            srv = CoalescingIndexServer(store)
            return await asyncio.gather(
                srv.lookup(int(keys[1])),
                srv.lookup(int(keys[1]) + 1),
                srv.lookup_batch(keys[:2]),
            )

        hit, miss, _ = asyncio.run(main())
        assert type(hit) is int and hit == int(keys[1]) * 3
        assert miss is None

    def test_lookup_does_not_ride_lookup_batch(self, kv):
        keys, values = kv
        store = _CountingStore(keys, values)

        async def main():
            srv = CoalescingIndexServer(store)

            async def refuse(keys):
                raise AssertionError("lookup went through lookup_batch")

            srv.lookup_batch = refuse
            return await srv.lookup(int(keys[4]))

        assert asyncio.run(main()) == int(keys[4]) * 3

    def test_poisoned_scalar_in_mixed_tick_rejects_only_itself(self, kv):
        keys, values = kv
        poison = int(keys.max()) + 1000
        store = _PoisonStore(keys, values, poison)

        async def main():
            srv = CoalescingIndexServer(store)
            results = await asyncio.gather(
                srv.lookup(int(keys[2])),
                srv.lookup_batch(keys[10:14]),
                srv.lookup(poison),
                srv.lookup(int(keys[2]) + 1),
                srv.range_query(int(keys[0]), int(keys[1])),
                return_exceptions=True,
            )
            return results, srv.stats

        (good, batch, bad, miss, scan), stats = asyncio.run(main())
        assert good == int(keys[2]) * 3 and type(good) is int
        assert miss is None
        assert np.array_equal(batch[0], keys[10:14] * 3)
        assert isinstance(bad, RuntimeError)
        assert np.array_equal(scan, keys[0:2])
        # One failed 7-key call, then four solo re-runs of which only
        # the poisoned one raised; the range call was not disturbed.
        assert store.point_calls[0] == 7
        assert stats.fallback_requests == 4
        assert store.range_calls == [1]

    def test_cancelled_scalar_never_reaches_the_store(self, kv):
        keys, values = kv
        store = _CountingStore(keys, values)

        async def main():
            srv = CoalescingIndexServer(store)
            doomed = asyncio.ensure_future(srv.lookup(int(keys[3])))
            kept = asyncio.ensure_future(srv.lookup(int(keys[4])))
            batch = asyncio.ensure_future(srv.lookup_batch(keys[5:7]))
            await asyncio.sleep(0)  # all queued, flush pending
            doomed.cancel()
            assert await kept == int(keys[4]) * 3
            assert (await batch)[1].all()
            with pytest.raises(asyncio.CancelledError):
                await doomed
            return srv.stats

        stats = asyncio.run(main())
        assert store.sent_keys == [[int(k) for k in keys[4:7]]]
        assert stats.requests_cancelled == 1

    @pytest.mark.parametrize(
        "key,error", [(2**63, OverflowError), (2.5, TypeError)]
    )
    def test_refused_scalar_queues_nothing(self, kv, key, error):
        keys, values = kv
        store = _CountingStore(keys, values)

        async def main():
            srv = CoalescingIndexServer(store)
            with pytest.raises(error):
                await srv.lookup(key)
            await asyncio.sleep(0)  # a scheduled tick would run here
            return srv.stats

        stats = asyncio.run(main())
        assert stats.ticks == 0
        assert store.point_calls == []

    def test_zero_range_request_shares_a_tick(self, kv):
        keys, values = kv
        store = _CountingStore(keys, values)

        async def main():
            srv = CoalescingIndexServer(store)
            return await asyncio.gather(
                srv.range_query_batch([int(keys[0])], [int(keys[2])]),
                srv.range_query_batch([], []),
                srv.range_query_batch(
                    [int(keys[5]), int(keys[9])],
                    [int(keys[6]), int(keys[8])],
                ),
            )

        before, empty, after = asyncio.run(main())
        assert store.range_calls == [3]
        assert empty.offsets.tolist() == [0]
        assert empty.values.size == 0 and len(empty) == 0
        assert np.array_equal(before[0], keys[0:3])
        assert after.offsets.tolist() == [0, 2, 2]
        assert np.array_equal(after.values, keys[5:7])

    def test_poisoned_single_range_rejects_only_itself(self, kv):
        keys, values = kv
        poison = int(keys.max()) + 1000
        store = _PoisonStore(keys, values, poison)

        async def main():
            srv = CoalescingIndexServer(store)
            return await asyncio.gather(
                srv.range_query(int(keys[0]), int(keys[1])),
                srv.range_query(poison, poison + 5),
                srv.range_query_batch([int(keys[4])], [int(keys[6])]),
                return_exceptions=True,
            ), srv.stats

        (good, bad, batch), stats = asyncio.run(main())
        assert np.array_equal(good, keys[0:2]) and good.dtype == np.int64
        assert isinstance(bad, RuntimeError)
        assert np.array_equal(batch[0], keys[4:7])
        # One failed 3-range call, then three solo re-runs.
        assert store.range_calls[0] == 3
        assert stats.fallback_requests == 3

    @pytest.mark.parametrize(
        "low,high,error",
        [(2.5, 10, TypeError), (0, 7.0, TypeError), (0, 2**63, OverflowError)],
    )
    def test_refused_range_endpoint_queues_nothing(self, kv, low, high, error):
        keys, values = kv
        store = _CountingStore(keys, values)

        async def main():
            srv = CoalescingIndexServer(store)
            with pytest.raises(error):
                await srv.range_query(low, high)
            await asyncio.sleep(0)  # a scheduled tick would run here
            return srv.stats

        stats = asyncio.run(main())
        assert stats.ticks == 0
        assert store.range_calls == []

    def test_works_against_real_lsm_store(self, kv):
        keys, values = kv
        with LearnedLSMStore(keys, values, background=False) as store:

            async def main():
                srv = CoalescingIndexServer(store)
                sample = keys[::500]
                results = await asyncio.gather(
                    *(srv.lookup(int(k)) for k in sample),
                    srv.range_query(int(keys[0]), int(keys[30])),
                )
                assert results[:-1] == [int(k) * 3 for k in sample]
                assert np.array_equal(results[-1], keys[:31])

            asyncio.run(main())


# ---------------------------------------------------------------------------
# CRC32C software fallback
# ---------------------------------------------------------------------------


def _bitwise_crc32c(data: bytes) -> int:
    """Textbook reflected CRC-32C — the slow oracle the sliced
    implementation must match bit-for-bit."""
    crc = 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ (0x82F63B78 if crc & 1 else 0)
    return crc ^ 0xFFFFFFFF


class TestCRC32C:
    # RFC 3720 appendix B.4 test vectors.
    VECTORS = [
        (b"123456789", 0xE3069283),
        (bytes(32), 0x8A9136AA),
        (b"\xff" * 32, 0x62A8AB43),
        (bytes(range(32)), 0x46DD794E),
    ]

    @pytest.mark.parametrize("data,expect", VECTORS)
    def test_rfc3720_vectors(self, data, expect):
        assert software_crc32c(data) == expect
        assert crc32c(data) == expect

    def test_matches_bitwise_oracle(self, rng):
        for size in (0, 1, 7, 8, 9, 63, 64, 65, 1000):
            data = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
            assert software_crc32c(data) == _bitwise_crc32c(data), size

    @pytest.mark.skipif(
        not _HAVE_CRC32C, reason="crc32c wheel not installed"
    )
    def test_matches_wheel(self, rng):  # pragma: no cover - needs wheel
        import crc32c as wheel

        data = rng.integers(0, 256, 4096, dtype=np.uint8).tobytes()
        assert software_crc32c(data) == wheel.crc32c(data)

    def test_checksum_dispatch_uses_crc32c(self):
        data = b"123456789"
        assert checksum(data, ALGO_CRC32C) == 0xE3069283
        assert checksum(data, ALGO_CRC32C) != (
            zlib.crc32(data) & 0xFFFFFFFF
        )

    def test_accepts_memoryview_and_arrays(self):
        arr = np.arange(32, dtype=np.uint8)
        assert software_crc32c(memoryview(arr)) == 0x46DD794E

    def test_store_round_trip_under_crc32c(self, tmp_path):
        """A store whose files are stamped CRC32C verifies and reopens,
        with or without the wheel — the software fallback reads and
        writes them too."""
        import repro.lsm.format as fmt

        old = fmt._DEFAULT_ALGO
        fmt._DEFAULT_ALGO = ALGO_CRC32C
        try:
            keys = np.arange(0, 2_000, dtype=np.int64)
            with LearnedLSMStore(
                keys, keys * 2, path=str(tmp_path), background=False
            ) as store:
                store.flush()
            with LearnedLSMStore(
                path=str(tmp_path), background=False
            ) as store:
                values, found = store.lookup_batch(keys[::97])
                assert found.all()
                assert np.array_equal(values, keys[::97] * 2)
        finally:
            fmt._DEFAULT_ALGO = old


# ---------------------------------------------------------------------------
# Backup / restore
# ---------------------------------------------------------------------------


class TestBackup:
    def _fill(self, store, keys):
        store.insert_batch(keys, keys * 5)
        store.delete_batch(keys[::10])
        store.flush()

    def test_backup_restores_identically(self, tmp_path):
        keys = np.arange(0, 30_000, 3, dtype=np.int64)
        src_dir, dst_dir = tmp_path / "src", tmp_path / "dst"
        with LearnedLSMStore(
            path=str(src_dir), background=False,
            memtable_capacity=4_096,
        ) as store:
            self._fill(store, keys)
            # Unflushed tail rides the WAL copy.
            store.insert_batch(
                np.array([10**9, 10**9 + 1], dtype=np.int64)
            )
            store.backup(str(dst_dir))
            expect_v, expect_f = store.lookup_batch(keys)

        with LearnedLSMStore(
            path=str(dst_dir), background=False
        ) as restored:
            values, found = restored.lookup_batch(keys)
            assert np.array_equal(found, expect_f)
            assert np.array_equal(values[found], expect_v[found])
            v, f = restored.lookup_batch(
                np.array([10**9, 10**9 + 1], dtype=np.int64)
            )
            assert f.all(), "WAL tail lost in backup"

    def test_backup_isolated_from_later_writes(self, tmp_path):
        keys = np.arange(0, 10_000, dtype=np.int64)
        src_dir, dst_dir = tmp_path / "src", tmp_path / "dst"
        with LearnedLSMStore(
            path=str(src_dir), background=False,
            memtable_capacity=2_048,
        ) as store:
            self._fill(store, keys)
            store.backup(str(dst_dir))
            # Mutate the source heavily after the backup: overwrites,
            # seals, and a full compaction (new inodes via rename).
            store.insert_batch(keys, keys * 999)
            store.flush()
            store.compact()

        with LearnedLSMStore(
            path=str(dst_dir), background=False
        ) as restored:
            probe = keys[1:100]
            values, found = restored.lookup_batch(probe)
            deleted = probe % 10 == 0
            assert np.array_equal(found, ~deleted)
            assert np.array_equal(values[found], probe[~deleted] * 5)

    def test_backup_refuses_bad_destinations(self, tmp_path):
        keys = np.arange(100, dtype=np.int64)
        src_dir = tmp_path / "src"
        with LearnedLSMStore(
            path=str(src_dir), background=False
        ) as store:
            store.insert_batch(keys)
            store.flush()
            with pytest.raises(ValueError):
                store.backup(str(src_dir))
            busy = tmp_path / "busy"
            busy.mkdir()
            (busy / "junk").write_text("x")
            with pytest.raises(ValueError):
                store.backup(str(busy))

    def test_memory_store_cannot_backup(self, tmp_path):
        with LearnedLSMStore(background=False) as store:
            with pytest.raises(ValueError):
                store.backup(str(tmp_path / "d"))

    def test_backup_is_hard_links_not_copies(self, tmp_path):
        keys = np.arange(0, 50_000, dtype=np.int64)
        src_dir, dst_dir = tmp_path / "src", tmp_path / "dst"
        with LearnedLSMStore(
            path=str(src_dir), background=False
        ) as store:
            store.insert_batch(keys)
            store.flush()
            store.backup(str(dst_dir))
        run_names = [
            os.path.basename(p)
            for p in glob.glob(str(dst_dir / "run-*.run"))
        ]
        assert run_names, "backup contains no runs"
        for name in run_names:
            assert os.path.samefile(
                str(src_dir / name), str(dst_dir / name)
            ), "run was copied, not linked"


class TestCoalescerStatsShape:
    def test_defaults(self):
        stats = CoalescerStats()
        assert stats.mean_point_batch() == 0.0
        assert stats.ticks == 0

    def test_thousand_ticks_leave_no_per_tick_container(self, kv):
        keys, values = kv
        store = _CountingStore(keys, values)

        def container_sizes(stats) -> dict:
            snap = stats.registry.snapshot()
            sizes = {
                name: len(held)
                for name, held in vars(stats).items()
                if hasattr(held, "__len__")
            }
            sizes.update(
                counters=len(snap.counters),
                histograms=len(snap.histograms),
            )
            return sizes

        async def main():
            srv = CoalescingIndexServer(store)
            await srv.lookup(int(keys[0]))
            first = container_sizes(srv.stats)
            for i in range(1, 1_000):
                if i % 2:
                    await srv.lookup(int(keys[i]))
                else:
                    await srv.range_query(int(keys[i]), int(keys[i]))
            return first, srv.stats

        first, stats = asyncio.run(main())
        assert stats.ticks == 1_000
        assert container_sizes(stats) == first
        assert (stats.point_calls, stats.point_keys) == (501, 501)
        assert (stats.range_calls, stats.ranges) == (499, 499)
        assert stats.mean_point_batch() == 1.0
