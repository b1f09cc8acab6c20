"""Scenario: a serving front end over the learned LSM store.

A real service does not receive tidy 100k-key batches — it receives
streams of single lookups from many concurrent clients.  This example
runs the two PR 8 serving pieces end to end: the
``CoalescingIndexServer`` gathers concurrent awaited requests into one
vectorized store call per event-loop tick, and the ``ShardedLSMStore``
spreads the keyspace across worker processes along the learned CDF:
each worker answers its shard's part of every read, and holds
cross-shard snapshots pinned while writes land.

Run:  python examples/serving_demo.py
"""

import asyncio
import time

import numpy as np

from repro.lsm import LearnedLSMStore
from repro.serving import CoalescingIndexServer, ShardedLSMStore


def coalescing_demo(keys: np.ndarray) -> None:
    store = LearnedLSMStore(keys, keys * 10, background=False)
    clients, ops = 16, 200

    async def client(srv, c):
        hits = 0
        for i in range(ops):
            key = int(keys[(c * 7919 + i * 104729) % keys.size])
            if await srv.lookup(key) is not None:
                hits += 1
        return hits

    async def run():
        srv = CoalescingIndexServer(store)
        start = time.perf_counter()
        hits = await asyncio.gather(
            *(client(srv, c) for c in range(clients))
        )
        elapsed = time.perf_counter() - start
        return sum(hits), elapsed, srv.stats

    hits, elapsed, stats = asyncio.run(run())
    total = clients * ops
    print(f"{clients} clients x {ops} single-key lookups "
          f"({hits}/{total} hits) in {elapsed * 1e3:.0f}ms")
    print(f"  {stats.store_calls} store calls for "
          f"{stats.requests_served} requests — "
          f"mean batch {stats.mean_point_batch():.1f} keys/tick, "
          f"{total / elapsed:,.0f} ops/s")
    store.close()


def sharding_demo(keys: np.ndarray) -> None:
    with ShardedLSMStore(4, keys, keys * 10) as store:
        print(f"  {store!r}")
        for shard, stat in enumerate(store.shard_stats()):
            print(f"  shard {shard}: {stat['live_keys']:,} keys, "
                  f"{stat['num_runs']} runs")

        probe = keys[:: keys.size // 50_000 or 1]
        values, found = store.lookup_batch(probe)  # one fan-out to 4 workers
        assert found.all() and np.array_equal(values, probe * 10)
        print(f"  {probe.size:,} worker reads verified")

        # A snapshot, held in every worker, keeps answering from its
        # epoch while an overwrite lands in every shard.
        with store.snapshot() as snap:
            store.insert_batch(keys[:1000], keys[:1000] * 99)
            store.flush()
            old, _ = snap.lookup_batch(keys[:1000])
            new, _ = store.lookup_batch(keys[:1000])
        print(f"  snapshot still reads x10 values ({old[0]}), "
              f"live store reads x99 ({new[0]})")


def main() -> None:
    rng = np.random.default_rng(18)
    keys = np.unique(rng.integers(0, 1 << 62, 200_000, dtype=np.int64))

    print("-- request coalescing (asyncio) --")
    coalescing_demo(keys)

    print("\n-- sharded store (4 worker processes) --")
    sharding_demo(keys)


if __name__ == "__main__":
    main()
