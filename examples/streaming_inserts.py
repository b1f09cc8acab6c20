"""Scenario: a learned index under a streaming write workload.

Appendix D.1 of the paper discusses inserts: append-heavy workloads
(e.g. timestamp keys) can be O(1) for a learned index because the model
generalizes to the future, while out-of-distribution inserts require
retraining — "all inserts are kept in buffer and from time to time
merged", the Bigtable delta-index pattern.

This example streams two workloads into :class:`WritableLearnedIndex`:

1. **appends** — new timestamps continuing the learned pattern: merges
   take the O(append) fast path, zero retrains;
2. **random inserts** — keys landing anywhere: merges retrain (cheap,
   closed-form leaves).

Run:  python examples/streaming_inserts.py
"""

import time

import numpy as np

from repro.core import WritableLearnedIndex


def stream(index, batches, label):
    start = time.perf_counter()
    retrains_before = index.retrains
    fast_before = index.fast_appends
    for batch in batches:
        index.insert_batch(batch)
    index.merge()
    elapsed = time.perf_counter() - start
    total = sum(len(b) for b in batches)
    print(f"  {label}: {total:,} inserts in {elapsed:.2f}s "
          f"({elapsed / total * 1e6:.1f} us/insert), "
          f"retrains={index.retrains - retrains_before}, "
          f"fast appends={index.fast_appends - fast_before}")


def main() -> None:
    base = np.arange(0, 2_000_000, 4, dtype=np.int64)  # timestamp-ish keys
    index = WritableLearnedIndex(
        base, stage_sizes=(1, 500), merge_threshold=5_000
    )
    print(f"base index: {len(index):,} keys, {index.size_bytes() / 1024:.0f} KB")

    # Workload 1: appends continuing the pattern (future timestamps).
    appends = [
        np.arange(2_000_000 + i * 40_000, 2_000_000 + (i + 1) * 40_000, 4)
        for i in range(5)
    ]
    stream(index, appends, "append stream ")
    assert index.contains(2_000_000 + 8)

    # Workload 2: random inserts into the middle of the key space.
    rng = np.random.default_rng(9)
    random_batches = [
        rng.integers(1, 2_000_000, size=6_000) | 1  # odd => all new
        for _ in range(3)
    ]
    stream(index, random_batches, "random inserts")
    probe = int(random_batches[0][0])
    assert index.contains(probe)

    # Deletes fold in as tombstones.
    index.delete(int(base[1234]))
    assert not index.contains(int(base[1234]))
    print(f"  after deletes: {index!r}")


if __name__ == "__main__":
    main()
