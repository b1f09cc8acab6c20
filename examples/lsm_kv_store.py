"""Scenario: a write-heavy key-value store on the learned LSM engine.

Appendix D.1 of the paper sketches the Bigtable-shaped answer to
inserts: buffer writes, merge from time to time, retrain cheaply.
This example runs a session-store workload — a steady stream of
user-session writes mixed with skewed point reads and range scans —
on :class:`repro.lsm.LearnedLSMStore` and shows the three numbers an
LSM trades between:

* write amplification (entries rewritten per entry written),
* read amplification (run probes per lookup, and how many the per-run
  bloom filters eliminate),
* and the shape of the run pyramid the compaction policy maintains.

Run:  python examples/lsm_kv_store.py
"""

import time

import numpy as np

from repro.data import uniform_keys, zipfian_queries
from repro.lsm import LearnedLSMStore


def main() -> None:
    rng = np.random.default_rng(99)
    n = 500_000
    print(f"bootstrapping: {n:,} resident sessions (bulk load, one run)")
    session_ids = uniform_keys(n, seed=99)
    last_seen = rng.integers(1_600_000_000, 1_700_000_000, n)
    store = LearnedLSMStore(
        session_ids, last_seen, memtable_capacity=32_768
    )
    print(f"  {store}\n")

    print("mixed workload: 20 rounds of 10k writes + 40k zipfian reads "
          "+ 1k range scans")
    start = time.perf_counter()
    reads_found = 0
    for _ in range(20):
        # New sessions and touch-updates (values = timestamps).
        writes = rng.integers(0, 2 * int(session_ids.max()), 10_000)
        store.insert_batch(writes, rng.integers(1_700_000_000,
                                                1_800_000_000, 10_000))
        # A few expirations.
        for victim in rng.choice(writes, 50):
            store.delete(int(victim))
        # Skewed point reads: hot sessions dominate.
        queries = zipfian_queries(session_ids, 40_000, seed=7)
        _values, found = store.lookup_batch(queries.astype(np.int64))
        reads_found += int(found.sum())
        # Dashboard-style scans over session-id ranges.
        lows = rng.choice(session_ids, 1_000).astype(np.float64)
        store.range_query_batch(lows, lows + 100_000)
    elapsed = time.perf_counter() - start
    total_ops = 20 * (10_000 + 50 + 40_000 + 1_000)
    print(f"  {total_ops:,} ops in {elapsed:.2f}s "
          f"({total_ops / elapsed:,.0f} ops/s), "
          f"{reads_found:,} point reads hit\n")

    ws, rs = store.write_stats, store.read_stats
    print("the LSM trade-off triangle:")
    print(f"  write amplification: {ws.write_amplification:.2f}x "
          f"({ws.seals} seals, {ws.compactions} compactions)")
    probes_per_lookup = rs.run_probes / max(rs.lookups, 1)
    print(f"  read amplification:  {probes_per_lookup:.2f} run probes "
          f"per lookup across {store.num_runs} runs")
    print(f"  bloom guards:        {rs.negative_probes_eliminated:.1%} "
          f"of negative-run probes eliminated "
          f"({rs.bloom_rejects:,} rejects vs {rs.probe_misses:,} "
          f"false probes)")
    negative = max(rs.bloom_rejects + rs.probe_misses, 1)
    stated = np.mean([run.bloom.expected_fpr for run in store.runs])
    print(f"  bloom false positives: {rs.probe_misses / negative:.2%} "
          f"observed, {stated:.2%} stated (mean over the runs' filters)")
    print(f"  run pyramid:         "
          f"{[len(r) for r in store.runs]}")

    print("\nforcing a full compaction (tombstone GC + single run):")
    start = time.perf_counter()
    store.compact()
    print(f"  compacted to {store.runs[0].keys.size:,} live entries "
          f"in {time.perf_counter() - start:.2f}s; {store}")


if __name__ == "__main__":
    main()
