"""E7 — Table 1 / Appendix C: Hash-map alternative baselines.

Paper rows (lognormal data, 20-byte records unless noted):

    AVX Cuckoo, 32-bit value        31ns   99%
    AVX Cuckoo, 20-byte record      43ns   99%
    Comm. Cuckoo, 20-byte record    90ns   95%
    In-place chained w/ learned     35ns  100%

Shapes to reproduce: bigger payloads slow the AVX cuckoo down; the
corner-case-complete ("commercial") cuckoo is ~2x slower than the tuned
one; the in-place chained map with a learned hash is competitive at
100% utilization.
"""

from __future__ import annotations

import numpy as np

from repro.bench import Table, compare_lookups, measure_lookups
from repro.core import LearnedHashFunction
from repro.data import lognormal_keys
from repro.hashmap import (
    BucketizedCuckooHashMap,
    GenericCuckooHashMap,
    InPlaceChainedHashMap,
)

from conftest import console, scaled, show_table


def test_table1_hashmap_baselines(query_rng):
    keys = lognormal_keys(scaled(150_000), seed=42)
    values = np.arange(keys.size)
    queries = [int(q) for q in query_rng.choice(keys, 1_500)]

    avx_small = BucketizedCuckooHashMap(int(keys.size / 0.99), value_bytes=4)
    avx_record = BucketizedCuckooHashMap(int(keys.size / 0.99), value_bytes=12)
    for k, v in zip(keys, values):
        assert avx_small.insert(int(k), int(v))
        assert avx_record.insert(int(k), int(v))
    commercial = GenericCuckooHashMap(keys.size, value_bytes=12)
    for k, v in zip(keys, values):
        assert commercial.insert(int(k), int(v))
    learned_fn = LearnedHashFunction(
        keys, keys.size, stage_sizes=(1, max(keys.size // 10, 8))
    )
    inplace = InPlaceChainedHashMap(keys, values, learned_fn)

    rows = [
        ("AVX cuckoo, 32-bit value", avx_small),
        ("AVX cuckoo, 20-byte record", avx_record),
        ("Commercial cuckoo, 20-byte record", commercial),
        ("In-place chained w/ learned hash", inplace),
    ]
    table = Table(
        f"Table 1 / Appendix C: Hash-map baselines (lognormal, "
        f"n={keys.size:,})",
        ["architecture", "lookup ns", "utilization"],
    )
    for name, hash_map in rows:
        result = measure_lookups(hash_map.get, queries, repeats=2)
        table.add_row(
            name, f"{result.mean_ns:.0f}", f"{hash_map.utilization:.0%}"
        )
    show_table(table)

    # Shape assertions.
    _, _, vs_avx = compare_lookups(avx_record.get, commercial.get, queries)
    _, _, vs_inplace = compare_lookups(inplace.get, commercial.get, queries)
    assert avx_small.utilization > 0.95
    assert vs_avx > 1.0, "commercial should pay for generality"
    assert inplace.utilization == 1.0
    assert vs_inplace > 1.0
    # correctness spot check across all maps
    for name, hash_map in rows:
        for q in queries[:200]:
            expected = int(np.searchsorted(keys, q))
            assert hash_map.get(q) == expected, name
    console(
        f"[table1 shape] commercial cuckoo is {vs_avx:.2f}x the AVX cuckoo's "
        f"lookup time and {vs_inplace:.2f}x the in-place learned map's "
        f"@ {inplace.utilization:.0%}"
    )
