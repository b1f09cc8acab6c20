"""Scenario: a secondary index over string document ids.

Section 3.7.2 of the paper: a web-scale product keeps a secondary index
over non-continuous document-id strings.  This example builds the
learned string index (token-vector root + linear leaves + per-leaf
error bounds), turns on the hybrid B-Tree fallback for hard regions,
and serves prefix-range scans — the classic "all documents in shard
17" query.  The baseline is the same :class:`repro.btree.BTreeIndex`
the numeric benchmarks race, over the id strings.

Run:  python examples/document_catalog.py
"""

import bisect
import time

from repro.btree import BTreeIndex
from repro.core import StringRMI
from repro.data import string_dataset


def main() -> None:
    n = 80_000
    print(f"generating {n:,} document ids...")
    doc_ids = string_dataset(n, seed=17)
    print(f"  e.g. {doc_ids[0]!r} ... {doc_ids[-1]!r}")

    print("building learned string index (MLP root, hybrid threshold 512)...")
    start = time.perf_counter()
    index = StringRMI(
        doc_ids,
        num_leaves=max(n // 100, 16),
        max_length=20,
        hidden=(16,),
        epochs=60,
        hybrid_threshold=512,
        search_strategy="biased_quaternary",
    )
    print(f"  built in {time.perf_counter() - start:.1f}s; "
          f"size {index.size_bytes() / 1024:.0f} KB, "
          f"mean error window {index.mean_error_window:.0f}, "
          f"{index.replaced_leaf_count} leaves fell back to B-Trees")

    btree = BTreeIndex(doc_ids, page_size=128)
    print(f"  string B-Tree baseline: {btree.size_bytes() / 1024:.0f} KB")

    # Point lookups (existence checks).
    assert index.contains(doc_ids[12_345])
    assert not index.contains(doc_ids[12_345] + "!")

    # Prefix scan: every document in shard "17".
    lo = index.lookup("17-")
    hi = index.lookup("17." )  # '.' sorts right after '-'
    shard = doc_ids[lo:hi]
    print(f"\nshard '17' holds {len(shard):,} documents "
          f"(positions {lo:,}..{hi:,})")
    assert all(d.startswith("17-") for d in shard)

    # Range query between two full ids.
    low_key, high_key = doc_ids[40_000], doc_ids[40_050]
    window = index.range_query(low_key, high_key)
    assert window == doc_ids[40_000:40_051]
    print(f"range_query over 51 ids verified against the sorted array")

    # Correctness sweep against bisect, then latency comparison.
    import numpy as np

    rng = np.random.default_rng(2)
    probes = [doc_ids[i] for i in rng.integers(0, n, 5_000)]
    for q in probes[:500]:
        assert index.lookup(q) == bisect.bisect_left(doc_ids, q)
    for name, structure in (("learned", index), ("btree", btree)):
        start = time.perf_counter()
        for q in probes:
            structure.lookup(q)
        print(f"  {name:>8}: "
              f"{(time.perf_counter() - start) / len(probes) * 1e9:6.0f} "
              "ns/lookup")
    print("\nnote: in wall-clock Python the MLP root pays ~10us of numpy "
          "per-op overhead\nthat compiled inference does not (the paper "
          "measures ~500ns for this model);\nsee benchmarks/"
          "bench_fig6_string_dataset.py for the cost-model comparison.")


if __name__ == "__main__":
    main()
