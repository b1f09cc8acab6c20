"""E13 — Appendix D: inserts (D.1) and paging (D.2), quantified.

The paper sketches both directions without numbers; this bench measures
the claims the sketches make:

* D.1 — "most if not all inserts will be appends ... updating the
  index structure becomes an O(1) operation": in-distribution appends
  must merge without retraining and cost far less per key than
  out-of-distribution inserts.  The appendix's delta buffer exists
  twice, and both designs take the same streams: the one-run
  ``WritableLearnedIndex`` must win reads after writes, the tiered
  ``LearnedLSMStore`` random inserts, each by >= 1.25x;
* D.2 — "use the predicted position with the min- and max-error to
  reduce the number of bytes which have to be read from a large page":
  the windowed partial read must cut transferred bytes by a large
  factor, and the common lookup must touch a single page.
"""

from __future__ import annotations

import numpy as np

from repro.bench import Table, compare_lookups, format_bytes, measure_callable
from repro.core import PagedLearnedIndex, WritableLearnedIndex
from repro.lsm import LearnedLSMStore

from conftest import console, scaled, show_table

DESIGNS = ("WritableLearnedIndex", "LearnedLSMStore")


def test_appendixD1_insert_workloads():
    n = scaled(400_000)
    base = np.arange(0, 4 * n, 4, dtype=np.int64)  # timestamp-like
    index = WritableLearnedIndex(
        base, stage_sizes=(1, max(n // 1_000, 8)), merge_threshold=5_000
    )
    store = LearnedLSMStore(base, base, background=False)

    def lsm_builds() -> int:
        return store.write_stats.seals + store.write_stats.compactions

    def run(batches):
        """One ``(us per insert, model builds, fast appends)`` row per
        design over the same stream; the writable index merges at the
        end, the store seals wherever its memtable fills."""
        retrains = index.retrains
        fast = index.fast_appends
        builds = lsm_builds()

        def writable():
            for batch in batches:
                index.insert_batch(batch)
            index.merge()

        def lsm():
            for batch in batches:
                store.insert_batch(batch)

        total = sum(len(batch) for batch in batches)
        writable_us = measure_callable(writable, repeats=1) / total / 1e3
        lsm_us = measure_callable(lsm, repeats=1) / total / 1e3
        return (
            (writable_us, index.retrains - retrains, index.fast_appends - fast),
            (lsm_us, lsm_builds() - builds, "-"),
        )

    top = int(base[-1])
    append_batches = [
        np.arange(top + 4 + i * 20_000, top + 4 + (i + 1) * 20_000, 4)
        for i in range(4)
    ]
    appends = run(append_batches)
    append_us, append_retrains, append_fast = appends[0]

    rng = np.random.default_rng(5)
    random_batches = [
        (rng.integers(1, 4 * n, size=6_000) | 1) for _ in range(3)
    ]
    randoms = run(random_batches)
    random_us, random_retrains, _ = randoms[0]
    random_lsm_us = randoms[1][0]

    # Read after write: one more stream, left in the writable index's
    # delta buffer (under its merge threshold) and the store's memtable.
    # Residues mod 8 keep the streams apart: base and appends 0 or 4,
    # random inserts odd, this stream 2, absent probes 6.
    unmerged = rng.integers(0, n // 2, size=2_927) * 8 + 2
    index.insert_batch(unmerged)
    store.insert_batch(unmerged)
    assert index.delta_size > 0
    probes = np.concatenate([
        rng.choice(base, 1_000),
        rng.choice(np.concatenate(append_batches + random_batches), 500),
        rng.choice(unmerged, 500),
        rng.integers(0, n // 2, 1_000) * 8 + 6,  # absent
    ])
    rng.shuffle(probes)
    probes = probes.tolist()
    assert [index.contains(q) for q in probes] == [
        store.contains(q) for q in probes
    ]
    read, read_lsm, read_ratio = compare_lookups(
        index.contains, store.contains, probes
    )

    table = Table(
        f"Appendix D.1: the two delta-buffer designs on one stream (base "
        f"n={base.size:,}; writable merge threshold 5k, LSM memtable 8k)",
        ["workload", "design", "us per insert", "model builds",
         "fast appends"],
    )
    for workload, rows in (
        ("appends (in-distribution)", appends), ("random inserts", randoms)
    ):
        for design, (us, builds, fast) in zip(DESIGNS, rows):
            table.add_row(workload, design, f"{us:.2f}", builds, fast)
    show_table(table)
    reads = Table(
        "Appendix D.1: read after write (scalar contains, "
        f"{index.delta_size:,} keys unmerged, a quarter of the probes "
        "absent)",
        ["design", "ns per read", ""],
    )
    reads.add_row(DESIGNS[0], f"{read.mean_ns:.0f}", "1.00x")
    reads.add_row(DESIGNS[1], f"{read_lsm.mean_ns:.0f}", f"{read_ratio:.2f}x")
    show_table(reads)

    # The paper's claim: appends are the cheap case.
    assert append_retrains == 0
    assert append_fast >= 1
    assert random_us / append_us > 1.0
    # Each kept design wins its column: the store takes inserts, the
    # one-run index reads.
    assert random_us / random_lsm_us >= 1.25
    assert read_ratio >= 1.25
    # correctness after both workloads
    assert index.contains(top + 8)
    assert index.contains(int(random_batches[0][0]))
    assert not index.contains(2)
    console(
        f"[appD1 shape] appends {append_us:.1f}us/insert with 0 retrains vs "
        f"random {random_us:.1f}us/insert with {random_retrains} retrains "
        f"({random_us / append_us:.1f}x); the LSM store inserts randomly "
        f"{random_us / random_lsm_us:.0f}x faster, the writable index reads "
        f"{read_ratio:.1f}x faster"
    )


def test_appendixD2_paging_io(fig4_datasets, query_rng):
    keys = fig4_datasets["lognormal"]
    page_size = 1_024
    queries = [float(q) for q in query_rng.choice(keys, 800)]

    full = PagedLearnedIndex(
        keys,
        page_size=page_size,
        stage_sizes=(1, max(keys.size // 250, 16)),
        partial_reads=False,
    )
    partial = PagedLearnedIndex(
        keys,
        page_size=page_size,
        stage_sizes=(1, max(keys.size // 250, 16)),
        partial_reads=True,
    )
    for q in queries:
        full.lookup(q)
        partial.lookup(q)
    full_reads, full_bytes = full.io_stats()
    partial_reads, partial_bytes = partial.io_stats()

    table = Table(
        f"Appendix D.2: paged lookups (lognormal n={keys.size:,}, "
        f"{page_size}-key pages, shuffled physical layout)",
        ["mode", "page reads/lookup", "bytes/lookup", "index size"],
    )
    table.add_row(
        "full-page reads",
        f"{full_reads / len(queries):.2f}",
        f"{full_bytes / len(queries):.0f}",
        format_bytes(full.size_bytes()),
    )
    table.add_row(
        "windowed partial reads",
        f"{partial_reads / len(queries):.2f}",
        f"{partial_bytes / len(queries):.0f}",
        format_bytes(partial.size_bytes()),
    )
    show_table(table)

    # Appendix D.2's claims.
    assert full_reads / len(queries) < 1.7     # ~one page per lookup
    assert partial_bytes < full_bytes / 4      # window bounds the bytes
    # correctness through the page store
    for q in queries[:150]:
        page, slot = full.lookup(q)
        assert page * page_size + slot == int(np.searchsorted(keys, q))
    console(
        f"[appD2 shape] {full_reads / len(queries):.2f} reads/lookup; "
        f"partial reads cut bytes {full_bytes / max(partial_bytes, 1):.1f}x"
    )
