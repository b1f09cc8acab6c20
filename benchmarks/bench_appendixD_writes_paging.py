"""E13 — Appendix D: inserts (D.1) and paging (D.2), quantified.

The paper sketches both directions without numbers; this bench measures
the claims the sketches make:

* D.1 — "most if not all inserts will be appends ... updating the
  index structure becomes an O(1) operation": in-distribution appends
  must merge without retraining and cost far less per key than
  out-of-distribution inserts;
* D.2 — "use the predicted position with the min- and max-error to
  reduce the number of bytes which have to be read from a large page":
  the windowed partial read must cut transferred bytes by a large
  factor, and the common lookup must touch a single page.
"""

from __future__ import annotations

import numpy as np

from repro.bench import Table, format_bytes, measure_callable
from repro.core import PagedLearnedIndex, WritableLearnedIndex

from conftest import console, scaled, show_table


def test_appendixD1_insert_workloads():
    n = scaled(400_000)
    base = np.arange(0, 4 * n, 4, dtype=np.int64)  # timestamp-like
    index = WritableLearnedIndex(
        base, stage_sizes=(1, max(n // 1_000, 8)), merge_threshold=5_000
    )

    def run(batches):
        retrains = index.retrains
        fast = index.fast_appends

        def workload():
            for batch in batches:
                index.insert_batch(batch)
            index.merge()

        total = sum(len(batch) for batch in batches)
        return (
            measure_callable(workload, repeats=1) / total / 1e3,
            index.retrains - retrains,
            index.fast_appends - fast,
        )

    top = int(base[-1])
    append_batches = [
        np.arange(top + 4 + i * 20_000, top + 4 + (i + 1) * 20_000, 4)
        for i in range(4)
    ]
    append_us, append_retrains, append_fast = run(append_batches)

    rng = np.random.default_rng(5)
    random_batches = [
        (rng.integers(1, 4 * n, size=6_000) | 1) for _ in range(3)
    ]
    random_us, random_retrains, _ = run(random_batches)

    table = Table(
        f"Appendix D.1: insert workloads (base n={base.size:,}, "
        "delta merge threshold 5k)",
        ["workload", "us per insert", "retrains", "fast appends"],
    )
    table.add_row("appends (in-distribution)", f"{append_us:.1f}",
                  str(append_retrains), str(append_fast))
    table.add_row("random inserts", f"{random_us:.1f}",
                  str(random_retrains), "0")
    show_table(table)

    # The paper's claim: appends are the cheap case.
    assert append_retrains == 0
    assert append_fast >= 1
    assert random_us / append_us > 1.0
    # correctness after both workloads
    assert index.contains(top + 8)
    assert index.contains(int(random_batches[0][0]))
    assert not index.contains(2)
    console(
        f"[appD1 shape] appends {append_us:.1f}us/insert with 0 retrains vs "
        f"random {random_us:.1f}us/insert with {random_retrains} retrains "
        f"({random_us / append_us:.1f}x)"
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
