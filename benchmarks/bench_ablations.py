"""E12 — Ablations over the reproduction's own design choices.

Not a paper table; these benches justify the reproduction's own design
decisions and quantify the paper's qualitative remarks:

* search-strategy ablation (Section 3.4): error-bounded binary vs
  biased binary vs biased quaternary vs bound-free exponential search,
  in comparisons per lookup;
* second-stage size sweep: error window vs leaf count (the Figure 4
  size/accuracy dial);
* stage-count ablation: 2-stage vs 3-stage RMI, both compiled;
* misprediction fix-up rate: how often the Section 3.4 widening path
  fires for absent keys (the monotonicity discussion).
"""

from __future__ import annotations

import numpy as np

from repro.bench import Table, compare_lookups, measure_lookups
from repro.core import RecursiveModelIndex

from conftest import comparisons_per_lookup, console, query_mix, show_table

STRATEGIES = ("binary", "biased_binary", "biased_quaternary", "exponential")


def test_ablation_search_strategies(fig4_datasets, query_rng):
    keys = fig4_datasets["weblogs"]
    leaves = max(keys.size // 2_000, 8)
    queries = query_mix(keys, query_rng, count=1_500)
    table = Table(
        "Ablation: last-mile search strategy (weblogs)",
        ["strategy", "lookup ns", "comparisons/lookup"],
    )
    comparisons = {}
    for strategy in STRATEGIES:
        index = RecursiveModelIndex(
            keys, stage_sizes=(1, leaves), search_strategy=strategy
        )
        result = measure_lookups(index.lookup, queries, repeats=2)
        index.stats.reset()
        for q in queries:
            index.lookup(q)
        per_lookup = comparisons_per_lookup(index)
        comparisons[strategy] = per_lookup
        table.add_row(strategy, f"{result.mean_ns:.0f}", f"{per_lookup:.1f}")
    show_table(table)

    # Bounded strategies beat unbounded exponential in comparisons;
    # biasing the first probe cannot hurt the bounded search much.
    assert comparisons["binary"] <= comparisons["exponential"] * 1.2
    assert comparisons["biased_binary"] <= comparisons["binary"] + 1.5
    console(
        "[ablation search] comparisons/lookup: "
        + ", ".join(f"{s}={c:.1f}" for s, c in comparisons.items())
    )


def test_ablation_leaf_count_sweep(fig4_datasets):
    keys = fig4_datasets["lognormal"]
    table = Table(
        "Ablation: second-stage size vs error window (lognormal)",
        ["leaves", "mean window", "max window", "size bytes"],
    )
    windows = []
    for leaves in (16, 64, 256, 1024, 4096):
        index = RecursiveModelIndex(keys, stage_sizes=(1, leaves))
        windows.append(index.mean_error_window)
        table.add_row(
            str(leaves),
            f"{index.mean_error_window:.1f}",
            str(index.max_error_window),
            str(index.size_bytes()),
        )
    show_table(table)
    # More experts -> monotonically smaller mean windows (Section 3.2).
    assert all(a >= b * 0.9 for a, b in zip(windows, windows[1:]))
    assert windows[-1] < windows[0] / 4
    console(f"[ablation leaves] windows: {['%.0f' % w for w in windows]}")


def test_ablation_stage_count(fig4_datasets, query_rng):
    """Both rows run the compiled engine: an internal stage is one more
    affine gather in the plan's routing function."""
    keys = fig4_datasets["weblogs"]
    batch = 10_000
    batches = [query_rng.choice(keys, batch) for _ in range(24)]
    leaves = max(keys.size // 2_000, 8)
    two_stage = RecursiveModelIndex(keys, stage_sizes=(1, leaves))
    three_stage = RecursiveModelIndex(keys, stage_sizes=(1, 32, leaves))
    assert three_stage._plan is not None
    for queries in batches[:4]:
        expected = np.searchsorted(keys, queries)
        np.testing.assert_array_equal(two_stage.lookup_batch(queries), expected)
        np.testing.assert_array_equal(
            three_stage.lookup_batch(queries), expected
        )
    two_ns, three_ns, ratio = compare_lookups(
        two_stage.lookup_batch, three_stage.lookup_batch, batches, chunk=1
    )
    table = Table(
        f"Ablation: number of RMI stages (weblogs, {batch:,}-key "
        "lookup_batch)",
        ["stages", "ns/key", "mean window", "size bytes"],
    )
    for stages, index, result in (
        ("2", two_stage, two_ns), ("3", three_stage, three_ns)
    ):
        table.add_row(
            stages, f"{result.mean_ns / batch:.0f}",
            f"{index.mean_error_window:.1f}", str(index.size_bytes()),
        )
    show_table(table)
    # The intermediate stage costs one gather per query, not a second
    # engine: it must stay within 1.3x of the two-stage index.
    assert ratio <= 1.3
    console(
        f"[ablation stages] 3/2-stage batch ratio={ratio:.2f}, "
        f"windows {two_stage.mean_error_window:.0f} / "
        f"{three_stage.mean_error_window:.0f}"
    )


def test_ablation_fixup_rate(fig4_datasets, query_rng):
    """How often the Section 3.4 widening fix-up fires for absent keys."""
    table = Table(
        "Ablation: misprediction fix-up rate (absent-key lookups)",
        ["dataset", "fixups / 10k absent lookups"],
    )
    rates = {}
    for name, keys in fig4_datasets.items():
        index = RecursiveModelIndex(
            keys, stage_sizes=(1, max(keys.size // 2_000, 8))
        )
        absent = [
            float(q)
            for q in query_rng.integers(keys.min(), keys.max(), size=10_000)
        ]
        index.stats.reset()
        for q in absent:
            index.lookup(q)
        rates[name] = index.stats.fixups
        table.add_row(name, str(index.stats.fixups))
    show_table(table)
    # Fix-ups must be rare — the bounded search handles the bulk.
    for name, fixups in rates.items():
        assert fixups < 1_000, name
    console(f"[ablation fixups] {rates}")
