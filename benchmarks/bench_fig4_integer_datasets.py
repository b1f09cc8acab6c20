"""E1 — Figure 4: Learned Index vs B-Tree on Maps / Weblogs / Lognormal.

Regenerates the paper's main table: for each dataset, B-Trees at page
sizes 32..512 and 2-stage RMIs at four second-stage sizes, reporting
size (with factor vs the page-128 B-Tree), total lookup time (with
speedup factor) and model execution time (with share of total).

Paper shape to reproduce: the learned index is faster than the best
B-Tree while being one to two orders of magnitude smaller, and larger
second stages trade size for accuracy.  Absolute ns are Python-scale;
the Section 2.1 cost model's ns (also printed) are paper-scale.
"""

from __future__ import annotations

from repro.bench import (
    DEFAULT_COST_MODEL,
    Table,
    compare_lookups,
    factor,
    format_bytes,
    measure_lookups,
    percentage,
)
from repro.btree import BTreeIndex
from repro.core import RecursiveModelIndex

from conftest import console, query_mix, show_table

PAGE_SIZES = (32, 64, 128, 256, 512)
REFERENCE_PAGE = 128
#: Second-stage sizes as keys-per-leaf ratios; the paper's 10k..200k
#: over 200M keys is 20000..1000 keys per leaf.
KEYS_PER_LEAF = (20_000, 4_000, 2_000, 1_000)


def _measure_btree(keys, queries, page_size):
    tree = BTreeIndex(keys, page_size=page_size)
    total = measure_lookups(tree.lookup, queries, repeats=2)
    model = measure_lookups(tree.find_page, queries, repeats=2)
    cost = DEFAULT_COST_MODEL.btree_lookup(
        tree.height, page_size, tree.size_bytes()
    )
    return tree, total.mean_ns, model.mean_ns, cost


def _measure_rmi(keys, queries, leaves):
    index = RecursiveModelIndex(keys, stage_sizes=(1, leaves))
    total = measure_lookups(index.lookup, queries, repeats=2)
    model = measure_lookups(index.predict, queries, repeats=2)
    index.stats.reset()
    for q in queries:
        index.lookup(q)
    cost = DEFAULT_COST_MODEL.learned_lookup(
        index.model_op_count(), index.stats.mean_window, index.size_bytes()
    )
    return index, total.mean_ns, model.mean_ns, cost


def test_figure4_tables(fig4_datasets, query_rng):
    reference = {}
    for name, keys in fig4_datasets.items():
        queries = query_mix(keys, query_rng)
        table = Table(
            f"Figure 4 [{name}]: Learned Index vs B-Tree "
            f"(n={keys.size:,}, measured Python ns + modeled paper ns)",
            [
                "config",
                "size",
                "size vs ref",
                "lookup ns",
                "speedup",
                "model ns",
                "model share",
                "paper-model ns",
            ],
        )
        btree_rows = {}
        for page in PAGE_SIZES:
            tree, total_ns, model_ns, cost = _measure_btree(
                keys, queries, page
            )
            btree_rows[page] = (tree.size_bytes(), total_ns, model_ns, cost)
            if page == REFERENCE_PAGE:
                reference[name] = tree
        ref_size, ref_ns, _, _ = btree_rows[REFERENCE_PAGE]
        for page in PAGE_SIZES:
            size, total_ns, model_ns, cost = btree_rows[page]
            table.add_row(
                f"btree page={page}",
                format_bytes(size),
                factor(size, ref_size),
                f"{total_ns:.0f}",
                factor(ref_ns, total_ns),
                f"{model_ns:.0f}",
                percentage(model_ns, total_ns),
                f"{cost.total_ns:.0f}",
            )
        for keys_per_leaf in KEYS_PER_LEAF:
            leaves = max(keys.size // keys_per_leaf, 4)
            index, total_ns, model_ns, cost = _measure_rmi(
                keys, queries, leaves
            )
            table.add_row(
                f"learned 2nd-stage={leaves}",
                format_bytes(index.size_bytes()),
                factor(index.size_bytes(), ref_size),
                f"{total_ns:.0f}",
                factor(ref_ns, total_ns),
                f"{model_ns:.0f}",
                percentage(model_ns, total_ns),
                f"{cost.total_ns:.0f}",
            )
        show_table(table)

    # Shape assertions (the paper's qualitative claims): smaller *and*
    # faster than the page-128 B-Tree, both timed in one paired pass.
    for name, keys in fig4_datasets.items():
        queries = query_mix(keys, query_rng, count=1_000)
        tree = reference[name]
        leaves = max(keys.size // 2_000, 4)
        index = RecursiveModelIndex(keys, stage_sizes=(1, leaves))
        learned, btree, speedup = compare_lookups(
            index.lookup, tree.lookup, queries
        )
        assert index.size_bytes() < tree.size_bytes(), name
        assert speedup > 1.0, name
        console(
            f"[fig4 shape] {name}: learned {learned.mean_ns:.0f}ns vs "
            f"btree-128 {btree.mean_ns:.0f}ns ({speedup:.2f}x), size "
            f"{format_bytes(index.size_bytes())} vs "
            f"{format_bytes(tree.size_bytes())} "
            f"({tree.size_bytes() / index.size_bytes():.1f}x smaller)"
        )
