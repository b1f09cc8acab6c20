"""E9 — Section 2.3: the naive learned index.

Paper narrative numbers (200M weblog records): a 2-layer 32-wide net
invoked through Tensorflow costs ~80,000ns per prediction, vs ~300ns
for a B-Tree traversal and ~900ns for binary search over all data.

Shape to reproduce: framework-style invocation is orders of magnitude
slower than a B-Tree lookup; full binary search is ~2-4x slower than
the B-Tree; and the *same network* behind LIF-style weight extraction
(our scalar path) closes most of the framework gap.
"""

from __future__ import annotations

import numpy as np

from repro.bench import DEFAULT_COST_MODEL, Table, compare_lookups
from repro.btree import BTreeIndex, binary_search
from repro.data import weblog_timestamps
from repro.models import MLP, FrameworkModel, NeuralRegressionModel

from conftest import console, query_mix, scaled, show_table


def test_sec23_naive_learned_index(query_rng):
    keys = weblog_timestamps(scaled(300_000), seed=42)
    queries = query_mix(keys, query_rng, count=400)

    # The paper's naive model: two hidden layers, 32 wide.
    adapter = NeuralRegressionModel(
        hidden=(32, 32), epochs=4, seed=0, max_train_samples=20_000
    )
    adapter.fit(keys.astype(np.float64), np.arange(keys.size, dtype=np.float64))
    framework = FrameworkModel(adapter.net)

    tree = BTreeIndex(keys, page_size=128)

    # The model class LIF actually code-generates at ~30ns: linear.
    from repro.models import LinearModel
    from repro.util import scalar_view

    lif_linear = LinearModel().fit(
        keys.astype(np.float64), np.arange(keys.size, dtype=np.float64)
    )
    keys_view = scalar_view(keys)

    # Paired passes, one per asserted ordering (chunks of 50: the 400
    # queries give 8 pairs per pass).
    btree_ns, framework_ns, framework_vs_btree = compare_lookups(
        tree.lookup, framework.predict, queries, chunk=50
    )
    scalar_ns, _, framework_vs_lif = compare_lookups(
        lif_linear.predict, framework.predict, queries, chunk=50
    )
    _, binary_ns, binary_vs_btree = compare_lookups(
        tree.lookup, lambda q: binary_search(keys_view, q), queries, chunk=50
    )

    modeled_framework = DEFAULT_COST_MODEL.framework_model_lookup(
        adapter.op_count()
    )
    modeled_btree = DEFAULT_COST_MODEL.btree_lookup(
        tree.height, 128, tree.size_bytes()
    )
    modeled_binary = DEFAULT_COST_MODEL.binary_search_lookup(keys.size)

    table = Table(
        f"Section 2.3: naive learned index (weblogs, n={keys.size:,})",
        ["path", "measured ns", "modeled paper ns", "paper reports"],
    )
    table.add_row(
        "NN 2x32 via framework invocation",
        f"{framework_ns.mean_ns:.0f}",
        f"{modeled_framework.total_ns:.0f}",
        "~80,000",
    )
    table.add_row(
        "LIF code-generated linear model",
        f"{scalar_ns.mean_ns:.0f}",
        "-",
        "~30 (Section 3.1)",
    )
    table.add_row(
        "B-Tree traversal (page 128)",
        f"{btree_ns.mean_ns:.0f}",
        f"{modeled_btree.total_ns:.0f}",
        "~300",
    )
    table.add_row(
        "binary search over all data",
        f"{binary_ns.mean_ns:.0f}",
        f"{modeled_binary.total_ns:.0f}",
        "~900",
    )
    show_table(table)

    # Shape assertions.  Note the fidelity limit: the paper's binary-
    # search-vs-B-Tree gap (3x) is a cache effect, so it shows in the
    # cost model, not in interpreter wall-clock where per-probe cost is
    # flat.  Framework/B-Tree reads 4.6-5.5x in paired passes (the
    # traversal is itself ~4us of interpreter work); the paper's orders
    # of magnitude show against the code-generated linear model and in
    # the cost model.
    assert framework_vs_btree > 3
    assert framework_vs_lif > 20
    # Wall-clock binary-vs-B-Tree is interpreter noise (both are a
    # handful of probes); sanity-bound it loosely and assert the real
    # effect on the deterministic cost model.
    assert 0.2 < binary_vs_btree < 5.0
    assert modeled_binary.total_ns > 1.5 * modeled_btree.total_ns
    assert modeled_framework.total_ns > 100 * modeled_btree.total_ns
    console(
        f"[sec23 shape] framework/btree = "
        f"{framework_vs_btree:.2f}x (paper ~267x), "
        f"framework/LIF-linear = {framework_vs_lif:.1f}x, "
        f"binary/btree = {binary_vs_btree:.2f}x, "
        f"modeled binary/btree = "
        f"{modeled_binary.total_ns / modeled_btree.total_ns:.1f}x (paper ~3x)"
    )
