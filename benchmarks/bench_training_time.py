"""E11 — Section 3.6: training (build) cost of learned indexes.

Paper: "for 200M records training a simple RMI index does not take
much longer than a few seconds" because linear leaves have closed-form
fits and the top model converges on a sample.

This benchmark measures build time per key for the RMI (linear root and
NN root), the hybrid index, and the B-Tree baseline, plus the effect of
the Section 3.6 sampling trick on root training.
"""

from __future__ import annotations

from repro.bench import Table, measure_callable
from repro.btree import BTreeIndex
from repro.core import HybridIndex, RecursiveModelIndex
from repro.models import NeuralRegressionModel

from conftest import console, show_table


def test_training_time(fig4_datasets):
    keys = fig4_datasets["lognormal"]
    leaves = max(keys.size // 2_000, 8)
    table = Table(
        f"Section 3.6: build cost (lognormal, n={keys.size:,})",
        ["structure", "build seconds", "ns per key"],
    )
    rows = {}
    builders = [
        ("btree page=128", lambda: BTreeIndex(keys, page_size=128)),
        (
            "RMI linear root",
            lambda: RecursiveModelIndex(keys, stage_sizes=(1, leaves)),
        ),
        (
            "RMI NN root (sampled training)",
            lambda: RecursiveModelIndex(
                keys,
                stage_sizes=(1, leaves),
                root=lambda: NeuralRegressionModel(
                    hidden=(16,), epochs=5, max_train_samples=20_000
                ),
            ),
        ),
        (
            "hybrid threshold=128",
            lambda: HybridIndex(keys, stage_sizes=(1, leaves), threshold=128),
        ),
    ]
    for name, builder in builders:
        seconds = measure_callable(builder, repeats=1) / 1e9
        rows[name] = seconds
        table.add_row(
            name, f"{seconds:.2f}", f"{seconds / keys.size * 1e9:.0f}"
        )
    show_table(table)

    # Shape: closed-form training is the fast path — the sampled NN
    # root costs a multiple of the linear root's build.
    nn_vs_linear = (
        rows["RMI NN root (sampled training)"] / rows["RMI linear root"]
    )
    assert nn_vs_linear > 1.0
    console(
        f"[training shape] linear-root RMI builds at "
        f"{rows['RMI linear root'] / keys.size * 1e9:.0f}ns/key, "
        f"NN root {nn_vs_linear:.2f}x that"
    )
