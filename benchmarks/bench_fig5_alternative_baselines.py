"""E2 — Figure 5: Alternative baselines on the Lognormal dataset.

Paper row set: lookup table with AVX search (199ns / 16.3MB), FAST
(189ns / 1024MB), fixed-size B-Tree + interpolation search (280ns /
1.5MB), multivariate learned index (105ns / 1.5MB).

Shape to reproduce: the learned index gives the best lookup time at a
small size; FAST's power-of-two allocation makes it by far the largest;
the fixed-size B-Tree (same byte budget as the learned index) is the
slowest of the four.
"""

from __future__ import annotations

from repro.bench import Table, compare_lookups, format_bytes, measure_lookups
from repro.btree import FASTTree, FixedSizeBTree, HierarchicalLookupTable
from repro.core import RecursiveModelIndex
from repro.data import lognormal_keys
from repro.models import MultivariateLinearModel

from conftest import (
    comparisons_per_lookup,
    console,
    query_mix,
    scaled,
    show_table,
)


def _build_learned(keys):
    """The paper's Figure 5 learned index: multivariate top, linear
    leaves."""
    return RecursiveModelIndex(
        keys,
        stage_sizes=(1, max(keys.size // 1_000, 8)),
        root=lambda: MultivariateLinearModel(
            features=("key", "log", "key^2")
        ),
    )


def test_figure5_alternative_baselines(query_rng):
    keys = lognormal_keys(scaled(400_000), seed=42)
    queries = query_mix(keys, query_rng)

    learned = _build_learned(keys)
    fixed = FixedSizeBTree(keys, size_budget_bytes=learned.size_bytes())
    contenders = [
        ("lookup table (AVX scan)", HierarchicalLookupTable(keys, group=64)),
        ("FAST (SIMD tree)", FASTTree(keys, page_size=1)),
        ("fixed-size btree + interpolation", fixed),
        ("multivariate learned index", learned),
    ]

    table = Table(
        f"Figure 5: Alternative baselines on Lognormal (n={keys.size:,})",
        ["structure", "lookup ns", "size"],
    )
    measured = {}
    for name, index in contenders:
        result = measure_lookups(index.lookup, queries, repeats=2)
        measured[name] = (result.mean_ns, index.size_bytes())
        table.add_row(name, f"{result.mean_ns:.0f}", format_bytes(index.size_bytes()))
    show_table(table)

    learned_ns, learned_size = measured["multivariate learned index"]
    _, fast_size = measured["FAST (SIMD tree)"]
    _, fixed_size = measured["fixed-size btree + interpolation"]
    # Each baseline's lookup time over the learned index's, paired.
    slower = {
        name: compare_lookups(learned.lookup, index.lookup, queries)[2]
        for name, index in contenders[:-1]
    }
    fixed_work = comparisons_per_lookup(fixed) / comparisons_per_lookup(
        learned
    )

    # Paper shapes: learned wins on time; FAST is the giant; the
    # size-matched fixed B-Tree is slower than the learned index.  That
    # last gap is a steady 1.15x of wall clock in the interpreter — too
    # thin to assert with noise headroom — so it is asserted on its
    # cause, comparisons per lookup, which is exact.
    assert slower["lookup table (AVX scan)"] > 1.0
    assert slower["FAST (SIMD tree)"] > 1.0
    assert fixed_work > 1.0
    assert fast_size > 10 * learned_size
    assert fixed_size <= learned_size * 1.1
    console(
        f"[fig5 shape] learned={learned_ns:.0f}ns/{format_bytes(learned_size)}, "
        f"FAST size blowup {fast_size / learned_size:.0f}x, slower by "
        + ", ".join(f"{name}: {r:.2f}x" for name, r in slower.items())
        + f"; fixed-btree comparisons/lookup {fixed_work:.2f}x at equal size"
    )
