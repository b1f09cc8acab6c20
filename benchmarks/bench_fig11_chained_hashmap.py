"""E6 — Figure 11 / Appendix B: Model vs Random hash in a chained map.

Paper table: separate-chaining map with 20-byte records at slot budgets
of 75% / 100% / 125% of the key count, on all three integer datasets;
columns: lookup time, bytes wasted in empty slots, and the space factor
of model-hash waste vs random-hash waste (e.g. Maps 100%: 0.18GB vs
0.84GB, 0.21x).

Shape to reproduce: the model hash wastes a fraction of the random
hash's empty-slot memory at 75-100% budgets, the advantage shrinking at
125%; lookup times stay within ~1.6x of random hashing.
"""

from __future__ import annotations

import numpy as np

from repro.bench import Table, compare_lookups, format_bytes
from repro.core import LearnedHashFunction
from repro.hashmap import ChainingHashMap, RandomHashFunction

from conftest import console, query_mix, show_table

SLOT_BUDGETS = (0.75, 1.0, 1.25)


def _build(keys, values, hash_fn, slots):
    hash_map = ChainingHashMap(slots, hash_fn)
    hash_map.insert_batch(keys, values)
    return hash_map


def test_figure11_chained_hashmap(fig4_datasets, query_rng):
    table = Table(
        "Figure 11 / Appendix B: Model vs Random Hash-map "
        "(20-byte records, 24-byte slots)",
        [
            "dataset",
            "slots",
            "hash",
            "lookup ns",
            "empty-slot bytes",
            "space factor",
        ],
    )
    shapes = {}
    for name, keys in fig4_datasets.items():
        values = np.arange(keys.size)
        learned_fn_cache = {}
        for budget in SLOT_BUDGETS:
            slots = int(keys.size * budget)
            learned_fn = learned_fn_cache.get(budget)
            if learned_fn is None:
                learned_fn = LearnedHashFunction(
                    keys, slots, stage_sizes=(1, max(keys.size // 10, 8))
                )
                learned_fn_cache[budget] = learned_fn
            random_fn = RandomHashFunction(slots, seed=9)
            model_map = _build(keys, values, learned_fn, slots)
            random_map = _build(keys, values, random_fn, slots)
            queries = [int(q) for q in query_rng.choice(keys, 1_500)]
            random_ns, model_ns, slowdown = compare_lookups(
                random_map.get, model_map.get, queries, repeats=2
            )
            space_factor = (
                model_map.empty_slot_bytes()
                / max(random_map.empty_slot_bytes(), 1)
            )
            shapes[(name, budget)] = (slowdown, space_factor)
            table.add_row(
                name,
                f"{budget:.0%}",
                "model",
                f"{model_ns.mean_ns:.0f}",
                format_bytes(model_map.empty_slot_bytes()),
                f"{space_factor:.2f}x",
            )
            table.add_row(
                name,
                f"{budget:.0%}",
                "random",
                f"{random_ns.mean_ns:.0f}",
                format_bytes(random_map.empty_slot_bytes()),
                "",
            )
    show_table(table)

    # Shape assertions (paper: Maps 100% slots -> 0.21x space factor,
    # advantage shrinking at 125%).
    assert shapes[("maps", 1.0)][1] < 0.45
    for name in fig4_datasets:
        slowdown, space_factor = shapes[(name, 1.0)]
        assert space_factor < 1.0, name
        assert shapes[(name, 1.25)][1] >= space_factor * 0.8
        assert slowdown < 2.5, name
    console(
        "[fig11 shape] @100% space factor / model-vs-random lookup time: "
        + ", ".join(
            "{}={:.2f}x/{:.2f}x".format(name, *reversed(shapes[(name, 1.0)]))
            for name in fig4_datasets
        )
    )
