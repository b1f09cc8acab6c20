"""E4 — Figure 8: Reduction of hash conflicts.

Paper table (200M keys, table slots = #keys, 2-stage RMI with 100k
leaf models, no hidden layers, vs a MurmurHash3-like function):

    Map Data    35.3% -> 07.9%   (77.5% reduction)
    Web Data    35.3% -> 24.7%   (30.0% reduction)
    Log Normal  35.4% -> 25.9%   (26.7% reduction)

Shape to reproduce: random hashing sits at the birthday-paradox bound
(~1/e of keys conflict) on every dataset; the learned hash cuts
conflicts most on Maps and moderately on Weblogs/Lognormal.
"""

from __future__ import annotations

import numpy as np

from repro.bench import Table
from repro.core import LearnedHashFunction, conflict_stats
from repro.hashmap import RandomHashFunction

from conftest import console, show_table

PAPER_ROWS = {
    "maps": (0.353, 0.079, 0.775),
    "weblogs": (0.353, 0.247, 0.300),
    "lognormal": (0.354, 0.259, 0.267),
}


def test_figure8_conflict_reduction(fig4_datasets):
    table = Table(
        "Figure 8: Reduction of Conflicts (slots = #keys; "
        "learned = 2-stage RMI, linear models)",
        [
            "dataset",
            "% conflicts random",
            "% conflicts model",
            "reduction",
            "paper reduction",
        ],
    )
    measured = {}
    for name, keys in fig4_datasets.items():
        n = keys.size
        random_fn = RandomHashFunction(n, seed=7)
        learned_fn = LearnedHashFunction(
            keys, n, stage_sizes=(1, max(n // 10, 8))
        )
        random_stats = conflict_stats(random_fn, keys, n)
        learned_stats = conflict_stats(learned_fn, keys, n)
        reduction = 1 - learned_stats.conflict_rate / random_stats.conflict_rate
        measured[name] = (
            random_stats.conflict_rate,
            learned_stats.conflict_rate,
            reduction,
        )
        table.add_row(
            name,
            f"{random_stats.conflict_rate:.1%}",
            f"{learned_stats.conflict_rate:.1%}",
            f"{reduction:.1%}",
            f"{PAPER_ROWS[name][2]:.1%}",
        )
    show_table(table)

    # Shape assertions against the paper's table.
    for name, (rand_rate, model_rate, reduction) in measured.items():
        assert rand_rate == np.exp(-1) * 1.0 or abs(rand_rate - 1 / np.e) < 0.02
        assert model_rate < rand_rate, name
    assert measured["maps"][2] > 0.55
    assert 0.15 < measured["weblogs"][2] < 0.5
    assert 0.15 < measured["lognormal"][2] < 0.5
    assert measured["maps"][2] > measured["weblogs"][2]
    console(
        "[fig8 shape] reductions: "
        + ", ".join(f"{k}={v[2]:.1%}" for k, v in measured.items())
    )
