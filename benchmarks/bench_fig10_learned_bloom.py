"""E5 — Figure 10: Learned Bloom filter memory footprint vs FPR.

Paper: URL blacklist keys, character-level GRU (W=16/32/128, E=32);
the learned filter (classifier + overflow filter) beats the standard
Bloom filter's memory at equal overall FPR across a wide range, with
different model sizes optimal at different FPR targets (W=16 at ~36%
saving at 1% FPR, 15% saving at 0.1%).

Shape to reproduce: the learned curves sit below the Bloom-filter curve
over a range of FPRs, and the *bigger* GRU only pays off (if at all) at
tighter FPRs — at loose FPRs its fixed model cost dominates.
"""

from __future__ import annotations

import numpy as np

from repro.bench import Table, format_bytes
from repro.bloom import BloomFilter
from repro.core import LearnedBloomFilter
from repro.data import url_dataset
from repro.models import GRUClassifier

from conftest import console, scaled, show_table

FPR_GRID = (0.02, 0.01, 0.005, 0.001)
WIDTHS = (16, 32)  # W=128 is gated behind REPRO_SCALE >= 4 (train cost)


def _train_gru(width, keys, train_negs, epochs=3):
    model = GRUClassifier(width=width, embedding_dim=32, max_length=48, seed=0)
    labels = np.array([1.0] * len(keys) + [0.0] * len(train_negs))
    model.fit(
        keys + train_negs,
        labels,
        epochs=epochs,
        batch_size=256,
        learning_rate=5e-3,
    )
    return model


def test_figure10_learned_bloom_footprint():
    n_keys = scaled(25_000)
    keys, negatives = url_dataset(n_keys, n_keys, seed=42)
    third = len(negatives) // 3
    train_negs = negatives[:third]
    validation = negatives[third:2 * third]
    test = negatives[2 * third:]

    from conftest import SCALE

    widths = WIDTHS + ((128,) if SCALE >= 4 else ())

    models = {w: _train_gru(w, keys, train_negs) for w in widths}

    table = Table(
        f"Figure 10: Memory footprint vs FPR (|K|={len(keys):,} URLs, "
        "learned = GRU + overflow filter)",
        ["target FPR", "bloom filter"]
        + [f"W={w},E=32" for w in widths]
        + [f"measured FPR (W={widths[0]})"],
    )
    results = {}
    for target in FPR_GRID:
        plain = BloomFilter.for_capacity(len(keys), target)
        row = [f"{target:.3%}", format_bytes(plain.size_bytes())]
        for width in widths:
            learned = LearnedBloomFilter(
                models[width], keys, validation, target_fpr=target
            )
            results[(target, width)] = (
                learned.size_bytes(),
                plain.size_bytes(),
                learned.measured_fpr(test),
                learned.false_negative_rate,
            )
            row.append(format_bytes(learned.size_bytes()))
        row.append(f"{results[(target, widths[0])][2]:.3%}")
        table.add_row(*row)
    show_table(table)

    # Shape assertions: learned beats plain somewhere on the curve, the
    # no-false-negative contract held everywhere (checked at build), and
    # measured FPR tracks the target.
    savings = {
        (target, width): 1 - size / plain
        for (target, width), (size, plain, _fpr, _fnr) in results.items()
    }
    best = max(savings.values())
    assert best > 0.1, "learned filter never beat the standard filter"
    for (target, width), (_s, _p, fpr, _f) in results.items():
        assert fpr <= target * 3 + 0.002, (target, width, fpr)
    # model size is constant, so savings must grow as the FPR tightens
    w0 = widths[0]
    assert savings[(FPR_GRID[-1], w0)] > savings[(FPR_GRID[0], w0)]
    console(
        "[fig10 shape] savings: "
        + ", ".join(
            f"p*={t:.3%}/W={w}: {s:+.0%}" for (t, w), s in sorted(savings.items())
        )
    )

    # Spot-check zero false negatives end to end.
    learned = LearnedBloomFilter(
        models[w0], keys, validation, target_fpr=0.01
    )
    assert all(k in learned for k in keys[:1_000])
