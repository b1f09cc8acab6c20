"""E10 — Appendix A: error scaling of a constant-size CDF model.

Paper: the expected squared error between the model (the true CDF) and
the empirical CDF is F(x)(1-F(x))/N, so the expected *position* error
grows as O(sqrt(N)) — sub-linear, versus the O(N) error growth of a
constant-size B-Tree.

This benchmark measures the mean absolute position error of the true
CDF at increasing N, fits the log-log exponent (expected ~0.5), and
contrasts it against the linear growth of a fixed-size B-Tree's page
span.
"""

from __future__ import annotations

import numpy as np

from repro.bench import Table
from repro.theory import (
    ScalingMeasurement,
    dkw_bound,
    empirical_position_error,
    expected_position_error,
    fit_error_exponent,
)

from conftest import console, show_table

SIZES = (2_000, 8_000, 32_000, 128_000, 512_000)
SEEDS_PER_SIZE = 6

#: A constant-size B-Tree (fixed separator budget) has page span — and
#: hence worst-case search error — growing linearly with N.
FIXED_BTREE_SEPARATORS = 1_000


def _lognormal_sampler(n, seed):
    return np.random.default_rng(seed).lognormal(0.0, 2.0, size=n)


def _lognormal_cdf(x):
    from math import erf

    safe = np.maximum(x, 1e-300)
    z = np.log(safe) / 2.0
    return np.array([0.5 * (1.0 + erf(v / np.sqrt(2.0))) for v in z])


def test_appendixA_error_scaling():
    table = Table(
        "Appendix A: position error of a constant-size model vs N "
        f"(lognormal(0,2), {SEEDS_PER_SIZE} seeds per point)",
        [
            "N",
            "measured mean |err|",
            "analytic RMS @ F=0.5",
            "DKW bound (x N)",
            "fixed-size B-Tree page span",
        ],
    )
    measurements = []
    for n in SIZES:
        errors = [
            empirical_position_error(
                _lognormal_sampler, _lognormal_cdf, n, seed=seed
            ).mean_absolute_error
            for seed in range(SEEDS_PER_SIZE)
        ]
        mean_err = float(np.mean(errors))
        measurements.append(ScalingMeasurement(n, mean_err, 0.0))
        table.add_row(
            f"{n:,}",
            f"{mean_err:.1f}",
            f"{expected_position_error(np.array([0.5]), n)[0]:.1f}",
            f"{dkw_bound(n) * n:.0f}",
            f"{max(n // FIXED_BTREE_SEPARATORS, 1)}",
        )
    show_table(table)

    exponent = fit_error_exponent(measurements)
    console(
        f"[appA shape] fitted error exponent = {exponent:.3f} "
        "(theory: 0.5 for the model, 1.0 for a constant-size B-Tree)"
    )
    assert 0.35 < exponent < 0.65
    # DKW upper bound holds for every measured point (it bounds the sup,
    # hence also the mean).
    for m in measurements:
        assert m.mean_absolute_error < dkw_bound(m.n, alpha=0.001) * m.n
