"""Scenario: racing the index families on one dataset (PR 10).

Three learned indexes answer the same queries over the same sorted key
column through the same engine — the RMI from the paper, a PGM-index
(recursive ε-bounded segments) and a RadixSpline (spline knots behind a
radix table).  Because every family compiles to the engine's flat plan
tables and every result is verified by bounded search, they can only
differ in *speed and size*, never in answers — which this example
checks against ``np.searchsorted`` before printing the comparison.

The measured family comparison (four workloads, bounds, oracle
checks) lives in ``benchmarks/e2e``; this is the single-dataset tour
of the same accounting surface.

Run:  PYTHONPATH=src python examples/index_comparison.py [--n 500000]
"""

import argparse
import time

import numpy as np

from repro import PGMIndex, RadixSplineIndex, RecursiveModelIndex
from repro.bench import Table, factor, format_bytes


def build_families(keys: np.ndarray):
    leaves = max(min(10_000, keys.size // 100), 4)
    yield "RMI (2-stage)", lambda: RecursiveModelIndex(
        keys, stage_sizes=(1, leaves)
    )
    yield "PGM-index", lambda: PGMIndex(keys)
    yield "RadixSpline", lambda: RadixSplineIndex(keys)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=500_000)
    parser.add_argument("--queries", type=int, default=100_000)
    parser.add_argument("--reps", type=int, default=3)
    args = parser.parse_args()

    rng = np.random.default_rng(7)
    keys = np.sort(rng.integers(0, 1 << 40, args.n, dtype=np.int64))
    queries = np.concatenate([
        rng.choice(keys, args.queries // 2),
        rng.integers(0, 1 << 40, args.queries // 2, dtype=np.int64),
    ])
    rng.shuffle(queries)
    expected = np.searchsorted(keys, queries, side="left")

    table = Table(
        f"Index families on {args.n:,} uniform int64 keys "
        f"({args.queries:,} point queries)",
        ["family", "build", "", "size", "window μ/max", "lookups/s", ""],
    )
    baseline_build = baseline_rate = None
    for name, make in build_families(keys):
        start = time.perf_counter()
        index = make()
        build_s = time.perf_counter() - start

        best = float("inf")
        for _ in range(args.reps):
            start = time.perf_counter()
            got = index.lookup_batch(queries)
            best = min(best, time.perf_counter() - start)
        np.testing.assert_array_equal(got, expected)
        rate = queries.size / best

        if baseline_build is None:
            baseline_build, baseline_rate = build_s, rate
        table.add_row(
            name,
            f"{build_s * 1e3:.1f} ms",
            factor(build_s, baseline_build),
            format_bytes(index.size_bytes()),
            f"{index.mean_error_window:.1f}/{index.max_error_window}",
            f"{rate / 1e6:.2f}M",
            factor(rate, baseline_rate),
        )
    table.show()
    print("every family bit-identical to np.searchsorted on"
          f" {queries.size:,} queries (half present, half misses)")


if __name__ == "__main__":
    main()
