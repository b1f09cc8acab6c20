"""SOSD-style benchmark matrix: dataset x index family x workload.

SOSD (Kipf et al., 2019) made learned-index claims falsifiable by
racing every structure over a fixed grid of datasets and workloads
instead of each paper's favourite distribution.  This benchmark is that
grid for the repo's families (ISSUE 10): every cell builds one index
over one dataset and drives one workload through the *batch* surface,
recording build time, index size, error-window width, lookup / range
throughput, and a bit-exactness verdict against ``np.searchsorted``.

Datasets
    ``uniform``     int64 uniform over [0, 2^40)
    ``lognormal``   heavy right tail (the paper's Figure 4 regime)
    ``clustered``   tight clusters separated by huge gaps
    ``u64_dense``   adjacent uint64 keys straddling 2^63 — beyond
                    float64 resolution, exercising the exact query core
    ``osm_like``    mixture of dense blobs over a sparse background
                    (OSM cell-id shape)
    ``strings``     unique 8-byte string prefixes, big-endian-encoded
                    to uint64 the way SOSD encodes its string keys

Families
    ``rmi``          the tuned two-stage RMI (the repo baseline)
    ``pgm``          PGM-index: recursive ε-bounded segments
    ``radix_spline`` spline knots behind a radix table
    ``gapped``       ALEX-style gapped array (the writable contender)

Workloads
    ``point``   uniform random probes, present and absent
    ``zipf``    zipfian-skewed point probes (hot-key heavy)
    ``range``   short scans, span ~ zipf over [1, 1000]
    ``mixed``   interleaved write + read rounds: writable families
                absorb inserts in place, read-optimized families pay a
                merge + rebuild per round — the honest write-path
                comparison

CI smoke gates (enforced with ``--smoke``; ISSUE 10 acceptance):

* every new family's uniform point throughput >= 0.5x the RMI's;
* at least one matrix cell where a new family beats the RMI —
  recorded from measurements, never assumed;
* PGM and RadixSpline builds within 5x of the vectorized RMI build;
* every cell bit-identical to its oracle.

Run standalone (it is not a pytest file):

    PYTHONPATH=src python benchmarks/bench_matrix.py
    PYTHONPATH=src python benchmarks/bench_matrix.py --smoke
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench import Table  # noqa: E402
from repro.core import RecursiveModelIndex  # noqa: E402
from repro.families import (  # noqa: E402
    GappedArrayIndex,
    PGMIndex,
    RadixSplineIndex,
)

SEED = 0x50D5

#: ISSUE 10 gate: each new family's uniform point throughput vs RMI.
MIN_THROUGHPUT_RATIO = 0.5

#: ISSUE 10 gate: PGM / RadixSpline build vs the vectorized RMI build.
MAX_BUILD_RATIO = 5.0

NEW_FAMILIES = ("pgm", "radix_spline", "gapped")

DATASETS = (
    "uniform", "lognormal", "clustered", "u64_dense", "osm_like", "strings",
)

WORKLOADS = ("point", "zipf", "range", "mixed")


# -- datasets ------------------------------------------------------------------

def make_dataset(name: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if name == "uniform":
        return np.sort(rng.integers(0, 1 << 40, n, dtype=np.int64))
    if name == "lognormal":
        return np.sort((np.exp(rng.normal(0, 2.0, n)) * 1e7).astype(np.int64))
    if name == "clustered":
        c = max(n // 60_000, 4)
        centers = rng.integers(0, 1 << 48, c)
        parts = [
            center + rng.integers(0, 40_000, n // c) for center in centers
        ]
        return np.sort(np.concatenate(parts).astype(np.int64))[:n]
    if name == "u64_dense":
        # Adjacent keys straddling 2^63: float64 collides neighbours,
        # so only the dtype-exact query core answers these correctly.
        start = np.uint64((1 << 63) - n // 2)
        keys = start + np.arange(n, dtype=np.uint64)
        return np.unique(keys)
    if name == "osm_like":
        blobs = 12
        centers = rng.integers(1 << 20, 1 << 44, blobs)
        widths = np.exp(rng.normal(14, 2, blobs))
        parts = [
            (centers[i] + rng.normal(0, widths[i], (3 * n) // (4 * blobs)))
            .astype(np.int64)
            for i in range(blobs)
        ]
        parts.append(rng.integers(0, 1 << 44, n // 4).astype(np.int64))
        keys = np.abs(np.concatenate(parts))
        return np.sort(keys)[:n]
    if name == "strings":
        # Unique 8-byte prefixes encoded big-endian into uint64 — the
        # SOSD string-key treatment; lexicographic order == integer
        # order, so every numeric family serves string keys unchanged.
        letters = np.array(list(b"abcdefghijklmnopqrstuvwxyz"), dtype=np.uint64)
        chars = letters[rng.integers(0, 26, (n, 8))]
        weights = (np.uint64(256) ** np.arange(7, -1, -1, dtype=np.uint64))
        return np.unique(chars @ weights)
    raise ValueError(name)


def point_queries(
    keys: np.ndarray, count: int, rng: np.random.Generator, skew: str
) -> np.ndarray:
    """Half present keys, half near-misses; ``zipf`` draws the present
    half hot-key heavy the way skewed OLTP reads do."""
    if skew == "zipf":
        ranks = rng.zipf(1.3, count // 2).astype(np.int64) - 1
        idx = np.minimum(ranks, keys.size - 1)
        present = keys[rng.permutation(keys.size)[idx % keys.size]]
    else:
        present = keys[rng.integers(0, keys.size, count // 2)]
    offsets = rng.integers(-3, 4, count - count // 2).astype(np.int64)
    near = keys[rng.integers(0, keys.size, count - count // 2)]
    if keys.dtype == np.uint64:
        near = (near.astype(np.int64) + offsets)
        near = np.maximum(near, 0).astype(np.uint64)
    else:
        near = near + offsets
    out = np.concatenate([present, near.astype(keys.dtype)])
    rng.shuffle(out)
    return out


# -- families ------------------------------------------------------------------

def rmi_leaves(n: int) -> int:
    return max(min(10_000, n // 100), 4)


FAMILY_BUILDERS = {
    "rmi": lambda keys: RecursiveModelIndex(
        keys, stage_sizes=(1, rmi_leaves(keys.size))
    ),
    "pgm": lambda keys: PGMIndex(keys),
    "radix_spline": lambda keys: RadixSplineIndex(keys),
    "gapped": lambda keys: GappedArrayIndex(keys),
}


def index_size_bytes(index) -> int:
    if hasattr(index, "size_bytes"):
        return int(index.size_bytes())
    return 0


def error_window(index) -> tuple[float, int]:
    mean = getattr(index, "mean_error_window", None)
    if mean is not None:
        return float(mean), int(index.max_error_window)
    stats = getattr(index, "error_bound_stats", None)
    if callable(stats):
        mean_w, max_w = stats()
        return float(mean_w), int(max_w)
    model = getattr(index, "_model", None)  # gapped array: slot model
    if model is not None:
        return error_window(model)
    return 0.0, 0


# -- measurement ---------------------------------------------------------------

@dataclass
class Cell:
    dataset: str
    family: str
    workload: str
    build_ms: float
    size_bytes: int
    mean_window: float
    max_window: int
    ops_per_sec: float
    identical: bool


def best_of(f, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        f()
        best = min(best, time.perf_counter() - t0)
    return best


def measure_point(index, keys, queries, reps) -> tuple[float, bool]:
    expected = np.searchsorted(keys, queries, side="left")
    got = index.lookup_batch(queries)
    identical = bool(np.array_equal(got, expected))
    elapsed = best_of(lambda: index.lookup_batch(queries), reps)
    return queries.size / elapsed, identical


def measure_range(index, keys, queries, rng, reps) -> tuple[float, bool]:
    lows = queries[: max(queries.size // 4, 1)].copy()
    spans = np.minimum(rng.zipf(1.2, lows.size), 1_000).astype(np.int64)
    if keys.dtype == np.uint64:
        highs = lows + spans.astype(np.uint64)
        highs = np.maximum(highs, lows)  # wraparound guard
    else:
        highs = lows + spans
    result = index.range_query_batch(lows, highs)
    starts = np.searchsorted(keys, lows, side="left")
    ends = np.searchsorted(keys, highs, side="right")
    expected_counts = ends - starts
    got_counts = np.diff(result.offsets)
    identical = bool(np.array_equal(got_counts, expected_counts))
    elapsed = best_of(lambda: index.range_query_batch(lows, highs), reps)
    return lows.size / elapsed, identical


def measure_mixed(
    family: str, keys: np.ndarray, queries: np.ndarray,
    rng: np.random.Generator, rounds: int,
) -> tuple[float, bool]:
    """Alternating write + read rounds.  Writable families absorb the
    writes in place; read-optimized families merge and rebuild — both
    are charged against the same op count, so the cell prices the
    architectural difference rather than hiding it."""
    if keys.dtype == np.uint64:
        lo, hi = int(keys.min()), int(keys.max())
        batches = [
            np.unique(rng.integers(lo, hi, queries.size // 8,
                                   dtype=np.uint64))
            for _ in range(rounds)
        ]
    else:
        hi = int(keys.max()) + 1
        batches = [
            np.unique(rng.integers(0, hi, queries.size // 8, dtype=np.int64)
                      .astype(keys.dtype))
            for _ in range(rounds)
        ]
    q_rounds = [
        queries[rng.integers(0, queries.size, queries.size // 4)]
        for _ in range(rounds)
    ]
    builder = FAMILY_BUILDERS[family]
    writable = family == "gapped"

    index = builder(np.unique(keys) if writable else keys)
    live = np.unique(keys)
    total_ops = 0
    t0 = time.perf_counter()
    for inserts, qs in zip(batches, q_rounds):
        if writable:
            index.insert_batch(inserts)
        else:
            live = np.union1d(live, inserts)
            index = builder(live)
        index.lookup_batch(qs)
        total_ops += inserts.size + qs.size
    elapsed = time.perf_counter() - t0
    if writable:
        live = np.union1d(np.unique(keys), np.concatenate(batches))
    probe = q_rounds[-1]
    identical = bool(np.array_equal(
        index.lookup_batch(probe),
        np.searchsorted(live, probe, side="left"),
    ))
    return total_ops / elapsed, identical


def run_matrix(
    n: int, query_count: int, reps: int, mixed_rounds: int,
) -> list[Cell]:
    rng = np.random.default_rng(SEED)
    cells: list[Cell] = []
    for ds_name in DATASETS:
        keys = make_dataset(ds_name, n, rng)
        for family, builder in FAMILY_BUILDERS.items():
            build_s = best_of(lambda: builder(keys), 1)
            index = builder(keys)
            size = index_size_bytes(index)
            mean_w, max_w = error_window(index)
            # The gapped array stores a deduplicated set; its oracle is
            # the distinct-key column, not the raw multiset.
            oracle_keys = np.unique(keys) if family == "gapped" else keys
            for workload in WORKLOADS:
                wl_rng = np.random.default_rng(
                    SEED + hash((ds_name, family, workload)) % 2**16
                )
                skew = "zipf" if workload == "zipf" else "uniform"
                queries = point_queries(keys, query_count, wl_rng, skew)
                if workload in ("point", "zipf"):
                    ops, identical = measure_point(
                        index, oracle_keys, queries, reps
                    )
                elif workload == "range":
                    ops, identical = measure_range(
                        index, oracle_keys, queries, wl_rng, reps
                    )
                else:
                    ops, identical = measure_mixed(
                        family, keys, queries, wl_rng, mixed_rounds
                    )
                cells.append(Cell(
                    dataset=ds_name, family=family, workload=workload,
                    build_ms=build_s * 1e3, size_bytes=size,
                    mean_window=round(mean_w, 2), max_window=max_w,
                    ops_per_sec=round(ops, 1), identical=identical,
                ))
        print(f"  {ds_name}: done", file=sys.stderr)
    return cells


# -- gates ---------------------------------------------------------------------

def evaluate_gates(cells: list[Cell]) -> dict:
    by_key = {(c.dataset, c.family, c.workload): c for c in cells}
    rmi_uniform = by_key[("uniform", "rmi", "point")]
    ratios = {
        fam: by_key[("uniform", fam, "point")].ops_per_sec
        / rmi_uniform.ops_per_sec
        for fam in NEW_FAMILIES
    }
    rmi_build = rmi_uniform.build_ms
    build_ratios = {
        fam: by_key[("uniform", fam, "point")].build_ms / rmi_build
        for fam in ("pgm", "radix_spline")
    }
    wins = [
        {
            "dataset": c.dataset, "family": c.family,
            "workload": c.workload, "ops_per_sec": c.ops_per_sec,
            "rmi_ops_per_sec": by_key[(c.dataset, "rmi", c.workload)]
            .ops_per_sec,
        }
        for c in cells
        if c.family in NEW_FAMILIES
        and c.ops_per_sec
        > by_key[(c.dataset, "rmi", c.workload)].ops_per_sec
    ]
    all_identical = all(c.identical for c in cells)
    return {
        "min_throughput_ratio": MIN_THROUGHPUT_RATIO,
        "max_build_ratio": MAX_BUILD_RATIO,
        "uniform_point_ratios": {k: round(v, 3) for k, v in ratios.items()},
        "build_ratios": {k: round(v, 3) for k, v in build_ratios.items()},
        "cells_beating_rmi": wins,
        "all_identical": all_identical,
        "throughput_gate_ok": all(
            r >= MIN_THROUGHPUT_RATIO for r in ratios.values()
        ),
        "build_gate_ok": all(
            r <= MAX_BUILD_RATIO for r in build_ratios.values()
        ),
        "beats_rmi_somewhere": bool(wins),
    }


def render(cells: list[Cell]) -> str:
    table = Table(
        "benchmark matrix: dataset x family x workload",
        ["dataset", "family", "workload", "build", "size",
         "window", "ops/s", "exact"],
    )
    for c in cells:
        table.add_row(
            c.dataset, c.family, c.workload,
            f"{c.build_ms:,.1f}ms",
            f"{c.size_bytes / 1024:,.0f}KB",
            f"{c.mean_window:.1f}/{c.max_window}",
            f"{c.ops_per_sec:,.0f}",
            "yes" if c.identical else "NO",
        )
    return table.render()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--n", type=int, default=1_000_000,
        help="keys per dataset (default: the acceptance 1M)",
    )
    parser.add_argument(
        "--queries", type=int, default=200_000,
        help="point queries per cell (default 200k)",
    )
    parser.add_argument(
        "--reps", type=int, default=3,
        help="repetitions per measurement, best-of (default 3)",
    )
    parser.add_argument(
        "--mixed-rounds", type=int, default=6,
        help="write+read rounds in the mixed workload (default 6)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI scale: shrink keys/queries, enforce the gates",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.n = min(args.n, 200_000)
        args.queries = min(args.queries, 50_000)
        args.mixed_rounds = min(args.mixed_rounds, 4)
    if args.n < 1_000:
        parser.error("--n must be >= 1000")

    cells = run_matrix(args.n, args.queries, args.reps, args.mixed_rounds)
    gates = evaluate_gates(cells)
    print(render(cells))
    print()
    print("gates:")
    print(f"  uniform point ratios vs rmi: {gates['uniform_point_ratios']}"
          f" (floor {MIN_THROUGHPUT_RATIO}x)"
          f" -> {'ok' if gates['throughput_gate_ok'] else 'FAIL'}")
    print(f"  build ratios vs rmi: {gates['build_ratios']}"
          f" (ceiling {MAX_BUILD_RATIO}x)"
          f" -> {'ok' if gates['build_gate_ok'] else 'FAIL'}")
    print(f"  cells where a new family beats rmi: "
          f"{len(gates['cells_beating_rmi'])}"
          f" -> {'ok' if gates['beats_rmi_somewhere'] else 'FAIL'}")
    print(f"  all cells bit-identical: "
          f"{'ok' if gates['all_identical'] else 'FAIL'}")

    ok = (
        gates["all_identical"]
        and gates["throughput_gate_ok"]
        and gates["build_gate_ok"]
        and gates["beats_rmi_somewhere"]
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
