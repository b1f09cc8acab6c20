"""The Learning Index Framework (LIF) — index synthesis (Section 3.1).

"The LIF can be regarded as an index synthesis system; given an index
specification, LIF generates different index configurations, optimizes
them, and tests them automatically."  And Section 3.3: "we tune the
various parameters of the model (i.e., number of stages, hidden layers
per model, etc.) with a simple grid-search".

:func:`synthesize` reproduces that loop:

1. enumerate an :class:`repro.core.config.RMIConfig` grid (by default
   the paper's: root in {linear, multivariate, NN 0-2 hidden layers of
   width 4..32}, linear leaves, a range of second-stage sizes);
2. train each candidate on the keys (optionally a sample for speed);
3. score each candidate by measured lookup latency over a query
   sample, with its size as tie-breaker, optionally under a size
   budget;
4. return the best built index plus the full scored grid, so callers
   can inspect the trade-off curve (the Figure 4 rows are exactly such
   a grid slice).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .config import RMIConfig
from .rmi import RecursiveModelIndex

__all__ = ["CandidateResult", "default_grid", "evaluate_config", "synthesize"]


@dataclass(frozen=True)
class CandidateResult:
    """A trained, measured grid point."""

    config: RMIConfig
    build_seconds: float
    lookup_ns: float
    size_bytes: int
    mean_window: float
    max_window: int

    def describe(self) -> str:
        return (
            f"{self.config.describe():40s} "
            f"lookup={self.lookup_ns:8.0f}ns size={self.size_bytes:>10d}B "
            f"window={self.mean_window:8.1f}"
        )


def default_grid(
    n_keys: int,
    *,
    leaf_counts: tuple[int, ...] | None = None,
    include_nn: bool = True,
) -> list[RMIConfig]:
    """The paper's Section 3.7.1 grid, scaled to the dataset size."""
    if leaf_counts is None:
        base = max(n_keys // 100, 16)
        leaf_counts = tuple(
            sorted({base // 2, base, base * 2})
        )
    grid: list[RMIConfig] = []
    for leaves in leaf_counts:
        grid.append(RMIConfig(root_kind="linear", num_leaves=leaves))
        grid.append(
            RMIConfig(
                root_kind="multivariate",
                root_features=("key", "log", "key^2"),
                num_leaves=leaves,
            )
        )
        if include_nn:
            for hidden in ((8,), (16,), (8, 8), (16, 16), (32, 32)):
                grid.append(
                    RMIConfig(
                        root_kind="nn", root_hidden=hidden, num_leaves=leaves
                    )
                )
    return grid


def evaluate_config(
    keys: np.ndarray,
    config: RMIConfig,
    *,
    query_sample: int = 2000,
    seed: int = 0,
) -> tuple[RecursiveModelIndex, CandidateResult]:
    """Train one candidate and measure its lookup latency."""
    start = time.perf_counter()
    index = RecursiveModelIndex(
        keys,
        stage_sizes=(1, config.num_leaves),
        root=config.root_factory(),
        search_strategy=config.search_strategy,
    )
    build_seconds = time.perf_counter() - start
    rng = np.random.default_rng(seed)
    n = keys.size
    if n:
        sample = rng.choice(keys, size=min(query_sample, n))
        queries = [float(q) for q in sample]
        for q in queries[:64]:  # warm-up
            index.lookup(q)
        start = time.perf_counter()
        for q in queries:
            index.lookup(q)
        lookup_ns = (time.perf_counter() - start) / len(queries) * 1e9
    else:
        lookup_ns = 0.0
    result = CandidateResult(
        config=config,
        build_seconds=build_seconds,
        lookup_ns=lookup_ns,
        size_bytes=index.size_bytes(),
        mean_window=index.mean_error_window,
        max_window=index.max_error_window,
    )
    return index, result


def synthesize(
    keys: np.ndarray,
    *,
    grid: list[RMIConfig] | None = None,
    size_budget_bytes: int | None = None,
    query_sample: int = 2000,
    train_sample: int | None = None,
    seed: int = 0,
) -> tuple[RecursiveModelIndex, CandidateResult, list[CandidateResult]]:
    """Grid-search an RMI for ``keys``.

    Returns ``(best index, best result, all results)``.  When
    ``train_sample`` is given, candidates are trained and scored on a
    uniform subsample and only the winner is re-trained on the full
    keys (Section 3.6's sampling speed-up).
    """
    keys = np.asarray(keys)
    if grid is None:
        grid = default_grid(keys.size)
    if not grid:
        raise ValueError("empty configuration grid")

    search_keys = keys
    if train_sample is not None and keys.size > train_sample:
        picks = np.linspace(0, keys.size - 1, train_sample).round()
        search_keys = keys[picks.astype(np.int64)]

    results: list[CandidateResult] = []
    best: tuple[RecursiveModelIndex, CandidateResult] | None = None
    for config in grid:
        index, result = evaluate_config(
            search_keys, config, query_sample=query_sample, seed=seed
        )
        results.append(result)
        if size_budget_bytes is not None and result.size_bytes > size_budget_bytes:
            continue
        if best is None or (result.lookup_ns, result.size_bytes) < (
            best[1].lookup_ns,
            best[1].size_bytes,
        ):
            best = (index, result)
    if best is None:
        raise ValueError(
            "no configuration fits the size budget of "
            f"{size_budget_bytes} bytes"
        )
    best_index, best_result = best
    if search_keys is not keys:
        best_index, best_result = evaluate_config(
            keys, best_result.config, query_sample=query_sample, seed=seed
        )
    return best_index, best_result, results
