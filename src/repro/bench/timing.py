"""Wall-clock measurement harness: the one place a clock is read.

Python cannot reproduce the paper's absolute nanoseconds, but the
*ratios* between structures are governed by the same operation counts,
so every benchmark reports measured ns/lookup from this harness next to
the Section 2.1 cost model's figures.  A table column takes
:func:`measure_lookups`; an assertion that orders two structures takes
its ratio from :func:`compare_lookups`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "LatencyResult", "compare_lookups", "measure_callable", "measure_lookups",
]


@dataclass(frozen=True)
class LatencyResult:
    """Per-operation latency summary in nanoseconds."""

    mean_ns: float
    p50_ns: float
    p99_ns: float
    operations: int
    repeats: int

    def __repr__(self) -> str:
        return (
            f"LatencyResult(mean={self.mean_ns:.0f}ns, "
            f"p50={self.p50_ns:.0f}ns, p99={self.p99_ns:.0f}ns, "
            f"n={self.operations}x{self.repeats})"
        )


#: Queries per timed chunk: enough that the timer's own cost per
#: operation is negligible.
CHUNK = 256

#: Queries run through every lookup untimed before the first chunk.
WARMUP = 64


def measure_callable(
    fn: Callable[[], None],
    *,
    repeats: int = 5,
    inner: int = 1,
) -> float:
    """Best-of-``repeats`` wall-clock ns for ``fn`` (amortized by inner)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        elapsed = (time.perf_counter() - start) / inner
        best = min(best, elapsed)
    return best * 1e9


def _chunk_ns(lookup: Callable, piece: Sequence) -> float:
    """Wall-clock ns per operation of ``lookup`` over one chunk."""
    start = time.perf_counter()
    for q in piece:
        lookup(q)
    return (time.perf_counter() - start) / len(piece) * 1e9


def _chunks(queries: Sequence, chunk: int, warm: int, *lookups) -> list[list]:
    """``queries`` cut into timing chunks, after running the first
    ``warm`` of them through every lookup untimed."""
    queries = list(queries)
    if not queries:
        raise ValueError("need at least one query")
    for lookup in lookups:
        for q in queries[:warm]:
            lookup(q)
    return [queries[i:i + chunk] for i in range(0, len(queries), chunk)]


def _summarize(passes: list[list[float]], pieces: list[list]) -> LatencyResult:
    """``passes[r][c]`` is the ns/op of chunk ``c`` in pass ``r``: the
    mean is the best pass, p50/p99 are over every chunk mean."""
    means = np.asarray(passes)
    sizes = np.array([len(piece) for piece in pieces])
    return LatencyResult(
        mean_ns=float((means @ sizes).min() / sizes.sum()),
        p50_ns=float(np.percentile(means, 50)),
        p99_ns=float(np.percentile(means, 99)),
        operations=int(sizes.sum()),
        repeats=len(passes),
    )


def measure_lookups(
    lookup: Callable,
    queries: Sequence,
    *,
    repeats: int = 3,
) -> LatencyResult:
    """Measure ``lookup(q)`` latency over ``queries``.

    The queries are timed in chunks to keep the timer overhead per
    operation negligible; p50/p99 are over the chunk means, which is
    the right granularity for comparing index structures (per-call
    timing in Python is dominated by timer noise).
    """
    pieces = _chunks(queries, CHUNK, WARMUP, lookup)
    passes = [[_chunk_ns(lookup, p) for p in pieces] for _ in range(repeats)]
    return _summarize(passes, pieces)


def compare_lookups(
    lookup_a: Callable,
    lookup_b: Callable,
    queries: Sequence,
    *,
    repeats: int = 3,
    chunk: int = CHUNK,
) -> tuple[LatencyResult, LatencyResult, float]:
    """Paired measurement of two lookups over the same ``queries``.

    After warming both sides, every chunk is timed on both — A then B
    on even chunks, B then A on odd ones — so a change in the machine's
    speed lands on both sides of every pair.  Returns each side's
    :class:`LatencyResult` (as :func:`measure_lookups` reports it) and
    ``ratio``, the median over all chunk pairs of ``b_ns / a_ns``:
    above 1 means ``lookup_a`` is the faster side.
    """
    pieces = _chunks(queries, chunk, WARMUP, lookup_a, lookup_b)
    sides = (lookup_a, lookup_b)
    passes: tuple[list, list] = ([], [])
    for _ in range(repeats):
        for side in (0, 1):
            passes[side].append([])
        for i, piece in enumerate(pieces):
            for side in (0, 1) if i % 2 == 0 else (1, 0):
                passes[side][-1].append(_chunk_ns(sides[side], piece))
    ratio = float(np.median(np.asarray(passes[1]) / np.asarray(passes[0])))
    return _summarize(passes[0], pieces), _summarize(passes[1], pieces), ratio
