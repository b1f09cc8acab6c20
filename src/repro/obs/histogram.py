"""Mergeable log-bucketed latency histograms.

HdrHistogram-style, but with one simplification that buys an important
property: the bucket layout is *fixed at module level* — every
histogram in every process uses the identical boundaries.  Two
histograms therefore merge by an exact vector add of their bucket
counts; aggregation across threads, shard workers, or benchmark runs
loses nothing beyond the original bucketing error.

Layout: geometric buckets, ``BUCKETS_PER_OCTAVE`` per power of two,
spanning ``MIN_TRACKABLE`` (~1 ns) to ``MAX_TRACKABLE`` (~68 min) —
672 int64 slots, ~5 KiB per histogram.  A recorded value lands in the
bucket covering it; quantiles report the geometric midpoint of the
selected bucket, clamped to the exact observed ``[min, max]``.  The
worst-case relative quantile error is one bucket's relative width,
``RELATIVE_BUCKET_WIDTH`` (~4.4 %) — the property-based tests pin this
bound.
"""

from __future__ import annotations

import math
import threading

import numpy as np

BUCKETS_PER_OCTAVE = 16
_MIN_EXP = -30  # 2**-30 s ~ 0.93 ns
_MAX_EXP = 12  # 2**12 s  ~ 68 min
MIN_TRACKABLE = 2.0**_MIN_EXP
MAX_TRACKABLE = 2.0**_MAX_EXP
NUM_BUCKETS = (_MAX_EXP - _MIN_EXP) * BUCKETS_PER_OCTAVE
RELATIVE_BUCKET_WIDTH = 2.0 ** (1.0 / BUCKETS_PER_OCTAVE) - 1.0


def bucket_index(value: float) -> int:
    """Bucket slot for ``value``; out-of-range values clamp to the ends."""
    if not value > MIN_TRACKABLE:  # also catches 0, negatives, NaN
        return 0
    if value >= MAX_TRACKABLE:
        return NUM_BUCKETS - 1
    idx = int((math.log2(value) - _MIN_EXP) * BUCKETS_PER_OCTAVE)
    if idx < 0:
        return 0
    if idx >= NUM_BUCKETS:
        return NUM_BUCKETS - 1
    return idx


def bucket_midpoint(index: int) -> float:
    """Geometric midpoint of bucket ``index`` (the quantile estimate)."""
    return 2.0 ** (_MIN_EXP + (index + 0.5) / BUCKETS_PER_OCTAVE)


def bucket_upper_bound(index: int) -> float:
    """Exclusive upper edge of bucket ``index`` (Prometheus ``le``)."""
    return 2.0 ** (_MIN_EXP + (index + 1) / BUCKETS_PER_OCTAVE)


class LatencyHistogram:
    """Thread-safe fixed-layout histogram of seconds-valued samples.

    Picklable (the lock is dropped and recreated), so a snapshot copy
    can ride a pipe to another process and merge there.
    """

    __slots__ = ("counts", "count", "sum", "min", "max", "_lock")

    def __init__(self) -> None:
        self.counts = np.zeros(NUM_BUCKETS, dtype=np.int64)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._lock = threading.Lock()

    # -- recording -------------------------------------------------------

    def observe(self, value: float) -> None:
        value = float(value)
        idx = bucket_index(value)
        with self._lock:
            self.counts[idx] += 1
            self.count += 1
            self.sum += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    def observe_many(self, values) -> None:
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return
        clipped = np.clip(values, MIN_TRACKABLE, MAX_TRACKABLE)
        idx = ((np.log2(clipped) - _MIN_EXP) * BUCKETS_PER_OCTAVE).astype(
            np.int64
        )
        np.clip(idx, 0, NUM_BUCKETS - 1, out=idx)
        add = np.bincount(idx, minlength=NUM_BUCKETS)
        with self._lock:
            self.counts += add
            self.count += int(values.size)
            self.sum += float(values.sum())
            self.min = min(self.min, float(values.min()))
            self.max = max(self.max, float(values.max()))

    # -- aggregation -----------------------------------------------------

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Fold ``other`` into ``self`` (exact: vector add). Returns self."""
        with self._lock:
            self.counts += other.counts
            self.count += other.count
            self.sum += other.sum
            if other.min < self.min:
                self.min = other.min
            if other.max > self.max:
                self.max = other.max
        return self

    def diff(self, prev: "LatencyHistogram") -> "LatencyHistogram":
        """Delta since ``prev`` (an older snapshot of this histogram).

        Bucket counts, count, and sum subtract exactly; ``min``/``max``
        keep the current lifetime bounds (still valid bounds for any
        merge target, just not tight for the window alone).
        """
        out = LatencyHistogram()
        out.counts = self.counts - prev.counts
        out.count = self.count - prev.count
        out.sum = self.sum - prev.sum
        out.min = self.min
        out.max = self.max
        return out

    def copy(self) -> "LatencyHistogram":
        with self._lock:
            out = LatencyHistogram()
            out.counts = self.counts.copy()
            out.count = self.count
            out.sum = self.sum
            out.min = self.min
            out.max = self.max
            return out

    # -- queries ---------------------------------------------------------

    def percentile(self, q: float) -> float:
        """Approximate q-th percentile (q in [0, 100]).

        Locates the bucket holding the order statistic at rank
        ``floor(q/100 * (count-1))`` and returns its geometric
        midpoint, clamped to the exact observed range.  Empty
        histograms return 0.0.
        """
        if self.count == 0:
            return 0.0
        rank = (q / 100.0) * (self.count - 1)
        cum = np.cumsum(self.counts)
        idx = int(np.searchsorted(cum, math.floor(rank), side="right"))
        est = bucket_midpoint(min(idx, NUM_BUCKETS - 1))
        return min(max(est, self.min), self.max)

    def percentiles(self, qs) -> list:
        return [self.percentile(q) for q in qs]

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        """JSON-friendly sparse form (inf min/max map to None)."""
        (nonzero,) = np.nonzero(self.counts)
        return {
            "count": int(self.count),
            "sum": float(self.sum),
            "min": float(self.min) if self.count else None,
            "max": float(self.max) if self.count else None,
            "buckets": {int(i): int(self.counts[i]) for i in nonzero},
        }

    # -- pickling (drop the lock) ---------------------------------------

    def __getstate__(self):
        with self._lock:
            return (self.counts.copy(), self.count, self.sum, self.min, self.max)

    def __setstate__(self, state):
        self.counts, self.count, self.sum, self.min, self.max = state
        self._lock = threading.Lock()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"LatencyHistogram(count={self.count}, mean={self.mean:.3g}, "
            f"min={self.min:.3g}, max={self.max:.3g})"
        )
