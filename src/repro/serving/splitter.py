"""Learned-CDF-balanced key routing for the sharded store (ISSUE 8).

Hashing balances shards but destroys range locality; fixed-width
key-range splits keep locality but skew badly on non-uniform data (a
lognormal keyset would land almost entirely in shard 0).  The paper's
core idea resolves the tension: *model the CDF*.  A splitter trained
on a key sample places shard boundaries at the model's quantiles, so
each shard owns a contiguous key interval carrying ~1/N of the
distribution's mass — ranges stay contiguous per shard AND the load
balances, which is exactly how learned-index partitioning earns its
keep in a serving system.

Routing a batch is one vectorized ``searchsorted`` against N-1
boundaries — O(log N) per key with N tiny, and the boundaries are
explicit int64 keys, so the owner of a key is a pure function any
process can evaluate identically.
"""

from __future__ import annotations

import numpy as np

__all__ = ["CDFSplitter"]

#: int64 domain edges used by the uniform fallback splitter.
_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


def _routing_keys(ends) -> np.ndarray:
    """Range endpoints as int64: a float truncates (the integer keys it
    bounds route alike); one beyond int64 saturates, NaN high."""
    ends = np.asarray(ends)
    if ends.dtype.kind == "u":
        ends = np.minimum(ends, np.uint64(_INT64_MAX))
    elif ends.dtype.kind == "f":
        over = ~(ends < 2.0**63)
        ends = np.where(over, 0.0, np.maximum(ends, -(2.0**63)))
        return np.where(over, _INT64_MAX, ends.astype(np.int64))
    return ends.astype(np.int64)


class CDFSplitter:
    """Routes int64 keys to ``num_shards`` contiguous key intervals.

    ``boundaries`` holds the N-1 interior split keys (sorted); shard
    ``i`` owns keys in ``[boundaries[i-1], boundaries[i])`` with the
    outer intervals unbounded.  Construct via :meth:`fit` (balanced on
    a sample's empirical CDF) or :meth:`uniform` (equal-width int64
    intervals, the no-sample fallback).
    """

    def __init__(self, boundaries: np.ndarray, num_shards: int):
        boundaries = np.asarray(boundaries, dtype=np.int64).ravel()
        if boundaries.size != num_shards - 1:
            raise ValueError(
                f"{num_shards} shards need {num_shards - 1} boundaries, "
                f"got {boundaries.size}"
            )
        if boundaries.size and np.any(np.diff(boundaries) < 0):
            raise ValueError("boundaries must be sorted")
        self.boundaries = boundaries
        self.num_shards = int(num_shards)

    @classmethod
    def fit(cls, sample_keys, num_shards: int) -> "CDFSplitter":
        """Boundaries at the sample CDF's 1/N quantiles.

        The sample is the training set for the distribution model (the
        empirical CDF — the zero-parameter learned model every RMI
        refines); unseen keys route by interpolation exactly like seen
        ones, so a modest sample balances the full stream.  Falls back
        to :meth:`uniform` when the sample is empty.
        """
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        sample = np.asarray(sample_keys, dtype=np.int64).ravel()
        if sample.size == 0:
            return cls.uniform(num_shards)
        sample = np.sort(sample)
        ranks = (
            np.arange(1, num_shards, dtype=np.int64) * sample.size
        ) // num_shards
        return cls(sample[ranks], num_shards)

    @classmethod
    def uniform(cls, num_shards: int) -> "CDFSplitter":
        """Equal-width int64 intervals (a uniform-CDF assumption)."""
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        edges = np.linspace(
            _INT64_MIN, _INT64_MAX, num_shards + 1
        )[1:-1].astype(np.int64)
        return cls(edges, num_shards)

    def shard_of_batch(self, keys) -> np.ndarray:
        """Owning shard id per key — one vectorized searchsorted."""
        keys = np.asarray(keys, dtype=np.int64)
        return np.searchsorted(
            self.boundaries, keys, side="right"
        ).astype(np.int64)

    def shards_overlapping(self, lows, highs) -> np.ndarray:
        """Bool matrix ``[num_shards, num_ranges]``: does shard s own
        any part of range r?  Inverted ranges overlap nothing."""
        lows, highs = _routing_keys(lows), _routing_keys(highs)
        first = self.shard_of_batch(lows)
        last = self.shard_of_batch(highs)
        shard_ids = np.arange(self.num_shards, dtype=np.int64)[:, None]
        return (
            (shard_ids >= first[None, :])
            & (shard_ids <= last[None, :])
            & (lows <= highs)[None, :]
        )

    def __repr__(self) -> str:
        return (
            f"CDFSplitter(num_shards={self.num_shards}, "
            f"boundaries={self.boundaries.tolist()})"
        )
