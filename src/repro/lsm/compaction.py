"""Compaction: k-way vectorized merges of sorted runs + the policy.

Compaction is where an LSM's write amplification is decided: the
policy chooses *which* age-adjacent runs to fold together, and
:func:`merge_runs` executes the fold as pure array math — the runs,
listed oldest first, go through :func:`repro.util.newest_entries`, the
LSM's one newest-wins fold (one timsort of presorted runs; each key's
last entry wins), and the merged run re-indexes through the segmented
least-squares build, so compacting a million keys is
memcpy-plus-array-math, not Python loops.

The policy is :class:`SizeTieredCompaction`: seal-sized runs
accumulate at the front of the run list; whenever ``min_runs``
*age-adjacent* runs share a size bucket (log-scaled), they merge into
one run a bucket up.  Geometric tiers ⇒ O(log N / memtable) write
amplification, read fan-out up to ``min_runs`` per tier.

Merges are restricted to *contiguous* slices of the newest-first run
list: without per-entry timestamps, merging non-adjacent runs could
bury a key's newer version under an older one.  Tombstone garbage
collection is safe exactly when the merge output becomes the oldest
run — no older run can still hold a shadowed version — which is also
when a tombstone has finished its job.

Every window holds at least ``min_runs`` >= 2 runs, so every merge
shortens the run list, and a drain ends within as many merges as
there are runs.
"""

from __future__ import annotations

import math

from ..util import newest_entries
from .run import SortedRun

__all__ = [
    "SizeTieredCompaction",
    "merge_runs",
]


def merge_runs(runs: list[SortedRun], *, drop_tombstones: bool) -> SortedRun:
    """Fold age-ordered runs (newest first) into one sorted run.

    Newest-wins per key (:func:`~repro.util.newest_entries` over the
    runs oldest first); with ``drop_tombstones`` (merging into the
    oldest position) delete markers are garbage-collected instead of
    rewritten.
    """
    if not runs:
        raise ValueError("need at least one run to merge")
    keys, values, dead = newest_entries(
        [(r.keys, r.values, r.tombstones) for r in reversed(runs)], "stable"
    )
    if drop_tombstones:
        live = ~dead
        keys, values, dead = keys[live], values[live], None
    return SortedRun(
        keys, values, dead, sequence=max(r.sequence for r in runs)
    )


class SizeTieredCompaction:
    """Merge ``min_runs`` age-adjacent runs of the same size bucket.

    :meth:`select` receives the newest-first run list and returns
    ``(start, stop)`` — merge ``runs[start:stop]`` into one run — or
    None when the layout is stable.  The
    store calls it in a loop after every seal, so one seal can cascade
    through multiple merges.

    ``max_runs`` is the fan-out backstop: workloads whose merged
    outputs shrink back into lower buckets (heavy tombstone GC, a
    confined keyspace) can produce alternating-bucket run lists where
    no same-bucket streak ever forms — once the list reaches
    ``max_runs``, the oldest ``min_runs`` runs merge regardless of
    bucket (still age-contiguous, and reaching the end of the list, so
    tombstones GC), keeping read fan-out bounded.
    """

    def __init__(self, min_runs: int = 4, max_runs: int | None = None):
        if min_runs < 2:
            raise ValueError("min_runs must be >= 2")
        if max_runs is None:
            max_runs = max(32, min_runs * 8)
        if max_runs < min_runs:
            raise ValueError("max_runs must be >= min_runs")
        self.min_runs = int(min_runs)
        self.max_runs = int(max_runs)

    @staticmethod
    def _bucket(run: SortedRun) -> int:
        # Base-4 size buckets: merging ``min_runs`` (default 4) runs
        # multiplies size by ~4, landing the output exactly one bucket
        # up, and same-tier seals never straddle a boundary the way
        # finer (log2) buckets let them.
        return int(math.log(max(len(run), 2), 4))

    def select(self, runs: list[SortedRun]) -> tuple[int, int] | None:
        count = 1
        for i in range(1, len(runs) + 1):
            same = (
                i < len(runs)
                and self._bucket(runs[i]) == self._bucket(runs[i - 1])
            )
            if same:
                count += 1
                continue
            if count >= self.min_runs:
                return i - count, i
            count = 1
        if len(runs) >= self.max_runs:
            return len(runs) - self.min_runs, len(runs)
        return None
