"""Serving layer: request coalescing + sharded zero-copy stores (PR 8).

The batch engine is only as fast as the batches it is fed.  This
package converts request *streams* into the large vectorized batches
every layer below was built for (the deployment lesson of Abu-Libdeh
et al., 2012.12501):

* :class:`~repro.serving.coalescer.CoalescingIndexServer` — an asyncio
  front end gathering concurrent point/range requests into one
  ``lookup_batch`` / ``range_query_batch`` per event-loop tick;
* :class:`~repro.serving.splitter.CDFSplitter` — learned-CDF-balanced
  key-space partitioning;
* :class:`~repro.serving.sharded.ShardedLSMStore` — N
  ``LearnedLSMStore`` shards, each owned by a worker process, sealed
  runs published through ``multiprocessing.shared_memory`` so
  cross-process reads are zero-copy, with per-shard snapshot pinning
  preserving the PR 7 epoch-read contract across the shard boundary.
"""

from .coalescer import CoalescingIndexServer
from .sharded import ShardedLSMStore, ShardedSnapshot, ShardUnavailable
from .splitter import CDFSplitter

__all__ = [
    "CoalescingIndexServer",
    "CDFSplitter",
    "ShardedLSMStore",
    "ShardedSnapshot",
    "ShardUnavailable",
]
