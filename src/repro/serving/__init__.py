"""Serving layer: request coalescing + sharded stores (PR 8).

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
  ``LearnedLSMStore`` shards, each owned and served by a worker
  process that answers its part of every read and write, with
  worker-held snapshots carrying the single store's epoch-read
  contract across the shard boundary.
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
