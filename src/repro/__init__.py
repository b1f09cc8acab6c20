"""repro — a from-scratch reproduction of *The Case for Learned Index
Structures* (Kraska, Beutel, Chi, Dean, Polyzotis; SIGMOD 2018).

The package implements the paper's three learned index families and
every substrate its evaluation depends on:

* **Range indexes** — :class:`RecursiveModelIndex` (the RMI),
  :class:`HybridIndex` (Algorithm 1 with B-Tree fallback),
  :class:`StringRMI`, and the LIF synthesis loop (:func:`synthesize`);
  baselines: :class:`BTreeIndex`, :class:`FASTTree`,
  :class:`FixedSizeBTree`, :class:`HierarchicalLookupTable`.
* **Point indexes** — :class:`LearnedHashFunction` (CDF-scaled hashing)
  pluggable into :class:`ChainingHashMap`,
  :class:`BucketizedCuckooHashMap`, :class:`GenericCuckooHashMap`, and
  :class:`InPlaceChainedHashMap`.
* **Existence indexes** — :class:`LearnedBloomFilter` (classifier +
  overflow filter) and :class:`ModelHashBloomFilter` (Appendix E) over
  :class:`BloomFilter`, with the paper's character-level
  :class:`GRUClassifier`.
* **Inserts** (Appendix D.1's delta buffer) —
  :class:`repro.core.WritableLearnedIndex`, one buffer in front of one
  retrained RMI (the reference the D.1 bench asserts), and
  :class:`LearnedLSMStore`, the same idea at system scale: tiered
  immutable runs, each indexed by a vectorized RMI and guarded by a
  bloom filter, behind an O(1) memtable with size-tiered compaction.
* **Competing index families** (PR 10) — :class:`PGMIndex` (recursive
  ε-bounded segments) and :class:`RadixSplineIndex` (spline knots
  behind a radix table) compile to the same
  :class:`repro.core.CompiledPlanIndex` surface the RMI does; raced in
  ``benchmarks/e2e``.
* **Serving & observability** — :class:`CoalescingIndexServer`,
  :class:`ShardedLSMStore`, :class:`CDFSplitter` (PR 8) and the
  :mod:`repro.obs` metrics/tracing registry (PR 9).

Quickstart::

    import numpy as np
    from repro import RecursiveModelIndex

    keys = np.sort(np.random.default_rng(0).integers(0, 10**9, 10**6))
    index = RecursiveModelIndex(keys, stage_sizes=(1, 10_000))
    position = index.lookup(keys[1234])        # lower-bound semantics
    hits = index.range_query(10**8, 2 * 10**8)

See ROADMAP.md for the system inventory and each subsystem's contract
section; the paper-versus-measured tables and figures are printed by
``benchmarks/bench_*.py`` (the CI ``paper`` lane).
"""

from .bloom import BloomFilter
from .btree import (
    BTreeIndex,
    FASTTree,
    FixedSizeBTree,
    HierarchicalLookupTable,
)
from .core import (
    HybridIndex,
    LearnedBloomFilter,
    LearnedHashFunction,
    ModelHashBloomFilter,
    RecursiveModelIndex,
    RMIConfig,
    StringRMI,
    conflict_stats,
    synthesize,
)
from .families import PGMIndex, RadixSplineIndex
from .lsm import LearnedLSMStore, SizeTieredCompaction
from .obs import default_registry
from .range_scan import RangeScanResult
from .serving import CDFSplitter, CoalescingIndexServer, ShardedLSMStore
from .hashmap import (
    BucketizedCuckooHashMap,
    ChainingHashMap,
    GenericCuckooHashMap,
    InPlaceChainedHashMap,
    RandomHashFunction,
)
from .models import MLP, GRUClassifier, LinearModel, MultivariateLinearModel

__version__ = "1.0.0"

__all__ = [
    "BTreeIndex",
    "BloomFilter",
    "BucketizedCuckooHashMap",
    "CDFSplitter",
    "ChainingHashMap",
    "CoalescingIndexServer",
    "FASTTree",
    "FixedSizeBTree",
    "GRUClassifier",
    "GenericCuckooHashMap",
    "HierarchicalLookupTable",
    "HybridIndex",
    "InPlaceChainedHashMap",
    "LearnedBloomFilter",
    "LearnedHashFunction",
    "LearnedLSMStore",
    "LinearModel",
    "MLP",
    "ModelHashBloomFilter",
    "MultivariateLinearModel",
    "PGMIndex",
    "RMIConfig",
    "RadixSplineIndex",
    "RandomHashFunction",
    "RangeScanResult",
    "RecursiveModelIndex",
    "ShardedLSMStore",
    "SizeTieredCompaction",
    "StringRMI",
    "conflict_stats",
    "default_registry",
    "synthesize",
]
