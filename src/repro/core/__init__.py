"""The paper's contribution: learned range, point and existence indexes."""

from .config import ROOT_MODEL_KINDS, RMIConfig, root_factory
from .hybrid import HybridIndex
from .learned_bloom import (
    LearnedBloomFilter,
    ModelHashBloomFilter,
    ThresholdTuning,
)
from .learned_hash import (
    ConflictStats,
    LearnedHashFunction,
    conflict_stats,
)
from ..range_scan import RangeScanResult, batch_range_scan
from .engine import CompiledPlan, QueryBatch, SortedKeyColumn
from .lif import CandidateResult, default_grid, evaluate_config, synthesize
from .paged import PagedLearnedIndex, PageStore
from .plan_index import CompiledPlanIndex
from .rmi import (
    DEFAULT_LEAF_ERROR,
    RecursiveModelIndex,
    RMIStats,
)
from .writable import WritableLearnedIndex
from .search import (
    SEARCH_STRATEGIES,
    biased_binary_search,
    biased_quaternary_search,
)
from .string_index import StringRMI

__all__ = [
    "DEFAULT_LEAF_ERROR",
    "ROOT_MODEL_KINDS",
    "SEARCH_STRATEGIES",
    "CandidateResult",
    "CompiledPlan",
    "CompiledPlanIndex",
    "QueryBatch",
    "SortedKeyColumn",
    "RangeScanResult",
    "batch_range_scan",
    "ConflictStats",
    "HybridIndex",
    "LearnedBloomFilter",
    "LearnedHashFunction",
    "ModelHashBloomFilter",
    "RMIConfig",
    "RMIStats",
    "PageStore",
    "PagedLearnedIndex",
    "RecursiveModelIndex",
    "StringRMI",
    "ThresholdTuning",
    "WritableLearnedIndex",
    "biased_binary_search",
    "biased_quaternary_search",
    "conflict_stats",
    "default_grid",
    "evaluate_config",
    "root_factory",
    "synthesize",
]
