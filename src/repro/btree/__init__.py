"""Tree and search substrates: every non-learned range-index baseline."""

from .btree import BTreeIndex, TraversalStats
from .fast_tree import SIMD_WIDTH, FASTTree
from .fixed_btree import FixedSizeBTree
from .lookup_table import HierarchicalLookupTable
from .search_baselines import (
    Counter,
    binary_search,
    exponential_search,
    interpolation_search,
)

__all__ = [
    "BTreeIndex",
    "Counter",
    "FASTTree",
    "FixedSizeBTree",
    "HierarchicalLookupTable",
    "SIMD_WIDTH",
    "TraversalStats",
    "binary_search",
    "exponential_search",
    "interpolation_search",
]
