"""Analytic cost model in CPU cycles (Section 2.1).

The paper's back-of-envelope: "traversing a single B-Tree page with
binary search takes roughly 50 cycles", "a modern CPU can do 8-16 SIMD
operations per cycle", "a single cache-miss costs 50-100 additional
cycles".  This module turns those constants into a deterministic cost
model so every range-index benchmark can report paper-scale nanosecond
figures alongside measured Python wall-clock (whose *ratios* are
meaningful but whose absolute values are interpreter-bound).

The model prices a lookup from the structure's own instrumentation:
tree levels visited, comparisons executed, model multiply-adds, and an
estimate of cache misses from the structure's size and access pattern.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CostModel", "CostEstimate", "DEFAULT_COST_MODEL"]

#: Section 2.3's fixed cost of one Tensorflow-style model invocation.
FRAMEWORK_INVOCATION_NS = 75_000.0


@dataclass(frozen=True)
class CostEstimate:
    """Cycles and derived nanoseconds for one average lookup."""

    model_cycles: float
    search_cycles: float
    cache_miss_cycles: float
    clock_ghz: float

    @property
    def total_cycles(self) -> float:
        return self.model_cycles + self.search_cycles + self.cache_miss_cycles

    @property
    def total_ns(self) -> float:
        return self.total_cycles / self.clock_ghz

    @property
    def model_ns(self) -> float:
        return self.model_cycles / self.clock_ghz

    def __repr__(self) -> str:
        return (
            f"CostEstimate(total={self.total_ns:.0f}ns, "
            f"model={self.model_ns:.0f}ns)"
        )


@dataclass(frozen=True)
class CostModel:
    """Section 2.1 constants, overridable for sensitivity studies."""

    #: cycles to binary-search one B-Tree page ("roughly 50 cycles")
    cycles_per_page_search: float = 50.0
    #: multiply-adds per cycle with SIMD ("8-16 SIMD operations"; we
    #: take the conservative end)
    ops_per_cycle: float = 8.0
    #: penalty per last-level cache miss ("50-100 additional cycles")
    cycles_per_cache_miss: float = 75.0
    #: cycles per individual comparison outside a packed page search
    cycles_per_comparison: float = 4.0
    #: clock speed used to convert cycles to wall-clock ns
    clock_ghz: float = 3.0
    #: bytes that stay resident (top tree levels / model roots)
    hot_cache_bytes: int = 256 * 1024

    # -- structure-specific estimators -----------------------------------------

    def btree_lookup(
        self,
        height: int,
        page_size: int,
        size_bytes: int,
    ) -> CostEstimate:
        """B-Tree descent: one page search per level plus the data page.

        Levels that spill out of the hot cache pay a miss each — the
        paper: "this calculation still assumes that all B-Tree pages are
        in the cache.  A single cache-miss costs 50-100 cycles".
        """
        pages_searched = height + 1  # inner levels + final data page
        search = pages_searched * self.cycles_per_page_search
        cold_levels = self._cold_levels(height, size_bytes)
        misses = cold_levels + 1  # +1 for the data page itself
        return CostEstimate(
            model_cycles=0.0,
            search_cycles=search,
            cache_miss_cycles=misses * self.cycles_per_cache_miss,
            clock_ghz=self.clock_ghz,
        )

    def learned_lookup(
        self,
        model_ops: int,
        mean_window: float,
        size_bytes: int,
    ) -> CostEstimate:
        """RMI lookup: model multiply-adds + bounded binary search.

        The second-stage model parameters rarely fit in cache at 100k
        models, costing one miss; the bounded search touches ~2 data
        cache lines (window of a few hundred keys).
        """
        model = model_ops / self.ops_per_cycle
        window = max(mean_window, 1.0)
        comparisons = np.ceil(np.log2(window + 1.0))
        search = comparisons * self.cycles_per_comparison
        misses = 1.0 if size_bytes > self.hot_cache_bytes else 0.0
        misses += max(np.ceil(comparisons / 3.0), 1.0)  # data probes
        return CostEstimate(
            model_cycles=model,
            search_cycles=float(search),
            cache_miss_cycles=misses * self.cycles_per_cache_miss,
            clock_ghz=self.clock_ghz,
        )

    def binary_search_lookup(self, n: int) -> CostEstimate:
        """Full-array binary search: log2(n) comparisons, mostly misses."""
        comparisons = float(np.ceil(np.log2(max(n, 2))))
        cached = np.log2(self.hot_cache_bytes / 16.0)
        misses = max(comparisons - cached, 0.0)
        return CostEstimate(
            model_cycles=0.0,
            search_cycles=comparisons * self.cycles_per_comparison,
            cache_miss_cycles=misses * self.cycles_per_cache_miss,
            clock_ghz=self.clock_ghz,
        )

    def framework_model_lookup(self, model_ops: int) -> CostEstimate:
        """Section 2.3: a Tensorflow-style invocation costs ~microseconds
        of overhead regardless of model size."""
        model = model_ops / self.ops_per_cycle
        overhead_cycles = FRAMEWORK_INVOCATION_NS * self.clock_ghz
        return CostEstimate(
            model_cycles=model + overhead_cycles,
            search_cycles=0.0,
            cache_miss_cycles=0.0,
            clock_ghz=self.clock_ghz,
        )

    def _cold_levels(self, height: int, size_bytes: int) -> float:
        """Levels of a tree that do not fit in the hot cache."""
        if size_bytes <= self.hot_cache_bytes or height <= 0:
            return 0.0
        # Size is dominated by the bottom level; each level up is
        # ~1/fanout of the one below.  Count levels until the cumulative
        # size from the top fits the budget.
        cold = 0.0
        level_bytes = float(size_bytes)
        for _ in range(height):
            if level_bytes > self.hot_cache_bytes:
                cold += 1.0
            level_bytes /= 64.0
        return cold


#: Shared instance used by the benchmark harness.
DEFAULT_COST_MODEL = CostModel()
