"""PGM-index: recursive ε-bounded piecewise-linear segments.

The Piecewise Geometric Model index (Ferragina & Vinciguerra, VLDB
2020) approximates the key CDF with linear segments whose prediction
error is provably at most ε, then *recurses*: the first keys of the
leaf segments are themselves a sorted array, indexed by another
ε-segmentation, and so on until a level is small enough to resolve
with a single fitted line.  A lookup descends the levels — at each one
a linear model plus an O(log ε) bounded search — and ends in a leaf
segment whose window is at most ``2ε + 3`` slots wide.

Mapping onto this repo's kernel:

* segments come from the vectorized split-refine fit in
  :mod:`repro.families.segmentation` (ε guarantee identical, build
  array-native instead of the paper's streaming convex-hull sweep);
* the leaf level *is* a :class:`~repro.core.engine.CompiledPlan` —
  four flat tables over the shared key column — so every batch path,
  the sorted-batch fast path, and the serving layer run unchanged;
* the recursive descent is this family's ``root_predict_batch``: it
  resolves a query batch to leaf indices with fixed-round lock-step
  bounded searches per level and hands the engine
  ``(leaf + 0.5) * n / m``, the fixed point of the plan's
  ``floor(pred * m / n)`` routing.

Internal levels index *distinct* keys, so every converged internal
segment — single-key segments fit exactly — obeys the uniform
ε_internal bound.  The descent exploits that twice: windows are a
constant ``2·ε_internal + 4`` wide (no per-segment offset gathers),
and the bounded search is *branchless lock-step*: a power-of-two
window halved by ``base += half * (keys[base + half - 1] <= q)``
rounds — one gather, one compare, one fused add per round, no masks
and no ``np.where`` — landing on the child *upper bound*, whose
``- 1`` is the predecessor segment with no correction pass.  The top
array (at most :data:`TOP_FANOUT` entries) is routed by a small
bucket table whose cells bracket the upper bound exactly (the cell
function is monotone in the key), so the top costs a handful of
arithmetic ops plus the measured ``ceil(log2(max bracket))`` rounds.

Segments, levels and the top table are all fitted over the index's
model space (``key - keys[0]``, exact in the key dtype before the
float64 cast — :class:`~repro.core.engine.ModelSpace`).  Exactness does
not rest on the descent: the engine verifies every result against the
dtype-native column and fixes up the rare misses, so PGM lookups are
bit-identical to the bisect oracle on any 64-bit column.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import NamedTuple

import numpy as np

from ..models.cdf import positions_for_keys
from ..core.plan_index import CompiledPlanIndex
from ..util import clamp_into
from .segmentation import epsilon_segment

__all__ = ["PGMIndex", "DEFAULT_PGM_EPSILON", "DEFAULT_PGM_EPSILON_INTERNAL"]

#: Default leaf ε — engine windows of ~2ε keys, comparable to the
#: tuned RMI's mean leaf window; larger values trade search width for
#: fewer segments and a faster build.
DEFAULT_PGM_EPSILON = 16

#: Default ε for the internal (recursive) levels.  Internal arrays are
#: tiny relative to the data, so a tight bound costs little space but
#: keeps each descent step to three lock-step rounds — the PGM paper
#: likewise tunes ε_internal separately from the leaf ε.
DEFAULT_PGM_EPSILON_INTERNAL = 2

#: Recursion stops once a segment-first array fits in this many
#: entries; the top is then resolved by a bucket table (or one
#: ``searchsorted`` when the key distribution packs too many top
#: entries into one bucket).
TOP_FANOUT = 512

#: Upper limit on the top bucket table (2**bits cells — at most 64KiB).
TOP_TABLE_MAX_BITS = 13

#: Fall back to ``searchsorted`` top routing when some bucket would
#: need more than this many lock-step rounds to resolve.
TOP_ROUNDS_CAP = 6


class _Level(NamedTuple):
    """One internal level: an ε-segmentation over ``child_keys`` (the
    strictly-increasing first keys of the level below, stored with the
    branchless-search sentinel tail).  No per-segment error bounds —
    the uniform ε_internal bound covers every converged segment of a
    distinct-key array."""

    first_keys: np.ndarray  # this level's segment first keys
    slopes: np.ndarray
    intercepts: np.ndarray
    child_padded: np.ndarray  # child first keys + inf tail
    child_count: int


def _predecessor(
    pos: np.ndarray, keys: np.ndarray, qf: np.ndarray
) -> np.ndarray:
    """Predecessor index per query from lower-bound positions over a
    strictly-increasing float64 key array (rightmost key <= query;
    queries below the first key clamp to 0)."""
    c = keys.size
    take = np.minimum(pos, c - 1)
    j = pos - ((pos == c) | (keys[take] > qf))
    clamp_into(j, 0, c - 1)
    return j


def _pad_keys(keys: np.ndarray, rounds: int) -> np.ndarray:
    """``keys`` extended by a ``2**rounds`` tail of ``+inf`` sentinels
    so every branchless-round probe stays in bounds without masking
    (``inf <= q`` is false, so sentinels never advance ``base``)."""
    pad = np.full(1 << rounds, np.inf)
    return np.concatenate([keys.astype(np.float64), pad])


def _upper_bound_branchless(
    padded: np.ndarray,
    qf: np.ndarray,
    base: np.ndarray,
    rounds: int,
) -> np.ndarray:
    """Per-query upper bound by branchless lock-step halving.

    ``base`` brackets each query's upper bound in ``[base, base + W]``
    with ``W = 2**rounds``; ``padded`` carries a ``W``-long ``+inf``
    tail (:func:`_pad_keys`) so probes never leave the array.  Each
    round probes one position and advances ``base`` by ``half`` where
    the probe key is ``<= q`` — three vector ops, no mask, no
    ``np.where``; the classic branchless binary search run in lock
    step.  ``base`` is mutated in place and returned.  Out-of-model
    lanes (NaN predictions) compare false everywhere and stay at their
    clipped ``base`` — a routing hint the engine repairs downstream.
    """
    length = 1 << rounds
    while length > 1:
        half = length >> 1
        base += half * (padded.take(base + (half - 1)) <= qf)
        length -= half
    base += padded.take(base) <= qf
    return base


class PGMIndex(CompiledPlanIndex):
    """Read-optimized PGM-index over a sorted key array.

    Parameters
    ----------
    keys:
        Sorted numpy array (not copied); any dtype the shared column
        supports, including int64/uint64 beyond 2^53.
    epsilon:
        Leaf error bound: every segment spanning more than one distinct
        float64 key satisfies ``max |prediction - position| <= epsilon``
        (the hard invariant the test suite asserts).  Single-value runs
        store their measured bounds instead, so duplicate-heavy data
        stays exact with honestly-wider windows.
    epsilon_internal:
        Error bound for the recursive levels over segment first keys.
    """

    def __init__(
        self,
        keys: np.ndarray,
        epsilon: int = DEFAULT_PGM_EPSILON,
        epsilon_internal: int = DEFAULT_PGM_EPSILON_INTERNAL,
    ):
        self.epsilon = float(epsilon)
        self.epsilon_internal = float(epsilon_internal)
        self._levels: list[_Level] = []
        self._top_keys = np.zeros(0, dtype=np.float64)
        self._top_route: tuple = ("single",)
        super().__init__(keys)

    def _build(self) -> None:
        n = self.keys.size
        keys_f = self._space.encode(self.keys)
        seg = epsilon_segment(
            keys_f, positions_for_keys(n), self.epsilon, fit="least_squares"
        )
        m = seg.segment_count
        self.build_rounds = seg.rounds
        first_keys = keys_f[seg.boundaries[:-1]]
        self._leaf_first_list = first_keys.tolist()
        # Recurse over segment first keys until the remainder fits the
        # top.  A level that fails to shrink its input (every child its
        # own segment) stops the recursion; the top route just covers
        # more entries.
        levels: list[_Level] = []
        child = first_keys
        k = int(np.ceil(self.epsilon_internal))
        # Window [floor(raw) - k - 1, floor(raw) + k + 3) brackets the
        # upper bound for a prediction within +-k; round up to the
        # enclosing power of two for the branchless halving.
        self._level_rounds = (2 * k + 3).bit_length()
        self._level_slack = k
        while child.size > TOP_FANOUT:
            lseg = epsilon_segment(
                child,
                positions_for_keys(child.size),
                self.epsilon_internal,
                fit="least_squares",
            )
            if lseg.segment_count >= child.size:
                break
            parents = child[lseg.boundaries[:-1]]
            levels.append(_Level(
                parents, lseg.slopes, lseg.intercepts,
                _pad_keys(child, self._level_rounds), child.size,
            ))
            child = parents
        levels.reverse()  # descent order: top level first
        self._levels = levels
        self._top_keys = child
        self._top_route = self._fit_top_route(child)
        inv = n / m
        self._route_inverse = inv

        def root_predict_batch(qf: np.ndarray) -> np.ndarray:
            leaf = self._descend(np.asarray(qf, dtype=np.float64))
            # The engine recovers the leaf via floor(pred * m / n);
            # centering on +0.5 keeps truncation exact through the
            # round trip for any realistic segment count.
            return (leaf.astype(np.float64) + 0.5) * inv

        self._install_plan(
            root_predict_batch, m,
            seg.slopes, seg.intercepts, seg.lo_offsets, seg.hi_offsets,
        )

    @staticmethod
    def _fit_top_route(top: np.ndarray) -> tuple:
        """Routing recipe for the top array: trivial for one entry, a
        bucket table otherwise (a few arithmetic ops plus the measured
        worst-bucket lock-step rounds beat ``searchsorted``'s fixed
        per-query overhead), ``searchsorted`` when some bucket is
        adversarially deep.

        The table stores ``table[c] = first top entry in a cell >= c``
        over ``cells = 2**bits`` equal key ranges; the cell function is
        monotone in the key, so a query in cell ``c`` has its top upper
        bound inside ``[table[c], table[c + 1] + 1]`` — an exact
        bracket, not a heuristic.
        """
        m = top.size
        if m <= 1:
            return ("single",)
        bits = min(int(np.ceil(np.log2(m))) + 2, TOP_TABLE_MAX_BITS)
        cells = 1 << bits
        min_f = float(top[0])
        span = float(top[-1]) - min_f
        if not span > 0 or not np.isfinite(span):
            return ("search",)
        scale = cells / span
        top_cells = ((top - min_f) * scale).astype(np.int64)
        clamp_into(top_cells, 0, cells - 1)
        table = np.searchsorted(
            top_cells, np.arange(cells + 1), side="left"
        ).astype(np.int64)
        max_bracket = int(np.max(table[1:] - table[:-1])) + 1
        rounds = max(max_bracket - 1, 1).bit_length()
        if rounds > TOP_ROUNDS_CAP:
            return ("search",)
        return ("table", min_f, scale, table, rounds, _pad_keys(top, rounds))

    def _descend(self, qf: np.ndarray) -> np.ndarray:
        """Leaf segment index per query: the recursive PGM descent.

        Resolve the top array to a segment of the highest level, then
        per level one gathered linear prediction plus a fixed-round
        bounded upper-bound search over the child first keys; the
        upper bound minus one is the predecessor segment.  ``qf`` is
        model-space input; a misroute only costs the engine a verified
        fix-up downstream.
        """
        top = self._top_keys
        route = self._top_route
        if route[0] == "single":
            j = np.zeros(qf.size, dtype=np.int64)
        elif route[0] == "table":
            _tag, min_f, scale, table, rounds, padded = route
            cell = ((qf - min_f) * scale).astype(np.int64)
            clamp_into(cell, 0, table.size - 2)
            j = _upper_bound_branchless(padded, qf, table.take(cell), rounds)
            j -= 1
            clamp_into(j, 0, top.size - 1)
        else:
            j = np.searchsorted(top, qf, side="right") - 1
            clamp_into(j, 0, top.size - 1)
        slack = self._level_slack
        rounds = self._level_rounds
        for level in self._levels:
            raw = level.slopes[j] * qf
            raw += level.intercepts[j]
            base = raw.astype(np.int64)
            base -= slack + 1
            clamp_into(base, 0, level.child_count)
            j = _upper_bound_branchless(level.child_padded, qf, base, rounds)
            j -= 1
            clamp_into(j, 0, level.child_count - 1)
        return j

    def _route_scalar(self, encoded: float) -> int:
        # Scalar latency path: predecessor leaf by first key.  One
        # bisect over the Python-float mirror — the descent is a batch
        # amortization, not a correctness requirement.
        j = bisect_right(self._leaf_first_list, encoded) - 1
        return j if j >= 0 else 0

    @property
    def level_count(self) -> int:
        """Internal levels between the top array and the leaves."""
        return len(self._levels)

    def _routing_size_bytes(self) -> int:
        total = self._top_keys.size * 8
        total += len(self._leaf_first_list) * 8
        if self._top_route[0] == "table":
            total += self._top_route[3].size * 8  # bucket table
            total += self._top_route[5].size * 8  # padded top keys
        for level in self._levels:
            # slopes + intercepts + padded child copy
            total += level.first_keys.size * 8 * 2
            total += level.child_padded.size * 8
        return total
