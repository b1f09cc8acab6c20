"""Unified dtype-aware batch query core (ISSUE 5).

Every ordered index in this repository ultimately answers queries
against one sorted key column, yet after PRs 1-4 the vectorized batch
engine was re-implemented (with small drifts) inside ~10 index types —
and all of them compared int64 keys in float64, so keys >= 2^53 could
round together where the scalar paths (exact Python comparisons) do
not.  SOSD (Kipf et al. 2019) and "Benchmarking Learned Indexes"
(Marcus et al. 2020) evaluate on real 64-bit domains (osm_cellids,
amzn) whose keys exceed 2^53, so the float64 batch paths could not
serve the standard benchmark datasets correctly.

This module is the single shared implementation both problems point
at:

* :class:`SortedKeyColumn` — a dtype-preserving sorted key column with
  exact search primitives.  Queries are *prepared* once into a
  :class:`QueryBatch` whose ``compare`` array is in the **key's native
  dtype** (exact int64/uint64 paths; float64 only for float keys);
  every comparison downstream — the fixed-round bounded search, boundary
  verification, the scalar exponential fix-up, ``searchsorted``
  corrections, membership equality, duplicate-run widening — runs on
  that native array.  Model predictions stay float64 (they are
  approximate by construction), but window arithmetic is int64 and
  verification compares integers as integers.
  :meth:`SortedKeyColumn.prepare_scalar` is the same rule for one
  query, the value the tree baselines' scalar descents compare.
* :class:`ModelSpace` — the one place a key becomes a model input:
  ``key - origin`` computed exactly in the column's integer domain and
  only then cast to float64, so neighbouring 64-bit keys near 2^63 stay
  distinct for the model (the raw cast collapses ~1 000 of them onto
  one float) and the model's error, not the float64 ulp, bounds the
  search.
* :class:`CompiledPlan` — the flat leaf tables every compiled learned
  index reduces to (slopes, intercepts, error-bound window offsets,
  window clamp) plus the batch point engine built on them: route →
  window → fixed-round bounded search → boundary-only verification →
  scalar exponential fix-up, and the sorted-batch dedup fast path
  (one packed ``np.sort`` of the batch, :func:`repro.util.sorted_order`,
  the engine on the distinct values, one scatter back).

Dtype contract
--------------
* integer key columns (int64/uint64/int32/...): batch results are
  **exact** for integer query arrays of any integer dtype (cross-dtype
  bounds are clamped, out-of-range queries resolve to the correct
  boundary positions) and for float64 query arrays (a float query
  ``q`` is compared as ``ceil(q)`` — the lower bound of ``q`` among
  integers — with equality allowed only where ``q`` is integral and
  representable);
* float key columns: queries are compared in float64, which is the
  key's own precision — integer queries above 2^53 cannot be
  distinguished by float keys in the first place.

The float->integer preparation is what closes the 2^53 follow-up: the
query value that actually reaches a comparison is always a value of
the key's dtype, never an upcast of the keys to float64.

Small-batch dispatch
--------------------
Routing is a verified hint, so the column's own whole-array search
(:meth:`SortedKeyColumn.lower_bounds`) returns the same positions as the
model path, bit for bit; only the cost differs.  So
:meth:`CompiledPlan.lookup_batch` chooses per call, by
:func:`repro.dispatch.column_answers` over the crossover table the plan
carries (a family's routing sets its cost per call), and sends a call
under the crossover straight to the column: a learned index never
loses to the array it wraps (Section 3.3's bound, applied to the batch
surface).  The tables, and how to re-tune them on a new host, are in
:mod:`repro.dispatch`; there is no constructor option or environment
variable.  ``sort=True`` /
``sort=False`` name an engine path and therefore force the engine at
any size, which is how the benches and the traced benchmark time it;
with telemetry on, ``engine.lookup_batch.column_calls`` /
``.column_keys`` say how many calls and queries the column answered.
A batch call keeps no per-index stats: the index's ``stats`` count
its scalar lookups only.  The rule reads no window of the plan: wide
windows (skewed leaves) do move the true crossover up 2-4x, but the plan's build-time mean window does
not predict it on skewed data, and the table errs toward the engine —
the path such a call took before.
"""

from __future__ import annotations

import math
from operator import index as _index

import numpy as np

from ..btree.search_baselines import exponential_search
from ..dispatch import (
    RMI_CROSSOVERS,
    SORTED_BATCH_MIN_DUP_FRACTION,
    SORTED_BATCH_THRESHOLD,
    column_answers,
)
from ..obs import default_registry
from ..obs import state as obs_state
from ..util import clamp_into, scalar_view, sorted_order
from .search import vectorized_bounded_search, verify_lower_bound_batch

__all__ = [
    "QueryBatch",
    "SortedKeyColumn",
    "ModelSpace",
    "narrow_offsets",
    "CompiledPlan",
    "batch_dup_fraction",
    "clamp_window",
]

#: Queries :func:`batch_dup_fraction` draws to estimate a batch's
#: duplicate fraction.
DUP_SAMPLE = 4096


def clamp_window(lo: int, hi: int, n: int) -> tuple[int, int]:
    """Clamp a raw search window to ``[0, n]`` with ``hi`` exclusive.

    The single source of truth for window semantics: degenerate windows
    (``hi <= lo`` after clamping) collapse to the one-element window at
    ``min(lo, max(hi - 1, 0))``, staying empty only when ``n == 0``.
    """
    if lo < 0:
        lo = 0
    elif lo > n:
        lo = n
    if hi > n:
        hi = n
    if hi <= lo:
        lo = min(lo, max(hi - 1, 0))
        hi = min(lo + 1, n)
    return lo, hi


def _distinct_count(values: np.ndarray) -> int:
    """``np.unique(values).size`` (NaNs count as one value) from a sort
    and a neighbour compare: ~15x cheaper than ``np.unique`` on a
    4 096-key sample under NumPy 2.4."""
    if values.size == 0:
        return 0
    ordered = np.sort(values)
    count = 1 + int(np.count_nonzero(ordered[1:] != ordered[:-1]))
    if ordered.dtype.kind == "f" and np.isnan(ordered[-1]):
        # NaNs sort last and compare unequal to each other.
        count -= ordered.size - 1 - int(np.searchsorted(ordered, np.nan))
    return count


def batch_dup_fraction(queries: np.ndarray) -> float:
    """Estimated duplicate fraction of the *whole* batch.

    The naive sample duplicate rate wildly underestimates batch
    duplication when the hot set is larger than the sample (a 1k probe
    of a hotspot workload drawing from 10k hot keys collides rarely,
    yet the 256k batch is >80% duplicates).  Instead, the within-sample
    collision count gives a birthday estimate of the batch's
    distinct-value count D — c collisions among s draws ⇒ D ≈ s²/2c —
    from which the batch is expected to contain about
    D·(1 - e^(-m/D)) distinct values.

    The probe positions are fixed-seed random, not strided: a stride
    sampling one element per duplicate run (e.g. a caller that
    pre-sorted a duplicate-heavy batch) would see zero collisions and
    skip the fast path exactly where dedup is cheapest.
    """
    m = queries.size
    sample = DUP_SAMPLE
    if m <= sample:
        # The whole batch fits in the probe: the duplicate fraction
        # is exact, no extrapolation.
        return float(1.0 - _distinct_count(queries) / max(m, 1))
    idx = np.random.default_rng(0x5EED).integers(0, m, sample)
    probe = queries[idx]
    # Sampling positions with replacement collides with itself (same
    # index drawn twice); subtract the expectation so only genuine
    # value collisions feed the estimate.
    self_collisions = sample * sample / (2.0 * m)
    s = probe.size
    c = s - _distinct_count(probe) - self_collisions
    if c <= 0:
        return 0.0
    d = s * s / (2.0 * c)
    est_unique = min(d * -np.expm1(-m / d), m)
    return float(1.0 - est_unique / m)


def _integer_ceil(key, low: int, high: int) -> int:
    """The integer a real ``key`` compares as on an integer column
    spanning ``[low, high]``: its exact ``ceil``, or ``low`` below the
    range (``-inf`` and NaN too), or ``high + 1`` above it."""
    try:
        key = math.ceil(key)
    except (OverflowError, ValueError):
        return high + 1 if key > 0 else low
    if key > high:
        return high + 1
    return low if key < low else key


class QueryBatch:
    """Queries prepared for exact comparison against one key column.

    * ``compare`` — the values every comparison uses, in the key
      column's native dtype.  For integer columns and float queries
      this is ``ceil(q)`` (the integer lower bound of ``q`` equals the
      lower bound of ``ceil(q)``), clamped into the dtype's range.
    * ``exactable`` — bool mask (or None ≡ all True): the query value
      is exactly representable as ``compare``, i.e. equality with a
      stored key is possible.  Non-integral floats and range-clamped
      queries are never equal to any stored key.
    * ``oob_high`` — bool mask (or None ≡ all False): the query lies
      strictly above the dtype's maximum, so its lower bound is ``n``
      regardless of what the clamped ``compare`` value finds.
      (Queries below the dtype minimum need no mask: their clamped
      ``compare`` already resolves to position 0.)
    * ``float64`` — lazily materialized float64 view of the raw query
      values (the original values for float query arrays).  It is not
      a model input: a plan encodes ``compare`` against its own origin
      at route time (:class:`ModelSpace`), and nothing per-plan is
      cached here, so one prepared batch can go through several
      plans.
    """

    __slots__ = ("compare", "exactable", "oob_high", "_float64")

    def __init__(
        self,
        compare: np.ndarray,
        exactable: np.ndarray | None = None,
        oob_high: np.ndarray | None = None,
        float64: np.ndarray | None = None,
    ):
        self.compare = compare
        self.exactable = exactable
        self.oob_high = oob_high
        self._float64 = float64

    @property
    def size(self) -> int:
        return int(self.compare.size)

    @property
    def float64(self) -> np.ndarray:
        f = self._float64
        if f is None:
            f = self.compare.astype(np.float64)
            self._float64 = f
        return f

    @staticmethod
    def concat(low: "QueryBatch", high: "QueryBatch") -> "QueryBatch":
        """``low`` then ``high`` as one batch, masks included — two
        batches prepared separately against one column (each in its
        own query dtype) resolved in one call."""
        masks = []
        for name, fill in (("exactable", True), ("oob_high", False)):
            a, b = getattr(low, name), getattr(high, name)
            if a is None and b is None:
                masks.append(None)
                continue
            masks.append(np.concatenate([
                np.full(low.size, fill) if a is None else a,
                np.full(high.size, fill) if b is None else b,
            ]))
        return QueryBatch(np.concatenate([low.compare, high.compare]), *masks)

    def take(self, idx: np.ndarray) -> "QueryBatch":
        """Sub-batch at ``idx`` (indices or bool mask), masks included."""
        return QueryBatch(
            self.compare[idx],
            None if self.exactable is None else self.exactable[idx],
            None if self.oob_high is None else self.oob_high[idx],
            None if self._float64 is None else self._float64[idx],
        )


class SortedKeyColumn:
    """A sorted key array plus the exact search primitives over it.

    The column does not copy or validate ``keys`` (owners already
    enforce sortedness); it contributes the *dtype discipline*: every
    query batch is normalized once by :meth:`prepare` and every
    comparison primitive consumes the prepared native-dtype values.
    """

    __slots__ = ("keys", "dtype", "_view", "_bounds")

    def __init__(self, keys: np.ndarray):
        self.keys = keys
        self.dtype = keys.dtype
        self._view = None
        self._bounds = (
            (int(np.iinfo(self.dtype).min), int(np.iinfo(self.dtype).max))
            if self.dtype.kind in "iu"
            else None
        )

    @property
    def size(self) -> int:
        return int(self.keys.shape[0])

    @property
    def view(self):
        """Native-scalar random-access view for scalar fix-up probes."""
        v = self._view
        if v is None:
            v = scalar_view(self.keys)
            self._view = v
        return v

    # -- query preparation ---------------------------------------------------

    def prepare(self, queries) -> QueryBatch:
        """Normalize a query array into a :class:`QueryBatch`.

        Idempotent: an already-prepared batch passes through.  On an
        integer column, an object array, or a Python list NumPy can
        only hold as float64, is prepared one element at a time by
        :meth:`_prepare_items`: NumPy keeps a list that mixes a
        negative int with one above int64, or a float with a big int,
        only as float64, and an int above uint64 only as an object.
        Numeric arrays, and lists NumPy holds as integers, pay nothing
        for it.  On a float column, object arrays compare in float64,
        the column's own precision.
        """
        if isinstance(queries, QueryBatch):
            return queries
        q = np.asarray(queries)
        if self._bounds is not None and (
            q.dtype == object
            or (q.dtype == np.float64 and not isinstance(queries, np.ndarray))
        ):
            return self._prepare_items(
                np.asarray(queries, dtype=object).ravel().tolist()
            )
        if q.ndim != 1:
            q = q.ravel()
        if q.dtype == object:
            q = q.astype(np.float64)
        if self.dtype.kind not in "iu":
            # Float (or other) columns: compare at the column's own
            # precision — it cannot distinguish finer values anyway.
            if q.dtype == self.dtype:
                return QueryBatch(q, float64=q if q.dtype == np.float64 else None)
            compare = q.astype(self.dtype)
            return QueryBatch(
                compare,
                float64=q.astype(np.float64) if q.dtype.kind == "f" else None,
            )
        if q.dtype == self.dtype:
            return QueryBatch(q)
        if q.dtype.kind in "iu":
            return self._prepare_int_queries(q)
        return self._prepare_float_queries(q.astype(np.float64, copy=False))

    def prepare_scalar(self, key):
        """Scalar twin of :meth:`prepare`: one query as the Python value
        a scalar descent compares with the column's keys.

        A NumPy scalar becomes its Python value (``np.float64`` against
        a stored integer rounds both to float64).  On an integer column
        a float becomes its exact ``ceil`` clamped like
        :meth:`_prepare_float_queries`' — one past the dtype's maximum
        above it, so the descent resolves to ``n``.  ``2.5`` prepares
        as ``3``: membership compares the stored key with the query.
        """
        if isinstance(key, np.generic):
            key = key.item()
        if self._bounds is None or type(key) is int:
            return key
        return _integer_ceil(key, *self._bounds)

    def _prepare_items(self, items: list) -> QueryBatch:
        """Python values against an integer column, each exactly: an
        integer by :meth:`_prepare_int_queries`' clamp, anything else by
        :meth:`_prepare_float_queries`' ``ceil`` rule."""
        low, high = self._bounds
        compare = []
        exactable = []
        oob_high = []
        for item in items:
            try:
                key = _index(item)
                exact = True
            except TypeError:
                value = float(item)
                key = _integer_ceil(value, low, high)
                exact = key == value  # int == float compares exactly
            if key > high:
                compare.append(high)
                exactable.append(False)
                oob_high.append(True)
                continue
            if key < low:
                key, exact = low, False
            compare.append(key)
            exactable.append(exact)
            oob_high.append(False)
        return QueryBatch(
            np.array(compare, dtype=self.dtype),
            None if all(exactable) else np.array(exactable, dtype=bool),
            np.array(oob_high, dtype=bool) if any(oob_high) else None,
        )

    def _prepare_int_queries(self, q: np.ndarray) -> QueryBatch:
        """Cross-dtype integer queries: clamp into the column's range."""
        if np.can_cast(q.dtype, self.dtype, "safe"):
            return QueryBatch(q.astype(self.dtype))
        info = np.iinfo(self.dtype)
        qi = np.iinfo(q.dtype)
        # Bounds representable in the query dtype by construction, so
        # the comparisons below are exact (no float promotion).
        lo_bound = max(int(info.min), int(qi.min))
        hi_bound = min(int(info.max), int(qi.max))
        oob_high = (q > hi_bound) if qi.max > info.max else None
        clipped = np.clip(q, lo_bound, hi_bound).astype(self.dtype)
        exactable = None
        if oob_high is not None and oob_high.any():
            exactable = ~oob_high
        else:
            oob_high = None
        if qi.min < info.min:
            low = q < lo_bound
            if low.any():
                exactable = ~low if exactable is None else exactable & ~low
        return QueryBatch(clipped, exactable, oob_high)

    def _prepare_float_queries(self, qf: np.ndarray) -> QueryBatch:
        """Float queries against an integer column, compared exactly.

        The lower bound of a real ``q`` among integers is the lower
        bound of ``ceil(q)``; equality is only possible where ``q`` is
        integral and inside the dtype's range.  NaN lanes prepare as
        never-equal, never-out-of-bounds probes (their position is
        unspecified, matching the scalar paths).
        """
        info = np.iinfo(self.dtype)
        ceil = np.ceil(qf)
        min_f = float(info.min)  # powers of two: always exact
        max_f = float(info.max)
        if int(max_f) == info.max:
            # max is exactly representable (e.g. int32).
            in_high = ceil <= max_f
            oob_high = ceil > max_f
        else:
            # max rounded up to the next power of two (int64/uint64):
            # any float >= max_f already exceeds the integer max.
            in_high = ceil < max_f
            oob_high = ceil >= max_f
        in_range = (ceil >= min_f) & in_high  # NaN fails both
        compare = np.full(qf.shape, info.min, dtype=self.dtype)
        compare[in_range] = ceil[in_range].astype(self.dtype)
        exactable = in_range & (qf == ceil)
        return QueryBatch(
            compare,
            exactable,
            oob_high if oob_high.any() else None,
            float64=qf,
        )

    # -- exact search primitives ----------------------------------------------

    def rank_in(
        self, sorted_values: np.ndarray, qb: QueryBatch, side: str = "left"
    ) -> np.ndarray:
        """Exact ``searchsorted`` of prepared queries into an auxiliary
        sorted array of the column's dtype (delta buffers, tombstone
        lists, ...), preserving bisect semantics for float queries:
        for a non-integral ``q``, ``bisect_right == bisect_left`` at
        ``ceil(q)``."""
        if side == "right" and qb.exactable is not None:
            left = np.searchsorted(sorted_values, qb.compare, side="left")
            right = np.searchsorted(sorted_values, qb.compare, side="right")
            pos = np.where(qb.exactable, right, left)
        else:
            pos = np.searchsorted(sorted_values, qb.compare, side=side)
        # Fresh from searchsorted (intp), so the in-place write below
        # is safe without the copy.
        pos = pos.astype(np.int64, copy=False)
        if qb.oob_high is not None:
            pos[qb.oob_high] = len(sorted_values)
        return pos

    def lower_bounds(self, queries) -> np.ndarray:
        """Whole-column exact lower bounds (the model-free batch path
        every dense tree baseline answers batches with)."""
        return self.rank_in(self.keys, self.prepare(queries), side="left")

    def bounded_lower_bounds(
        self,
        qb: QueryBatch,
        lo: np.ndarray,
        hi: np.ndarray,
    ) -> tuple[np.ndarray, int]:
        """The batch point engine's last mile, hosted exactly once.

        Fixed-round branch-free search inside the per-query windows,
        boundary-only verification (an interior result is the global
        lower bound — see
        :func:`repro.core.search.vectorized_bounded_search`), scalar
        exponential fix-up for the rare Section 3.4 misses, and the
        out-of-dtype-range clamp resolution.  Returns ``(positions,
        number of fix-ups)``.
        """
        keys = self.keys
        compare = qb.compare
        pos = vectorized_bounded_search(keys, compare, lo, hi)
        fixups = 0
        suspects = ((pos == lo) | (pos == hi)).nonzero()[0]
        if suspects.size:
            ok = verify_lower_bound_batch(
                keys, compare[suspects], pos[suspects]
            )
            misses = suspects[~ok]
            if misses.size:
                fixups = int(misses.size)
                view = self.view
                for i in misses:
                    # .item() yields a native Python scalar (int for
                    # integer columns), so the fix-up compares exactly.
                    pos[i] = exponential_search(
                        view, compare[i].item(), int(pos[i])
                    )
        if qb.oob_high is not None:
            pos[qb.oob_high] = keys.shape[0]
        return pos, fixups

    def contains_at(self, qb: QueryBatch, positions: np.ndarray) -> np.ndarray:
        """Membership mask from lower-bound positions, dtype-exact.

        ``positions[i]`` must be the lower bound of query ``i``; the
        query is present iff the position is in range, the key there
        equals the prepared compare value, and the query was exactly
        representable in the first place.
        """
        n = self.size
        positions = np.asarray(positions, dtype=np.int64)
        if n == 0:
            return np.zeros(positions.shape, dtype=bool)
        safe = np.minimum(positions, n - 1)
        hit = (positions < n) & (self.keys[safe] == qb.compare)
        if qb.exactable is not None:
            hit &= qb.exactable
        return hit

    def upper_bounds(
        self, qb: QueryBatch, lower_bounds: np.ndarray
    ) -> np.ndarray:
        """Upper-bound positions from already-resolved lower bounds.

        The single implementation of duplicate-run widening: the upper
        bound differs from the lower bound only when the query hits a
        stored key (the lower bound then sits at the *first*
        duplicate).  A hit widens by its neighbour check — one past
        the hit, unless the next key is equal too — and only the hits
        still sitting on an equal key (duplicate runs) pay a
        ``searchsorted(side="right")`` over the column; absent keys
        pay nothing.
        """
        n = self.size
        ub = np.asarray(lower_bounds, dtype=np.int64).copy()
        if n == 0 or ub.size == 0:
            return ub
        hits = np.flatnonzero(self.contains_at(qb, ub))
        if hits.size:
            ub[hits] += 1
            inner = hits[ub[hits] < n]
            runs = inner[self.keys[ub[inner]] == qb.compare[inner]]
            if runs.size:
                ub[runs] = np.searchsorted(
                    self.keys, qb.compare[runs], side="right"
                )
        return ub


class ModelSpace:
    """The encoding every model of one plan is fitted and queried in.

    A model sees ``key - origin``, never the raw key.  On an integer
    column the difference is taken exactly in the native integer domain
    — unsigned wrap-around arithmetic, so an int64 span wider than 2^63
    is still exact; values below the origin clamp to 0 — and only then
    cast to float64.  A float64 holds 53 bits: uint64 keys around 2^63
    collapse ~1 000 to a float when cast raw, but stay distinct as
    offsets from their column's first key whenever the column spans
    less than 2^53.  ``origin`` is a Python int (the scalar path
    subtracts Python ints, which never wrap); float columns, whose keys
    already are what the model computes in, keep origin 0 and encode by
    a plain cast.  An integer column may also carry origin 0 — tables
    fitted on raw keys, as run files written before the origin existed
    hold them — and is served by the same arithmetic.
    """

    __slots__ = ("origin", "_floor", "_shift", "_top")

    def __init__(self, dtype: np.dtype, origin: int = 0):
        dtype = np.dtype(dtype)
        info = np.iinfo(dtype) if dtype.kind in "iu" else None
        if type(origin) is not int or not (
            origin == 0 if info is None else info.min <= origin <= info.max
        ):
            raise ValueError(
                f"origin {origin!r} is not an integer inside the "
                f"{dtype} key domain"
            )
        self.origin = origin
        if info is None:
            self._floor = self._shift = self._top = None
        else:
            self._floor = dtype.type(origin)
            self._shift = np.dtype(f"u{dtype.itemsize}").type(
                origin % (1 << info.bits)
            )
            self._top = int(info.max)

    @classmethod
    def of(cls, keys: np.ndarray) -> "ModelSpace":
        """The space of a freshly fitted plan over ``keys``: origin at
        the column's first key."""
        if keys.dtype.kind in "iu" and keys.size:
            return cls(keys.dtype, int(keys[0]))
        return cls(keys.dtype)

    def encode(self, compare: np.ndarray) -> np.ndarray:
        """float64 model inputs for values of the column's dtype (the
        key column itself at build time, ``QueryBatch.compare`` at
        route time)."""
        if self._floor is None:
            return compare.astype(np.float64, copy=False)
        shifted = np.maximum(compare, self._floor).view(self._shift.dtype)
        shifted -= self._shift
        return shifted.astype(np.float64)

    def encode_scalar(self, key) -> float:
        """Scalar twin of :meth:`encode` for one raw query key of any
        numeric type, clamped into the key dtype like a prepared batch:
        a float query against an integer column is encoded as the
        ``ceil`` it is compared as, a NumPy integer as its exact value
        (``np.uint64 - int`` wraps or raises under NumPy 2.x; Python
        ints do not), NaN and ``-inf`` as the origin, ``+inf`` as the
        dtype's maximum."""
        if self._floor is None:
            return float(key)
        if type(key) is not int:
            if isinstance(key, np.generic):
                key = key.item()
            if type(key) is not int:
                key = _integer_ceil(key, self.origin, self._top)
        if key > self._top:
            key = self._top
        span = key - self.origin
        return float(span) if span > 0 else 0.0


def narrow_offsets(
    lo_offsets: np.ndarray, hi_offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Both error-offset tables in the narrowest signed integer dtype
    that holds them (``ceil`` of ``lo``, ``floor`` of ``hi``: the
    window ``[raw - lo - 1, raw - hi + 2)`` can only widen).  Raises
    ``ValueError`` on non-finite offsets."""
    lo = np.ceil(np.asarray(lo_offsets, dtype=np.float64))
    hi = np.floor(np.asarray(hi_offsets, dtype=np.float64))
    bound = max(
        float(np.abs(lo).max(initial=0.0)), float(np.abs(hi).max(initial=0.0))
    )
    for dtype in (np.int8, np.int16, np.int32, np.int64):
        if bound <= np.iinfo(dtype).max:
            return lo.astype(dtype), hi.astype(dtype)
    raise ValueError("error offsets must be finite")


class CompiledPlan:
    """Flat leaf tables + the batch point engine over one key column.

    The LIF analogue (Section 3.1) taken to its conclusion: a compiled
    two-stage learned index *is* four flat arrays — per-leaf
    ``slopes``/``intercepts`` and the Section 3.4 error-bound window
    offsets — plus a root predictor.  Every learned family
    (:class:`~repro.core.plan_index.CompiledPlanIndex`: the RMI, the
    hybrid index, PGM and RadixSpline) and every LSM run adapts over
    one of these instead of carrying its own copy of the
    routing/window/search pipeline.

    ``lo_offsets``/``hi_offsets`` are the per-leaf ``max_error`` /
    ``min_error`` (the window is ``[raw - lo_offset - 1,
    raw - hi_offset + 2)`` clamped — the conservative floor/ceil slack
    of the scalar path, preserved bit-for-bit), held in the narrowest
    integer dtype that fits them (:func:`narrow_offsets`).  The root
    predictor and the leaf models all live in ``space``
    (:class:`ModelSpace`; by default the column's own, origin at its
    first key).  ``crossovers`` is the family's small-batch dispatch
    table (:func:`column_answers`).
    """

    __slots__ = (
        "column",
        "root_predict_batch",
        "leaf_count",
        "slopes",
        "intercepts",
        "lo_offsets",
        "hi_offsets",
        "space",
        "crossovers",
    )

    def __init__(
        self,
        column: SortedKeyColumn,
        root_predict_batch,
        leaf_count: int,
        slopes: np.ndarray,
        intercepts: np.ndarray,
        lo_offsets: np.ndarray,
        hi_offsets: np.ndarray,
        space: ModelSpace | None = None,
        crossovers=RMI_CROSSOVERS,
    ):
        self.column = column
        self.root_predict_batch = root_predict_batch
        self.leaf_count = int(leaf_count)
        self.slopes = slopes
        self.intercepts = intercepts
        self.lo_offsets, self.hi_offsets = narrow_offsets(
            lo_offsets, hi_offsets
        )
        self.space = ModelSpace.of(column.keys) if space is None else space
        self.crossovers = crossovers

    # -- serialization ---------------------------------------------------------

    #: The flat-array fields that fully determine the plan's behavior
    #: (together with the root model's parameters); the on-disk run
    #: format persists exactly these, in this order.
    ARRAY_FIELDS = ("slopes", "intercepts", "lo_offsets", "hi_offsets")

    def export_arrays(self) -> dict[str, np.ndarray]:
        """The plan's leaf tables as float64 arrays, keyed by
        :data:`ARRAY_FIELDS` — the serializable half of a compiled
        index (the other half is the root model's two parameters and
        the origin of ``space``).  Reconstructing a plan from these
        over the same key column reproduces every lookup bit-for-bit,
        because routing, windows, and search consume nothing else."""
        return {
            name: np.ascontiguousarray(
                getattr(self, name), dtype=np.float64
            )
            for name in self.ARRAY_FIELDS
        }

    # -- routing & windows -----------------------------------------------------

    def route(self, qb: QueryBatch) -> tuple[np.ndarray, np.ndarray]:
        """(leaf indices, leaf raw predictions) for a prepared batch.

        Mirrors the scalar routing exactly: the compare values encoded
        into this plan's model space, truncated ``pred * m / n``
        clamped to ``[0, m)``, then the gathered per-leaf affine model.
        Predictions are float64 by contract — only comparisons are
        dtype-native.
        """
        n = self.column.size
        m = self.leaf_count
        encoded = self.space.encode(qb.compare)
        root = np.asarray(self.root_predict_batch(encoded), dtype=np.float64)
        leaf = (root * m / n).astype(np.int64)
        clamp_into(leaf, 0, m - 1)
        return leaf, self.slopes[leaf] * encoded + self.intercepts[leaf]

    def windows_from_raw(
        self, leaf: np.ndarray, raw: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Clamped per-query search windows from raw leaf predictions.

        The single batch-path source of the Section 3.4 window formula
        (leaf-relative error offsets with the conservative -1/+2
        floor/ceil slack), the vectorized twin of
        :meth:`~repro.core.plan_index.CompiledPlanIndex._window`.
        """
        n = self.column.size
        # Clamped in float64 before the cast, which has no int64 value
        # for a prediction past 2^63 (a probe of 2**63 - 1 into a
        # two-key column); for every finite prediction these are
        # clamp_window's integer clamps of lo to [0, n] and hi to n.
        lo = clamp_into(raw - self.lo_offsets[leaf], 1, n + 1).astype(np.int64)
        lo -= 1
        hi = clamp_into(raw - self.hi_offsets[leaf], -2, n - 2).astype(np.int64)
        hi += 2
        degenerate = hi <= lo
        if degenerate.any():
            collapsed = np.minimum(
                lo[degenerate], np.maximum(hi[degenerate] - 1, 0)
            )
            lo[degenerate] = collapsed
            hi[degenerate] = np.minimum(collapsed + 1, n)
        return lo, hi

    # -- the batch point engine ------------------------------------------------

    def _engine(self, qb: QueryBatch) -> np.ndarray:
        """Route → window → fixed-round bounded search → verify → fix up."""
        lo, hi = self.windows_from_raw(*self.route(qb))
        # Unlike the scalar path, no +1 window extension: a result at
        # the exclusive end is caught by the boundary verification
        # inside bounded_lower_bounds, and a window one slot narrower
        # can save a round.
        return self.column.bounded_lower_bounds(qb, lo, hi)[0]

    def lookup_batch(
        self,
        qb: QueryBatch,
        *,
        sort: bool | None = None,
    ) -> np.ndarray:
        """Lower-bound positions for a prepared batch.

        ``sort`` controls the sorted-batch fast path: order the compare
        values with their positions in one packed sort
        (:func:`repro.util.sorted_order`; an argsort where the values do
        not pack), mark each run of equal values by a neighbour compare,
        run the engine on the distinct values — sequential gathers, and
        under the skewed workloads where batching matters far fewer of
        them — then repeat each position over its run and scatter it
        back through the order.  A query's position depends only on its
        compare value (the engine verifies every boundary), so the
        output is bit-identical to the unsorted engine.  ``sort=None``
        lets the call choose: the column answers it outright when
        :func:`column_answers` says the whole-column search is the
        cheaper side, otherwise the size + duplicate-density heuristic
        (:data:`~repro.dispatch.SORTED_BATCH_THRESHOLD`,
        :data:`~repro.dispatch.SORTED_BATCH_MIN_DUP_FRACTION`) picks the
        engine path.
        ``True``/``False`` force that engine path (benchmarks measure
        both).
        """
        compare = qb.compare
        column = self.column
        from_column = sort is None and column_answers(
            compare.size, column.size, self.crossovers
        )
        if obs_state.enabled:
            # One branch on the hot path when disabled; the batch
            # counters feed the obs exporters and the auto-tuning arc.
            reg = default_registry()
            reg.counter("engine.lookup_batch.calls").inc()
            reg.counter("engine.lookup_batch.keys").inc(int(compare.size))
            if from_column:
                reg.counter("engine.lookup_batch.column_calls").inc()
                reg.counter("engine.lookup_batch.column_keys").inc(
                    int(compare.size)
                )
        if from_column:
            return column.lower_bounds(qb)
        if sort is None:
            sort = compare.size >= SORTED_BATCH_THRESHOLD and (
                batch_dup_fraction(compare) >= SORTED_BATCH_MIN_DUP_FRACTION
            )
        if not sort or compare.size <= 1:
            return self._engine(qb)
        ordered, order = sorted_order(compare)
        first = np.empty(compare.size, dtype=bool)
        first[0] = True
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        # The unique sub-batch needs no masks: clamped compare values
        # search fine, and the original batch's oob mask re-applies
        # after the scatter.  Each unique position repeats over its
        # run of equal values (cheaper than a gather by cumsum ids).
        pos = np.empty(compare.size, dtype=np.int64)
        pos[order] = np.repeat(
            self._engine(QueryBatch(ordered[starts])),
            np.diff(starts, append=compare.size),
        )
        if qb.oob_high is not None:
            pos[qb.oob_high] = self.column.size
        return pos
