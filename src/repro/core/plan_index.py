"""The one index surface: a learned range index over a compiled plan.

Every learned family in this repo — the RMI (:mod:`repro.core.rmi`),
the PGM-index and RadixSpline (:mod:`repro.families`) — differs only in
how it *fits* linear leaf segments and how routing picks one for a
query; everything after routing — the Section 3.4 error window, the
bounded search, the dtype-exact verification and fix-up, the
sorted-batch fast path, range assembly — is shared.
:class:`CompiledPlanIndex` captures that split: a subclass builds its
segments and routing structure in ``_build`` and installs them with
:meth:`~CompiledPlanIndex._install_plan`; the base provides the full
scalar + batch public surface over the installed
:class:`~repro.core.engine.CompiledPlan`, so every family drops into
the differential-oracle and adversarial-dtype suites, the serving
layer, and the benchmarks unchanged.

The scalar lookup is written once, here, in :class:`ScalarLookup`:
the host's window (for this class
:meth:`~CompiledPlanIndex._window`: encode, the single routing hook
:meth:`~CompiledPlanIndex._route_scalar`, the leaf's affine model and
error offsets, over plain-float list mirrors of the plan's tables), a
bounded binary search inside it, and the Section 3.4 check that widens
a miss by exponential search.  Hosts vary only the search inside the
window: the probe schedules of :mod:`repro.core.search` and the hybrid
B-Tree leaves of :class:`~repro.core.hybrid.BTreeLeaves` plug in as
:attr:`~ScalarLookup._search_window`.  The string index
(:mod:`repro.core.string_index`) hosts the same lookup over its
tokenized window and Python-string keys.  Models —
the scalar path's and the plan's alike — see a key only through the
index's :class:`~repro.core.engine.ModelSpace` (``key - origin``, exact
in the key dtype before the float64 cast), never the raw key.
Exactness never depends on routing: any leaf's stored window is
searched and the result verified, so a query sent to the wrong leaf
costs a fix-up, never a wrong position — which is also why float64
routing stays exact on int64/uint64 columns spanning more than 2^53.

A hierarchy deeper than root → leaf compiles too: its internal stages
fold into the one ``root_predict_batch`` the plan routes with (see
:mod:`repro.core.rmi`).

Contract for anyone adding a family
-----------------------------------
* **Builder hooks.**  A family subclasses :class:`CompiledPlanIndex`
  and implements ``_build()`` — fit over ``self._space.encode(self.keys)``
  (``key - keys[0]`` subtracted exactly in the key dtype, then float64:
  ``ModelSpace.encode`` / ``encode_scalar`` are the only places a key
  becomes a model input) and hand the flat ``(root_predict_batch,
  leaf_count, slopes, intercepts, lo_offsets, hi_offsets)`` tables to
  :meth:`~CompiledPlanIndex._install_plan` (offsets are narrowed to the
  smallest of int8/int16/int32 that holds both tables;
  ``root_predict_batch`` receives encoded queries) — and
  ``_route_scalar(encoded)``, the scalar leaf route; optionally
  ``_routing_size_bytes()`` for size accounting.  Everything else is
  inherited.  ``_build`` is skipped on empty keys, and an empty index
  branches on ``keys.size``, never on ``_plan``.
* **The RMI** is its root plus flat tables: it keeps per-stage key
  counts and each leaf's error std (the biased quaternary probe seed)
  beside the plan, and its ``size_bytes`` and windows are read off
  those.  It also keeps ``predict``, the probe schedule a
  non-``"binary"`` ``search_strategy`` plugs into the shared lookup,
  and ``compiled_state`` / ``from_compiled_arrays`` (no retrain, no
  re-validation; the state carries ``origin``, default 0).  Its
  training path's per-leaf oracle is ``tests/test_build_equivalence.py``.
* **Private reads.**  In-package consumers read at most ``_plan`` and
  ``_column`` of an index: ``HybridIndex`` reads its own plan's offset
  tables, ``WritableLearnedIndex``'s fast-append check and
  ``LearnedHashFunction`` route through both, ``PagedLearnedIndex``
  reads its RMI's ``_column`` for the scalar query rule, and the
  benchmark's per-layer trace reads ``_plan``; the LSM store uses
  public methods only.  The side indexes (``PagedLearnedIndex``,
  ``WritableLearnedIndex``, ``StringRMI``) read through scalar calls
  only; ``WritableLearnedIndex`` keeps ``insert_batch``.
* **Stats.**  An index's ``stats`` (:class:`RMIStats`) count its scalar
  lookups — the cost-model counters Figures 4 and 6 and the ablations
  read.  A batch call leaves them alone; with telemetry on, the
  ``engine.lookup_batch.*`` registry counters count batch calls and
  keys, and ``column_calls`` / ``column_keys`` the share the column
  answered.
* **ε semantics** (:mod:`repro.families.segmentation`).  Every segment
  spanning two or more distinct keys obeys ``|slope·x + intercept −
  pos| ≤ ε``; a single-run segment carries its measured bounds.  The
  offsets are measured in the fitter's centered form, so re-evaluating
  ``slope·x + intercept`` may drift a few ulp of ``|slope·x|``; the
  engine's −1/+2 window padding absorbs it.
* **Adding a family.**  Implement the hooks, export it from
  ``families/__init__`` and ``repro/__init__``, and add a factory to
  ``NUMERIC_FACTORIES`` in ``tests/test_differential_oracle.py`` (the
  suite crosses it with every key regime, the beyond-2^53 ones
  included) and to the factories of ``tests/test_batch_equivalence.py``.
  A timing comparison is a ``benchmarks/e2e`` metric, not a new script.
  Inserts are Appendix D.1's delta buffer (``WritableLearnedIndex``,
  ``LearnedLSMStore``); there is no writable family.
"""

from __future__ import annotations

import numpy as np

from ..btree.search_baselines import exponential_search
from ..range_scan import (
    RangeScanIndexMixin,
    RangeScanResult,
    batch_range_scan,
)
from ..util import scalar_view
from .engine import (
    RMI_CROSSOVERS, CompiledPlan, ModelSpace, SortedKeyColumn, clamp_window,
)
from .search import SEARCH_STRATEGIES, biased_quaternary_search

__all__ = ["CompiledPlanIndex", "RMIStats", "ScalarLookup"]


class RMIStats:
    """Lookup instrumentation for benchmarks and the cost model.

    Plain ints, like the ``TraversalStats`` of the baselines these
    indexes are raced against: every scalar lookup bumps them and
    nothing exports them, so they are not a :class:`repro.obs.StatsView`.
    Batch calls leave them alone; with telemetry on, the
    ``engine.lookup_batch.*`` registry counters count those.
    """

    __slots__ = ("lookups", "comparisons", "fixups", "window_total")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.lookups = self.comparisons = self.fixups = self.window_total = 0

    @property
    def mean_window(self) -> float:
        return self.window_total / self.lookups if self.lookups else 0.0


class ScalarLookup:
    """The one scalar Section 3.4 lookup, for every host that predicts
    a window and searches it.

    A host supplies ``_keys_view`` (its sorted keys, indexable as
    Python values), ``stats`` (an :class:`RMIStats`) and
    ``_window(key, n) -> (leaf, raw prediction, lo, hi)`` for an index
    of ``n = len(_keys_view) > 0`` keys; a host whose
    ``search_strategy`` is not ``"binary"`` also sets ``_sigmas`` (each
    leaf's error std, for biased quaternary search, else ``None``) and
    installs :meth:`_probe_window` as :attr:`_search_window`.
    """

    #: The search inside the window, if not the inline binary search:
    #: ``(key, leaf, raw, lo, hi) -> position`` (``raw``: the leaf's
    #: unclamped prediction), or ``None`` for the binary search after
    #: all; it counts its own ``window_total`` and ``comparisons``.
    _search_window = None

    #: Slots past ``hi`` a probe schedule searches too: the lower bound
    #: of an absent key can be ``hi`` itself.
    _probe_slack = 0

    def _window(
        self, key, n: int
    ) -> tuple[int, float, int, int]:  # pragma: no cover - abstract
        raise NotImplementedError

    def predict(self, key) -> tuple[int, int, int]:
        """(position estimate, window lo, window hi) for ``key``: the
        window :meth:`lookup` searches.

        The true lower bound of a *stored* key always lies inside
        ``[lo, hi)``; hi is exclusive.
        """
        n = len(self._keys_view)
        if n == 0:
            return 0, 0, 0
        _leaf, raw, lo, hi = self._window(key, n)
        return min(max(int(raw), 0), n - 1), lo, hi

    def lookup(self, key) -> int:
        """Position of the first stored key >= ``key`` (lower bound).

        A NumPy scalar compares as its Python value: ``np.float64``
        against a stored int would round the int to float64.
        """
        keys = self._keys_view
        n = len(keys)
        if n == 0:
            return 0
        if isinstance(key, np.generic):
            key = key.item()
        stats = self.stats
        stats.lookups += 1
        leaf, raw, lo, hi = self._window(key, n)
        search = self._search_window
        left = None if search is None else search(key, leaf, raw, lo, hi)
        if left is None:
            stats.window_total += hi - lo
            comparisons = 0
            left, right = lo, hi
            while left < right:
                mid = (left + right) >> 1
                comparisons += 1
                if keys[mid] < key:
                    left = mid + 1
                else:
                    right = mid
            stats.comparisons += comparisons
        # Misprediction check (Section 3.4): widen if the window missed.
        if left < n and keys[left] < key:
            stats.fixups += 1
            return exponential_search(keys, key, left)
        if left > 0 and keys[left - 1] >= key:
            stats.fixups += 1
            return exponential_search(keys, key, left - 1)
        return left

    def _probe_window(
        self, key, leaf: int, raw: float, lo: int, hi: int
    ) -> int:
        """The window search of a non-``"binary"`` strategy (the paper's
        probe schedules), from the model's estimate; it counts its
        comparisons straight into ``stats``."""
        keys = self._keys_view
        n = len(keys)
        stats = self.stats
        stats.window_total += hi - lo
        hi = min(hi + self._probe_slack, n)
        guess = min(max(int(raw), 0), n - 1)
        sigmas = self._sigmas
        if sigmas is None:
            return SEARCH_STRATEGIES[self.search_strategy](
                keys, key, lo, hi, guess, stats
            )
        return biased_quaternary_search(
            keys, key, lo, hi, guess, sigmas[leaf], stats
        )


class CompiledPlanIndex(ScalarLookup, RangeScanIndexMixin):
    """A learned range index whose batch surface is one compiled plan.

    Subclasses implement ``_build`` (segment fitting over
    ``self._space.encode(self.keys)`` + routing structure, installed
    with :meth:`_install_plan`) and ``_route_scalar`` (one encoded key
    → leaf index, the scalar analogue of the plan's vectorized
    routing).  Lower-bound semantics are identical to every index in
    :mod:`repro.btree`, whose scalar ``contains`` / ``upper_bound`` /
    ``range_query`` this class shares
    (:class:`~repro.range_scan.RangeScanIndexMixin`).
    """

    #: The small-batch dispatch table the plan carries
    #: (:func:`repro.core.engine.column_answers`).
    crossovers = RMI_CROSSOVERS

    def __init__(self, keys: np.ndarray):
        keys = np.asarray(keys)
        if keys.ndim != 1:
            raise ValueError("keys must be one-dimensional")
        # Comparison instead of np.diff: no int64 difference overflow
        # on huge key spans and no full-width temporary.
        if keys.size and np.any(keys[:-1] > keys[1:]):
            raise ValueError("keys must be sorted ascending")
        self._bind_keys(keys)
        if keys.size:
            self._build()

    def _bind_keys(self, keys: np.ndarray) -> None:
        """Adopt ``keys`` (sorted; not copied, not re-validated) as
        the indexed column, with no plan installed yet."""
        self.keys = keys
        self._keys_view = scalar_view(keys)
        self._column = SortedKeyColumn(keys)
        self._space = ModelSpace.of(keys)
        self.stats = RMIStats()
        self._plan: CompiledPlan | None = None

    # -- subclass contract -------------------------------------------------

    def _build(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _route_scalar(self, encoded: float) -> int:  # pragma: no cover - abstract
        """Leaf segment index for one key encoded by ``self._space``."""
        raise NotImplementedError

    def _routing_size_bytes(self) -> int:
        """Bytes held by the family's routing structure (beyond the
        four flat leaf tables) — radix table, internal levels, ..."""
        return 0

    def _install_plan(
        self,
        root_predict_batch,
        leaf_count: int,
        slopes: np.ndarray,
        intercepts: np.ndarray,
        lo_offsets: np.ndarray,
        hi_offsets: np.ndarray,
    ) -> None:
        """Adopt solved leaf tables as this index's compiled plan.

        ``root_predict_batch`` must accept a bare float64 array of
        queries encoded by ``self._space`` and return float64
        *position* predictions whose ``floor(pred * leaf_count / n)``
        recovers the intended leaf — the plan's routing contract.
        """
        plan = self._plan = CompiledPlan(
            self._column,
            root_predict_batch,
            leaf_count,
            slopes,
            intercepts,
            lo_offsets,
            hi_offsets,
            self._space,
            self.crossovers,
        )
        # Python-list mirrors: native scalars per probe on the scalar
        # latency path (indexing numpy boxes a NumPy scalar each time).
        self._slopes_list = slopes.tolist()
        self._intercepts_list = intercepts.tolist()
        self._lo_offsets_list = plan.lo_offsets.tolist()
        self._hi_offsets_list = plan.hi_offsets.tolist()

    # -- scalar latency path ----------------------------------------------

    def _window(self, key, n: int) -> tuple[int, float, int, int]:
        """``(leaf, raw prediction, lo, hi)`` for one key of an index
        of ``n > 0`` keys: encode, route, the leaf's affine model, and
        the clamped ``[raw - lo_offset - 1, raw - hi_offset + 2)`` —
        the scalar twin of :meth:`CompiledPlan.windows_from_raw`."""
        encoded = self._space.encode_scalar(key)
        leaf = self._route_scalar(encoded)
        raw = self._slopes_list[leaf] * encoded + self._intercepts_list[leaf]
        lo, hi = clamp_window(
            int(raw - self._lo_offsets_list[leaf]) - 1,
            int(raw - self._hi_offsets_list[leaf]) + 2,
            n,
        )
        return leaf, raw, lo, hi

    # -- batch surface (thin adapters over the shared engine) --------------
    #
    # Queries are prepared once into the key column's native dtype, the
    # CompiledPlan runs route → window → fixed-round bounded search →
    # verification → fix-up, and the column primitives answer
    # membership and duplicate widening.  No search or comparison
    # logic lives in this class.

    def lookup_batch(
        self, queries: np.ndarray, *, sort: bool | None = None
    ) -> np.ndarray:
        """Lower-bound positions for a whole query batch.

        Identical to a per-query :meth:`lookup` loop and exact in the
        key dtype (int64 keys >= 2^53 included).

        ``sort`` controls the sorted-batch fast path (one packed sort +
        engine over the distinct queries + one scatter back, see
        :meth:`CompiledPlan.lookup_batch
        <repro.core.engine.CompiledPlan.lookup_batch>`):
        ``None`` (default) applies the size + duplicate-density
        heuristic, ``True``/``False`` force it on/off.  All three
        settings return bit-identical positions.
        """
        return self._lower_bounds_with_batch(queries, sort)[1]

    def _lower_bounds_with_batch(self, queries, sort=None):
        """(prepared batch, lower bounds) — one preparation, shared by
        every batch surface; the batch is ``None`` on an empty index."""
        if self.keys.size == 0:
            return None, np.zeros(np.size(queries), dtype=np.int64)
        qb = self._column.prepare(queries)
        return qb, self._plan.lookup_batch(qb, sort=sort)

    def contains_batch(self, queries: np.ndarray) -> np.ndarray:
        """Vectorized membership: one bool per query, dtype-exact."""
        qb, positions = self._lower_bounds_with_batch(queries)
        if qb is None:
            return np.zeros(positions.size, dtype=bool)
        return self._column.contains_at(qb, positions)

    def range_query_batch(
        self, lows: np.ndarray, highs: np.ndarray, *, sort: bool | None = None
    ) -> RangeScanResult:
        """Batched :meth:`range_query`: all stored keys in each
        ``[lows[i], highs[i]]``.

        Both endpoint arrays resolve through :meth:`lookup_batch` in a
        single concatenated call (the sorted fast path applies to the
        combined batch), then the slices are copied out — long ones as
        blocks, short ones by one gather; see :mod:`repro.range_scan`.  ``result[i]`` is
        bit-identical to ``range_query(lows[i], highs[i])``.
        """
        return batch_range_scan(
            self.keys, lows, highs,
            lambda q: self.lookup_batch(q, sort=sort),
            column=self._column,
        )

    # -- accounting --------------------------------------------------------

    @property
    def segment_count(self) -> int:
        return self._plan.leaf_count if self.keys.size else 0

    def size_bytes(self) -> int:
        """The four leaf tables as held (float64 models, offsets in
        their narrowed dtype) + routing structure; zero on an empty
        index (nothing was built)."""
        if not self.keys.size:
            return 0
        plan = self._plan
        return sum(
            getattr(plan, name).nbytes for name in plan.ARRAY_FIELDS
        ) + self._routing_size_bytes()

    def _error_windows(self) -> np.ndarray:
        """Per-leaf ``lo_offset - hi_offset``, widened out of the
        tables' narrow dtype before subtracting."""
        plan = self._plan
        return plan.lo_offsets.astype(np.int64) - plan.hi_offsets

    @property
    def max_error_window(self) -> int:
        if not self.keys.size:
            return 0
        return int(np.max(self._error_windows()))

    @property
    def mean_error_window(self) -> float:
        if not self.keys.size:
            return 0.0
        return float(np.mean(self._error_windows()))

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n={self.keys.size}, "
            f"segments={self.segment_count}, "
            f"size={self.size_bytes()}B, "
            f"mean_window={self.mean_error_window:.1f})"
        )
