"""The Recursive Model Index (Section 3.2) — the paper's core system.

An RMI is a hierarchy of models: "at each stage the model takes the key
as an input and based on it picks another model, until the final stage
predicts the position".  Stage ℓ holds M_ℓ models; model selection is
``floor(M_ℓ * f_{ℓ-1}(x) / N)`` and each stage is trained on exactly
the keys the trained stages above route to it (stage-wise training,
Algorithm 1 lines 4-10).

Key properties reproduced here:

* **not a tree** — "it is possible that different models of one stage
  pick the same models at the stage below", and leaf models cover
  varying numbers of keys;
* **error bounds** — "we store the standard and min- and max-error for
  every model on the last stage", so each lookup searches only
  ``[pred - max_err, pred - min_err]`` (Section 3.4);
* **guaranteed correctness** — for stored keys the bounds are exact by
  construction; for absent keys under a non-monotonic model the bounded
  window can miss, in which case we "automatically adjust the search
  area" (Section 3.4) with an exponential-search fix-up — counted in
  :attr:`RecursiveModelIndex.stats` so benchmarks can report how rare
  it is;
* **scalar fast path** — leaf models are plain-float linear models by
  default; a lookup is a handful of Python float operations plus a
  bounded search, mirroring LIF's code-generated inference.

The public API is ``lookup`` / ``upper_bound`` / ``range_query`` /
``contains`` with lower-bound semantics identical to every baseline in
:mod:`repro.btree`, plus ``predict`` exposing (estimate, window) and
the batch variants.  All of it except ``predict`` and the
general-strategy scalar ``lookup`` is inherited from
:class:`repro.core.plan_index.CompiledPlanIndex`: this module
contributes what is specific to the RMI — stage-wise training
(``_build``), root → leaf routing (``_route_scalar``), and the
model-level accounting and serialization.

Compilation
-----------
Every RMI compiles to one :class:`~repro.core.engine.CompiledPlan`
whose routing function is the root's ``predict_batch`` followed by one
truncated affine gather per internal stage
(``pred = s_l[clip(trunc(pred * M_l / n))] * x + b_l[...]``), which is
why only the root may be non-linear.

Construction
------------
Stage-wise training is single-pass array math wherever the stage is
plain linear regression.  Keys route to leaves with one root
``predict_batch``; each leaf's least-squares line solves from per-leaf
sufficient statistics — within leaf ``j`` with members ``(x_i, y_i)``,
center on the leaf means and accumulate ``Σdx²`` and ``Σdx·dy`` with
``np.bincount(assignment, weights=...)``, giving

    ``slope_j = Σdx·dy / Σdx²``,  ``intercept_j = ȳ_j - slope_j·x̄_j``

for every leaf at once (:func:`repro.models.linear.segmented_linear_fit`).
Any other stage model (a non-linear root, a ``LinearModel`` subclass)
takes the per-model fit loop.  Leaf error bounds always come from one
vectorized pass over the assignment-sorted signed errors
(:func:`repro.models.cdf.segmented_error_arrays`).
``tests/test_build_equivalence.py`` pins the segmented fit against the
per-model loop: same leaf assignment, same models up to float
tolerance, bit-identical lookups.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..btree.search_baselines import exponential_search
from ..models.base import ConstantModel, Model
from ..models.cdf import (
    ErrorStats,
    error_stats_list_from_arrays,
    positions_for_keys,
    segmented_error_arrays,
)
from ..models.linear import (
    LinearModel,
    fit_linear_cdf_root,
    segmented_linear_fit,
)
from ..util import clamp_into
from .engine import (
    SORTED_BATCH_MIN_DUP_FRACTION,
    SORTED_BATCH_THRESHOLD,
    ModelSpace,
    clamp_window,
    clamp_window_batch,
    narrow_offsets,
)
from .plan_index import CompiledPlanIndex, RMIStats
from .search import (
    Counter,
    bounded_search,
    verify_lower_bound,
)

__all__ = [
    "RecursiveModelIndex",
    "RMIStats",
    "DEFAULT_LEAF_ERROR",
    "SORTED_BATCH_THRESHOLD",
    "SORTED_BATCH_MIN_DUP_FRACTION",
    "clamp_window",
    "clamp_window_batch",
]

#: Error assigned to untrained (empty) leaves: about a page of slack,
#: and the widest an int8 offset table holds — one dead leaf must not
#: widen every leaf's offsets to int16.
DEFAULT_LEAF_ERROR = 127


class RecursiveModelIndex(CompiledPlanIndex):
    """A staged learned range index over a sorted key array.

    Parameters
    ----------
    keys:
        Sorted numpy array of keys (the data; not copied).
    stage_sizes:
        Models per stage, e.g. ``(1, 10_000)`` for the paper's standard
        two-stage RMI.  The first entry must be 1 (a single root).
    model_factories:
        One zero-argument :class:`repro.models.base.Model` factory per
        stage.  Defaults to linear regression everywhere — the paper's
        best second-stage choice and a solid root for smooth data; pass
        e.g. a ``NeuralRegressionModel`` factory for the root to
        reproduce the grid-searched configurations.  Every stage below
        the root must build :class:`~repro.models.linear.LinearModel`
        instances (a k-knot spline leaf is k linear leaves); anything
        else is a ``ValueError`` before any fitting.
    search_strategy:
        One of :data:`repro.core.search.SEARCH_STRATEGIES`.
    min_leaf_error:
        Lower clamp on the stored per-leaf error window; widening it
        trades comparisons for robustness on absent keys.
    """

    def __init__(
        self,
        keys: np.ndarray,
        stage_sizes: Sequence[int] = (1, 100),
        model_factories: Sequence[Callable[[], Model]] | None = None,
        search_strategy: str = "binary",
        min_leaf_error: int = 0,
    ):
        stage_sizes = tuple(int(m) for m in stage_sizes)
        if len(stage_sizes) < 1 or stage_sizes[0] != 1:
            raise ValueError("stage_sizes must start with a single root model")
        if any(m < 1 for m in stage_sizes):
            raise ValueError("every stage needs at least one model")
        if model_factories is None:
            model_factories = [LinearModel for _ in stage_sizes]
        if len(model_factories) != len(stage_sizes):
            raise ValueError("need one model factory per stage")
        for factory in model_factories[1:]:
            if factory is not LinearModel and not isinstance(
                factory(), LinearModel
            ):
                raise ValueError(
                    "every stage below the root must be a LinearModel: "
                    "the compiled plan routes through affine stages"
                )
        self.stage_sizes = stage_sizes
        self.search_strategy = str(search_strategy)
        self.min_leaf_error = int(min_leaf_error)
        self._model_factories = list(model_factories)
        super().__init__(keys)
        if not self.keys.size:
            # The base trains only on data; an empty RMI still carries
            # its (untrained) stage models so routing, ``predict`` and
            # the size accounting stay total.
            self._build()

    # -- training (Algorithm 1, lines 1-10) ----------------------------------

    def _build(self) -> None:
        n = self.keys.size
        keys_f = self._space.encode(self.keys)
        positions = positions_for_keys(n)
        stages: list[list[Model]] = []
        # Leaf parameter arrays cached by the segmented fit so _compile
        # can skip its per-leaf extraction loop; the per-model fit loop
        # leaves them None and _compile reads the model objects.
        self._leaf_param_arrays: tuple[np.ndarray, np.ndarray] | None = None
        # (model count, slopes, intercepts) of every internal stage, the
        # tables the compiled routing function gathers from.
        internal: list[tuple[int, np.ndarray, np.ndarray]] = []
        # When the leaf stage is vectorized, the per-leaf Model objects
        # are materialized lazily from these parts (see __getattr__) —
        # a compiled index never needs them on the hot path.
        deferred_leaf_stage: tuple | None = None
        leaf_boundaries: np.ndarray | None = None
        # Which leaf-stage model each stored key routes to; needed for
        # both training subsets and error bookkeeping.
        assignment = np.zeros(n, dtype=np.int64)
        predictions = np.zeros(n, dtype=np.float64)
        last = len(self.stage_sizes) - 1

        for level, m_l in enumerate(self.stage_sizes):
            factory = self._model_factories[level]
            if level == 0:
                # Plain linear roots take the temp-free CDF fit.  The
                # sniffed instance is reused for the fit when the
                # factory turns out non-linear — constructing an NN
                # root twice per (re)build would be real money.
                probe = None if factory is LinearModel else factory()
                if probe is None or type(probe) is LinearModel:
                    root: Model = fit_linear_cdf_root(keys_f, positions)
                else:
                    root = probe.fit(keys_f, positions)
                self._root_model = root
                predictions = np.asarray(
                    root.predict_batch(keys_f), dtype=np.float64
                )
                assignment[:] = 0
                stages.append([root])
                continue
            # Route every key by the stage above:
            # j = floor(M_l * f_prev(x) / N), clamped.  In-place ops
            # (same numerics as floor(predictions * m_l / n)); the
            # previous stage's predictions are dead after routing.
            if n:
                raw = predictions
                raw *= m_l
                raw /= max(n, 1)
                np.floor(raw, out=raw)
                np.clip(raw, 0, m_l - 1, out=raw)
                assignment = raw.astype(np.int64)
            if self._stage_vectorizable(factory):
                # Compute the contiguity layout once; the error pass
                # below reuses the leaf stage's boundaries.
                if n and bool(np.all(assignment[1:] >= assignment[:-1])):
                    boundaries = np.searchsorted(
                        assignment, np.arange(m_l + 1), side="left"
                    )
                else:
                    boundaries = None
                slopes, intercepts, counts, predictions = (
                    segmented_linear_fit(
                        keys_f, positions, assignment, m_l,
                        return_predictions=True,
                        boundaries=boundaries,
                    )
                )
                empty = np.nonzero(counts == 0)[0].tolist()
                # Give empty slots their ConstantModel's value so the
                # cached arrays equal what _compile's extraction loop
                # would produce; no key routes to an empty leaf, so
                # predictions are unaffected.
                for j in empty:
                    intercepts[j] = self._empty_leaf_model(j, m_l, n).value
                parts = (slopes, intercepts, empty, m_l, n)
                if level == last:
                    self._leaf_param_arrays = (slopes, intercepts)
                    deferred_leaf_stage = parts
                    leaf_boundaries = boundaries
                    continue
                stages.append(self._models_from_arrays(*parts))
            else:
                models, predictions = self._fit_stage_scalar(
                    keys_f, positions, assignment, m_l, factory
                )
                stages.append(models)
                if level == last:
                    continue
                slopes, intercepts = self._stage_tables(models)
            # An internal stage routes the stage below by exactly the
            # affine form the compiled plan evaluates, so every stored
            # key trains the leaf a lookup for it reaches.
            internal.append((m_l, slopes, intercepts))
            predictions = slopes[assignment] * keys_f + intercepts[assignment]

        self._leaf_assignment = assignment
        if deferred_leaf_stage is not None:
            self._deferred_leaf_stage = (stages, *deferred_leaf_stage)
        else:
            self._stages = stages
        self._compute_leaf_errors(
            predictions, positions, boundaries=leaf_boundaries
        )
        self._compile(internal)

    def __getattr__(self, name: str):
        # Lazy views of the compiled arrays: the per-leaf Model objects
        # of a vectorized leaf stage and the ErrorStats rows (tens of
        # thousands of Python allocations) are deferred until something
        # actually introspects them.  __getattr__ only fires for
        # attributes missing from the instance, so once materialized
        # access costs nothing extra.
        if name == "_stages":
            parts = self.__dict__.get("_deferred_leaf_stage")
            if parts is not None:
                prefix, slopes, intercepts, empty, m_l, n = parts
                stages = [*prefix, self._models_from_arrays(
                    slopes, intercepts, empty, m_l, n
                )]
                self._stages = stages
                return stages
        elif name == "leaf_errors":
            parts = self.__dict__.get("_leaf_error_stat_arrays")
            if parts is not None:
                stats = error_stats_list_from_arrays(*parts)
                self.leaf_errors = stats
                return stats
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def _models_from_arrays(
        self,
        slopes: np.ndarray,
        intercepts: np.ndarray,
        empty: list[int],
        m_l: int,
        n: int,
    ) -> list[Model]:
        """Stage model objects from solved parameter arrays."""
        models: list[Model] = list(
            map(LinearModel, slopes.tolist(), intercepts.tolist())
        )
        for j in empty:
            models[j] = self._empty_leaf_model(j, m_l, n)
        return models

    @staticmethod
    def _stage_vectorizable(factory: Callable[[], Model]) -> bool:
        """Whether a stage's models can come from the segmented fit.

        The vectorized fit reproduces exactly plain
        :class:`~repro.models.linear.LinearModel` least squares, so a
        subclass (one overriding ``fit``, say) takes the per-model loop.
        Factories are sniffed by instantiating one throwaway model,
        which also covers lambda factories.
        """
        return factory is LinearModel or type(factory()) is LinearModel

    def _fit_stage_scalar(
        self,
        keys_f: np.ndarray,
        positions: np.ndarray,
        assignment: np.ndarray,
        m_l: int,
        factory: Callable[[], Model],
    ) -> tuple[list[Model], np.ndarray]:
        """Per-model fit loop: the only path for stages the segmented
        fit cannot express (see :meth:`_stage_vectorizable`)."""
        n = keys_f.size
        order = np.argsort(assignment, kind="stable")
        sorted_assign = assignment[order]
        boundaries = np.searchsorted(
            sorted_assign, np.arange(m_l + 1), side="left"
        )
        models: list[Model] = []
        new_predictions = np.zeros(n, dtype=np.float64)
        for j in range(m_l):
            members = order[boundaries[j]:boundaries[j + 1]]
            if members.size:
                model = factory().fit(keys_f[members], positions[members])
                new_predictions[members] = np.asarray(
                    model.predict_batch(keys_f[members]), dtype=np.float64
                )
            else:
                model = self._empty_leaf_model(j, m_l, n)
            models.append(model)
        return models, new_predictions

    @staticmethod
    def _stage_tables(models: list[Model]) -> tuple[np.ndarray, np.ndarray]:
        """(slopes, intercepts) of one stage's linear models; an empty
        slot's :class:`ConstantModel` is slope 0."""
        slopes = [getattr(m, "slope", 0.0) for m in models]
        intercepts = [
            getattr(m, "intercept", getattr(m, "value", 0.0)) for m in models
        ]
        return np.array(slopes, np.float64), np.array(intercepts, np.float64)

    def _empty_leaf_model(self, j: int, m_l: int, n: int) -> Model:
        """Model for a leaf that received no keys.

        Routing must stay total for absent keys, so empty leaves predict
        the position their slot would cover if the data were spread
        evenly — the neighbourhood interpolation keeps mispredictions
        within one slot of the truth.
        """
        if n == 0:
            return ConstantModel(0.0)
        return ConstantModel((j + 0.5) * n / m_l)

    def _default_leaf_error(self) -> ErrorStats:
        """Stats assigned to untrained leaves: one page of slack."""
        slack = min(DEFAULT_LEAF_ERROR, max(self.keys.size, 1))
        return ErrorStats(-slack, slack, 0.0, 0.0, 0)

    def _compute_leaf_errors(
        self,
        predictions: np.ndarray,
        positions: np.ndarray,
        boundaries: np.ndarray | None = None,
    ) -> None:
        """Per-leaf signed min/max error over assigned keys (Section
        3.4), all leaves in one vectorized pass.

        Min/max via ``np.minimum/maximum.reduceat`` over the
        assignment-ordered signed errors, moments via
        ``np.add.reduceat`` — no per-leaf Python scan.  Only the flat
        arrays are produced here: ``_compile`` consumes the window
        offsets directly, and the ``leaf_errors`` list of
        :class:`ErrorStats` materializes lazily on first access
        (``__getattr__``).
        """
        min_error, max_error, mean_abs, std, counts = (
            segmented_error_arrays(
                predictions,
                positions,
                self._leaf_assignment,
                self.stage_sizes[-1],
                default=self._default_leaf_error(),
                min_error_clamp=self.min_leaf_error,
                boundaries=boundaries,
            )
        )
        # Held in the narrow dtype the plan serves them in, so
        # size_bytes() counts what the index keeps.
        max_error, min_error = narrow_offsets(max_error, min_error)
        self._leaf_error_stat_arrays = (
            min_error, max_error, mean_abs, std, counts,
        )

    def _compile(self, internal: list) -> None:
        """Install the compiled plan.

        The LIF analogue (Section 3.1): "given a trained Tensorflow
        model, LIF automatically extracts all weights from the model and
        generates efficient index structures".  Every stage below the
        root is affine, so the whole lookup becomes the root, one
        gather per internal stage (``internal``: ``(model count, slopes,
        intercepts)`` per stage) and four flat leaf arrays, with no
        per-model dispatch.
        """
        if self._leaf_param_arrays is not None:
            # The segmented fit already solved every leaf into flat
            # arrays — nothing to extract.
            slopes, intercepts = self._leaf_param_arrays
        else:
            slopes, intercepts = self._stage_tables(self._stages[-1])
        # The window offsets are the per-leaf max/min signed error.
        min_error, max_error = self._leaf_error_stat_arrays[:2]
        # _root_model avoids touching _stages, which would materialize
        # the lazily deferred leaf-model objects.
        root = self._root_model
        self._root_predict = root.predict
        self._internal_stages = internal
        self._install_plan(
            self._route_batch if internal else root.predict_batch,
            self.stage_sizes[-1], slopes, intercepts, max_error, min_error,
        )
        self._stage_lists = [
            (m_l, s.tolist(), b.tolist()) for m_l, s, b in internal
        ] + [(self.stage_sizes[-1], self._slopes_list, self._intercepts_list)]

    # -- serialization ---------------------------------------------------------

    def compiled_state(self) -> dict:
        """The compiled index as plain numbers + flat arrays.

        A compiled two-stage RMI with a :class:`LinearModel` root is
        fully determined by seven values: the model-space ``origin``,
        the root's ``(slope, intercept)`` and the plan's four leaf
        tables — both the scalar fast path and the batch engine
        consume nothing else.  Returns ``{"origin", "root_slope",
        "root_intercept", "leaf_count"}`` plus the
        :meth:`CompiledPlan.export_arrays` entries; raises
        ``TypeError`` for indexes this flat form cannot represent
        (deeper hierarchies, non-linear roots).
        """
        if len(self.stage_sizes) != 2:
            raise TypeError("only two-stage indexes have a flat state")
        root = self._root_model
        if type(root) is not LinearModel:
            raise TypeError(
                f"cannot serialize root model {type(root).__name__}; "
                "only LinearModel roots are supported"
            )
        state = {
            "origin": self._space.origin,
            "root_slope": root.slope,
            "root_intercept": root.intercept,
            "leaf_count": self.stage_sizes[1],
        }
        state.update(self._plan.export_arrays())
        return state

    @classmethod
    def from_compiled_arrays(
        cls,
        keys: np.ndarray,
        *,
        root_slope: float,
        root_intercept: float,
        slopes: np.ndarray,
        intercepts: np.ndarray,
        lo_offsets: np.ndarray,
        hi_offsets: np.ndarray,
        origin: int = 0,
        search_strategy: str = "binary",
    ) -> "RecursiveModelIndex":
        """Rebuild a compiled index from :meth:`compiled_state` parts.

        The inverse of serialization, costing O(leaves) instead of a
        retrain: no fitting, no error pass, and no sortedness
        re-validation (the caller vouches for ``keys`` — the on-disk
        run format checksums them).  Lookups are bit-identical to the
        index that exported the state, because both paths read only
        the origin, the root parameters and the four arrays.
        ``origin`` defaults to 0: a state exported before the origin
        existed holds tables fitted on raw keys.  Raises ``ValueError``
        for an origin outside the key dtype and for non-finite
        offsets.  Diagnostic ``leaf_errors`` are approximated from the
        stored window offsets (zero mean/std, count 1) — bounds exact,
        moments not.
        """
        keys = np.asarray(keys)
        slopes = np.ascontiguousarray(slopes, dtype=np.float64)
        intercepts = np.ascontiguousarray(intercepts, dtype=np.float64)
        lo_offsets = np.asarray(lo_offsets)
        hi_offsets = np.asarray(hi_offsets)
        m = int(slopes.size)
        if not (
            intercepts.size == m
            and lo_offsets.size == m
            and hi_offsets.size == m
        ) or m < 1:
            raise ValueError("leaf arrays must share one nonzero length")
        self = cls.__new__(cls)
        self._bind_keys(keys)
        self._space = ModelSpace(keys.dtype, origin)
        self.stage_sizes = (1, m)
        self.search_strategy = str(search_strategy)
        self.min_leaf_error = 0
        self._model_factories = [LinearModel, LinearModel]
        root = LinearModel(root_slope, root_intercept)
        self._root_model = root
        self._root_predict = root.predict
        # The two lazy views (see __getattr__).  lo/hi offsets are the
        # per-leaf max/min signed error; the moments were not
        # persisted, so the ErrorStats rows carry exact bounds with
        # placeholder statistics.  Empty-leaf slots were folded into
        # the intercepts at export; LinearModel(0, v) predicts
        # identically to ConstantModel(v).
        self._deferred_leaf_stage = ([[root]], slopes, intercepts, [], m,
                                     keys.size)
        self._install_plan(
            root.predict_batch, m, slopes, intercepts, lo_offsets, hi_offsets
        )
        self._stage_lists = [(m, self._slopes_list, self._intercepts_list)]
        zeros = np.zeros(m, dtype=np.float64)
        self._leaf_error_stat_arrays = (
            self._plan.hi_offsets, self._plan.lo_offsets, zeros, zeros,
            np.ones(m, dtype=np.int64),
        )
        return self

    # -- inference -------------------------------------------------------------

    def _route_batch(self, encoded: np.ndarray) -> np.ndarray:
        """The plan's routing function when internal stages exist: the
        root's prediction, then per internal stage the truncated
        ``pred * M_l / n`` picks the model whose affine prediction
        routes the stage below — exactly what the plan does to pick a
        leaf."""
        n = self.keys.size
        pred = np.asarray(self._root_model.predict_batch(encoded), np.float64)
        for m_l, slopes, intercepts in self._internal_stages:
            j = (pred * m_l / n).astype(np.int64)
            clamp_into(j, 0, m_l - 1)
            pred = slopes[j] * encoded + intercepts[j]
        return pred

    def _route_scalar(self, encoded: float) -> int:
        # _route_batch + the leaf pick over the plan's list mirrors.
        n = self.keys.size
        pred = self._root_predict(encoded)
        for m_l, slopes, intercepts in self._stage_lists:
            j = int(pred * m_l / n)
            if j < 0:
                j = 0
            elif j >= m_l:
                j = m_l - 1
            pred = slopes[j] * encoded + intercepts[j]
        return j

    def predict(self, key: float) -> tuple[int, int, int]:
        """(position estimate, window lo, window hi) for ``key``.

        The true lower bound of a *stored* key always lies inside
        ``[lo, hi)``; hi is exclusive.
        """
        _leaf, est, lo, hi = self._predict_window(key)
        return est, lo, hi

    def _predict_window(self, key: float) -> tuple[int, int, int, int]:
        """(leaf, estimate, window lo, window hi) from the plan's
        scalar mirrors — the window the compiled lookup searches."""
        n = self.keys.size
        if n == 0:
            return 0, 0, 0, 0
        encoded = self._space.encode_scalar(key)
        leaf = self._route_scalar(encoded)
        raw = self._slopes_list[leaf] * encoded + self._intercepts_list[leaf]
        est = int(raw)
        if est < 0:
            est = 0
        elif est >= n:
            est = n - 1
        # int() truncation + the conservative -1/+2 slack implements
        # floor/ceil for either sign without numpy scalar overhead.
        lo = int(raw - self._lo_offsets_list[leaf]) - 1
        hi = int(raw - self._hi_offsets_list[leaf]) + 2
        lo, hi = clamp_window(lo, hi, n)
        return leaf, est, lo, hi

    def lookup(self, key: float) -> int:
        """Position of the first stored key >= ``key`` (lower bound).

        The default ``"binary"`` strategy takes the shared scalar fast
        path; any other strategy (the paper-figure probe schedules)
        searches the same window with :func:`bounded_search`.
        """
        if self.search_strategy == "binary":
            return CompiledPlanIndex.lookup(self, key)
        n = self.keys.size
        if n == 0:
            return 0
        if isinstance(key, np.generic):
            key = key.item()
        self.stats.lookups += 1
        leaf, est, lo, hi = self._predict_window(key)
        self.stats.window_total += hi - lo
        counter = Counter()
        sigma = None
        if self.search_strategy == "biased_quaternary":
            # Paper: seed the three probes at pos +- sigma of the model.
            sigma = max(int(self.leaf_errors[leaf].std) or 1, 1)
        # hi is exclusive for the window, but the lower bound itself can
        # be == hi when every key in the window is < key.
        keys_view = self._keys_view
        pos = bounded_search(
            keys_view,
            key,
            lo,
            min(hi + 1, n),
            est,
            strategy=self.search_strategy,
            sigma=sigma,
            counter=counter,
        )
        self.stats.comparisons += counter.comparisons
        if not verify_lower_bound(keys_view, key, pos):
            # Section 3.4 fix-up for absent keys under non-monotonic
            # models: widen via exponential search from the bad position.
            self.stats.fixups += 1
            counter.reset()
            pos = exponential_search(keys_view, key, pos, counter)
            self.stats.comparisons += counter.comparisons
        return pos

    # -- accounting ----------------------------------------------------------------

    def size_bytes(self) -> int:
        """Model parameters plus the two per-leaf error-bound tables
        as held (the narrowest integer dtype that fits them)."""
        total = 0
        for stage in self._stages:
            for model in stage:
                total += model.size_bytes()
        min_error, max_error = self._leaf_error_stat_arrays[:2]
        return total + min_error.nbytes + max_error.nbytes

    def model_op_count(self) -> int:
        """Multiply-adds for one full staged prediction (cost model)."""
        ops = self._stages[0][0].op_count()
        for level in range(1, len(self.stage_sizes)):
            # stage selection: one multiply + clamp, then the leaf model
            ops += 2 + self._stages[level][0].op_count()
        return ops

    @property
    def max_error_window(self) -> int:
        return max((s.window for s in self.leaf_errors), default=0)

    @property
    def mean_error_window(self) -> float:
        occupied = [s for s in self.leaf_errors if s.count]
        if not occupied:
            return 0.0
        return float(np.mean([s.window for s in occupied]))

    def leaf_model(self, j: int) -> Model:
        return self._stages[-1][j]

    def __repr__(self) -> str:
        return (
            f"RecursiveModelIndex(n={self.keys.size}, "
            f"stages={self.stage_sizes}, search={self.search_strategy!r}, "
            f"size={self.size_bytes()}B, "
            f"mean_window={self.mean_error_window:.1f})"
        )
