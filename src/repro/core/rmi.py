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
* **scalar fast path** — every stage below the root is linear; a
  lookup is a handful of Python float operations plus a bounded
  search, mirroring LIF's code-generated inference.

The public API is ``lookup`` / ``upper_bound`` / ``range_query`` /
``contains`` with lower-bound semantics identical to every baseline in
:mod:`repro.btree`, plus ``predict`` exposing (estimate, window) and
the batch variants.  All of it is inherited from
:class:`repro.core.plan_index.CompiledPlanIndex`: this module
contributes what is specific to the RMI — stage-wise training
(``_build``), root → leaf routing (``_route_scalar``), the choice of
probe schedule a non-``"binary"`` ``search_strategy`` runs inside the
shared lookup's window (made once, at construction), and the
table-level accounting and serialization.

Compilation
-----------
Every RMI compiles to one :class:`~repro.core.engine.CompiledPlan`
whose routing function is the root's ``predict_batch`` followed by one
truncated affine gather per internal stage
(``pred = s_l[clip(trunc(pred * M_l / n))] * x + b_l[...]``), which is
why only the root may be non-linear.

Construction
------------
An RMI is its root model plus flat tables, and it trains one way.
The root (any :class:`~repro.models.base.Model`, linear by default)
fits every key once; each stage below it is linear regression solved
for all of its models at once from per-model sufficient statistics —
within model ``j`` with members ``(x_i, y_i)``, center on the means
and accumulate ``Σdx²`` and ``Σdx·dy``, giving

    ``slope_j = Σdx·dy / Σdx²``,  ``intercept_j = ȳ_j - slope_j·x̄_j``

(:func:`repro.models.linear.segmented_linear_fit`).  A model no key
reaches predicts the middle of its slot, ``(j + 0.5)·n / M``.  Leaf
error bounds come from one vectorized pass over the signed errors
(:func:`repro.models.cdf.segmented_error_arrays`), and every number
the index reports — size, windows — is read off those tables.  The
per-leaf reference fit (``LinearModel().fit`` on each leaf's members)
lives in ``tests/test_build_equivalence.py`` as the oracle the tables
are pinned against.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..models.base import Model
from ..models.cdf import (
    ErrorStats,
    positions_for_keys,
    segmented_error_arrays,
)
from ..models.linear import (
    LinearModel,
    fit_linear_cdf_root,
    segmented_linear_fit,
)
from ..util import clamp_into
from .engine import ModelSpace
from .plan_index import CompiledPlanIndex, RMIStats
from .search import SEARCH_STRATEGIES

__all__ = ["RecursiveModelIndex", "RMIStats", "DEFAULT_LEAF_ERROR"]

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
        two-stage RMI.  The first entry must be 1 (a single root), and
        at least one stage follows it.
    root:
        Zero-argument :class:`repro.models.base.Model` factory for the
        root.  Defaults to linear regression — a solid root for smooth
        data; pass e.g. a ``NeuralRegressionModel`` factory to
        reproduce the grid-searched configurations.  Every stage below
        the root is linear regression (a k-knot spline leaf is k linear
        leaves), which is what lets the compiled plan route through it.
    search_strategy:
        One of :data:`repro.core.search.SEARCH_STRATEGIES`; any other
        name is a ``ValueError``.
    """

    #: A probe schedule searches one slot past the window.
    _probe_slack = 1

    def __init__(
        self,
        keys: np.ndarray,
        stage_sizes: Sequence[int] = (1, 100),
        root: Callable[[], Model] = LinearModel,
        search_strategy: str = "binary",
    ):
        stage_sizes = tuple(int(m) for m in stage_sizes)
        if len(stage_sizes) < 2 or stage_sizes[0] != 1:
            raise ValueError(
                "stage_sizes must be a single root model and at least "
                "one stage below it"
            )
        if any(m < 1 for m in stage_sizes):
            raise ValueError("every stage needs at least one model")
        if search_strategy not in SEARCH_STRATEGIES:
            raise ValueError(
                f"unknown search_strategy {search_strategy!r}; supported: "
                f"{', '.join(SEARCH_STRATEGIES)}"
            )
        self.stage_sizes = stage_sizes
        self.search_strategy = str(search_strategy)
        self._root_factory = root
        super().__init__(keys)
        if not self.keys.size:
            # The base trains only on data; an empty RMI still carries
            # its (untrained) tables so routing, ``predict`` and the
            # size accounting stay total.
            self._build()

    # -- training (Algorithm 1, lines 1-10) ----------------------------------

    def _build(self) -> None:
        n = self.keys.size
        keys_f = self._space.encode(self.keys)
        positions = positions_for_keys(n)
        # A plain linear root takes the temp-free CDF fit.
        root = self._root_factory()
        if type(root) is LinearModel:
            root = fit_linear_cdf_root(keys_f, positions)
        else:
            root = root.fit(keys_f, positions)
        predictions = np.asarray(root.predict_batch(keys_f), dtype=np.float64)
        # Which model of the current stage each stored key routes to.
        assignment = np.zeros(n, dtype=np.int64)
        # (model count, slopes, intercepts) of every internal stage, the
        # tables the compiled routing function gathers from.
        internal: list[tuple[int, np.ndarray, np.ndarray]] = []
        stage_counts: list[np.ndarray] = []
        last = len(self.stage_sizes) - 2
        for level, m_l in enumerate(self.stage_sizes[1:]):
            # Route every key by the stage above:
            # j = floor(M_l * f_prev(x) / N), clamped, in place.
            if n:
                predictions *= m_l
                predictions /= n
                np.floor(predictions, out=predictions)
                np.clip(predictions, 0, m_l - 1, out=predictions)
                assignment = predictions.astype(np.int64)
            # Compute the contiguity layout once; the leaf stage's error
            # pass reuses it.
            if n and bool(np.all(assignment[1:] >= assignment[:-1])):
                boundaries = np.searchsorted(
                    assignment, np.arange(m_l + 1), side="left"
                )
            else:
                boundaries = None
            slopes, intercepts, counts, predictions = segmented_linear_fit(
                keys_f, positions, assignment, m_l,
                return_predictions=True,
                boundaries=boundaries,
            )
            # A model no key reaches predicts the middle of its slot, so
            # routing stays total for absent keys.
            empty = np.nonzero(counts == 0)[0]
            intercepts[empty] = (empty + 0.5) * n / m_l
            stage_counts.append(counts)
            if level < last:
                # An internal stage routes the stage below by exactly
                # the affine form the compiled plan evaluates, so every
                # stored key trains the leaf a lookup for it reaches.
                internal.append((m_l, slopes, intercepts))
                predictions = (
                    slopes[assignment] * keys_f + intercepts[assignment]
                )

        # Empty leaves get about a page of slack.
        slack = min(DEFAULT_LEAF_ERROR, max(n, 1))
        min_error, max_error, std, _ = segmented_error_arrays(
            predictions, positions, assignment, self.stage_sizes[-1],
            default=ErrorStats(-slack, slack, 0.0, 0.0, 0),
            boundaries=boundaries,
        )
        self._install(
            root, internal, stage_counts, std,
            slopes, intercepts, max_error, min_error,
        )
        self._leaves_trained(assignment)

    def _leaves_trained(self, assignment: np.ndarray) -> None:
        """Called once the tables are installed, with the leaf each
        stored key trained; the index keeps no per-key array besides
        its keys, so a subclass that needs it (the hybrid's B-Tree
        replacement) reads it here."""

    def _install(
        self,
        root: Model,
        internal: list,
        stage_counts: list[np.ndarray],
        leaf_std: np.ndarray,
        slopes: np.ndarray,
        intercepts: np.ndarray,
        lo_offsets: np.ndarray,
        hi_offsets: np.ndarray,
    ) -> None:
        """Adopt the trained tables: the root, the internal stages'
        ``(model count, slopes, intercepts)``, each stage's per-model
        key counts, the leaves' error std and the
        four leaf tables the plan serves.

        The LIF analogue (Section 3.1): "given a trained Tensorflow
        model, LIF automatically extracts all weights from the model and
        generates efficient index structures" — the whole lookup is the
        root, one gather per internal stage and four flat leaf arrays,
        with no per-model dispatch.
        """
        self._root_model = root
        self._root_predict = root.predict
        self._internal_stages = internal
        self._stage_counts = stage_counts
        self._install_plan(
            self._route_batch if internal else root.predict_batch,
            self.stage_sizes[-1], slopes, intercepts, lo_offsets, hi_offsets,
        )
        # Per stage below the root: (models, slopes, intercepts); the
        # leaf stage's pick ends the scalar route.
        self._stage_lists = [
            (m_l, s.tolist(), b.tolist()) for m_l, s, b in internal
        ] + [(self.stage_sizes[-1], None, None)]
        # The probe schedule, chosen once: "binary" is the base's inline
        # search; biased quaternary seeds its probe round at +- each
        # leaf's error std.
        self._search_window = (
            None if self.search_strategy == "binary" else self._probe_window
        )
        self._sigmas = None
        if self.search_strategy == "biased_quaternary":
            self._sigmas = np.maximum(
                leaf_std.astype(np.int64), 1
            ).tolist()

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
        offsets.  Nothing is fitted: the tables are installed, and the
        window is binary-searched.
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
        self.search_strategy = "binary"
        # Empty-leaf slots were folded into the intercepts at export.
        self._install(
            LinearModel(root_slope, root_intercept), [],
            [np.ones(m, dtype=np.int64)], np.zeros(m),
            slopes, intercepts, lo_offsets, hi_offsets,
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
            if slopes is None:
                return j
            pred = slopes[j] * encoded + intercepts[j]

    # -- accounting ----------------------------------------------------------------

    def size_bytes(self) -> int:
        """The root's parameters, 16 B per trained model (slope and
        intercept) and 8 B per empty one (its constant) at every stage
        below the root, plus the two per-leaf error-bound tables as held
        (the narrowest integer dtype that fits them)."""
        plan = self._plan
        slots = sum(c.size + np.count_nonzero(c) for c in self._stage_counts)
        return (
            self._root_model.size_bytes() + 8 * int(slots)
            + plan.lo_offsets.nbytes + plan.hi_offsets.nbytes
        )

    def model_op_count(self) -> int:
        """Multiply-adds for one full staged prediction (cost model):
        the root, then per stage below it one multiply + clamp to pick
        the model and the affine model itself."""
        return self._root_model.op_count() + 4 * (len(self.stage_sizes) - 1)

    @property
    def max_error_window(self) -> int:
        # Over every leaf, empty ones (a page of slack) included.
        return int(self._error_windows().max())

    @property
    def mean_error_window(self) -> float:
        occupied = self._error_windows()[self._stage_counts[-1] > 0]
        return float(np.mean(occupied)) if occupied.size else 0.0

    def __repr__(self) -> str:
        return (
            f"RecursiveModelIndex(n={self.keys.size}, "
            f"stages={self.stage_sizes}, search={self.search_strategy!r}, "
            f"size={self.size_bytes()}B, "
            f"mean_window={self.mean_error_window:.1f})"
        )
