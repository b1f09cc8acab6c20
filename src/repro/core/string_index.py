"""Learned index over string keys (Sections 3.5 and 3.7.2).

Strings are tokenized into fixed-length ASCII vectors (Section 3.5),
and the index is the integer RMI over them:

* **stage 1** — a vector-input :class:`~repro.models.MLP`: with no
  hidden layer, multivariate linear regression ``w . x + b`` over the
  token vector, fitted in closed form (the paper notes linear models
  scale O(N) in the input length); with one or two, Figure 6's
  "1 hidden layer" / "2 hidden layers" rows;
* **stage 2** — thousands of cheap models.  Leaves operate on a
  *monotone scalar projection* of the string (base-257 prefix value,
  :func:`repro.models.tokenization.lexicographic_scalar_batch`), which keeps
  them two-float-parameter linear models exactly like the integer RMI;
* per-leaf min/max error bounds, searched by the one scalar Section 3.4
  lookup every learned index shares
  (:class:`~repro.core.plan_index.ScalarLookup`) — over string
  comparisons this time, which is what makes search expensive and
  quaternary search worthwhile (Section 3.7.2);
* optional **hybrid fallback**: leaves worse than a threshold are
  replaced by :class:`repro.btree.BTreeIndex` over their range by the
  routine the numeric hybrid uses (:class:`~repro.core.hybrid.BTreeLeaves`;
  Figure 6's hybrid rows).

This module holds only what is specific to strings: tokenizing, the
root and the leaves.  Reads are the scalar ``lookup`` / ``contains`` /
``upper_bound`` / ``range_query`` that Figure 6 measures, lower bounds
over the sorted key list for present and absent strings alike; the
last mile runs one of :data:`STRING_SEARCH_STRATEGIES` (any other name
is a ``ValueError``).
"""

from __future__ import annotations

import bisect

import numpy as np

from ..models.cdf import ErrorStats, segmented_error_arrays
from ..models.linear import segmented_linear_fit
from ..models.nn import MLP
from ..models.tokenization import lexicographic_scalar_batch, tokenize_batch
from .engine import clamp_window
from .hybrid import LEAF_BTREE_PAGE_SIZE, BTreeLeaves
from .plan_index import RMIStats, ScalarLookup

__all__ = ["StringRMI"]

_FLOAT_BYTES = 8

#: The last-mile searches over string keys (Section 3.7.2).
STRING_SEARCH_STRATEGIES = ("binary", "biased_binary", "biased_quaternary")


class StringRMI(BTreeLeaves, ScalarLookup):
    """Two-stage learned index over sorted string keys."""

    def __init__(
        self,
        keys: list[str],
        *,
        num_leaves: int = 1000,
        max_length: int = 24,
        hidden: tuple[int, ...] = (),
        search_strategy: str = "biased_binary",
        hybrid_threshold: int | None = None,
        epochs: int = 40,
        seed: int = 0,
    ):
        if any(keys[i] > keys[i + 1] for i in range(len(keys) - 1)):
            raise ValueError("keys must be sorted lexicographically")
        if num_leaves < 1:
            raise ValueError("num_leaves must be >= 1")
        if search_strategy not in STRING_SEARCH_STRATEGIES:
            raise ValueError(
                f"unknown search_strategy {search_strategy!r}; StringRMI "
                f"supports {', '.join(STRING_SEARCH_STRATEGIES)}"
            )
        self.keys = self._keys_view = list(keys)
        self.num_leaves = int(num_leaves)
        self.max_length = int(max_length)
        self.search_strategy = str(search_strategy)
        self.hybrid_threshold = hybrid_threshold
        self.stats = RMIStats()
        self._build(hidden, epochs, seed)

    # -- training ---------------------------------------------------------------

    def _build(self, hidden: tuple[int, ...], epochs: int, seed: int) -> None:
        n = len(self.keys)
        tokens = tokenize_batch(self.keys, self.max_length)
        positions = np.arange(n, dtype=np.float64)
        root = self.root = MLP(self.max_length, hidden, seed=seed)
        m = self.num_leaves
        assignment = np.zeros(0, dtype=np.int64)
        if n:
            if hidden:
                root.fit(tokens, positions, epochs=epochs,
                         batch_size=min(512, n), learning_rate=3e-3)
            else:
                root.fit_least_squares(tokens, positions)
            root_pred = root.forward(tokens).ravel()
            assignment = np.clip(
                np.floor(root_pred * m / n), 0, m - 1
            ).astype(np.int64)

        scalars = lexicographic_scalar_batch(self.keys, self.max_length)
        # Empty leaves get a B-Tree page of slack.
        slack = LEAF_BTREE_PAGE_SIZE
        default = ErrorStats(-slack, slack, 0, 0, 0)
        # Leaves are always plain linear models over the lexicographic
        # scalar, so the whole stage fits in one segmented
        # least-squares pass — same math as the integer RMI's
        # vectorized build (see repro.core.rmi).
        slopes, intercepts, counts = segmented_linear_fit(
            scalars, positions, assignment, m
        )
        # Empty leaves predict their slot's midpoint, like the integer
        # RMI's ``(j + 0.5) * n / m``.
        empty = np.nonzero(counts == 0)[0]
        intercepts[empty] = (empty + 0.5) * n / m
        predictions = slopes[assignment] * scalars + intercepts[assignment]
        self._leaf_slopes = slopes.tolist()
        self._leaf_intercepts = intercepts.tolist()
        min_error, max_error, std, counts = segmented_error_arrays(
            predictions, positions, assignment, m, default=default
        )
        self._max_errors = max_error.tolist()
        self._min_errors = min_error.tolist()
        self._windows = (max_error - min_error)[counts > 0]
        # The probe schedule, chosen once, as the integer RMI's.
        if self.search_strategy != "binary":
            self._search_window = self._probe_window
        self._sigmas = None
        if self.search_strategy == "biased_quaternary":
            self._sigmas = np.maximum(std.astype(np.int64), 1).tolist()
        self.leaf_btrees = {}
        if self.hybrid_threshold is not None:
            self._replace_bad_leaves(
                self.hybrid_threshold, assignment,
                counts, max_error, min_error,
            )

    # -- inference ----------------------------------------------------------------

    def _featurize(self, key: str) -> tuple[np.ndarray, float]:
        """Token vector and lexicographic scalar in one pass."""
        max_length = self.max_length
        vec = np.zeros(max_length)
        scalar = 0.0
        scale = 1.0
        for i in range(max_length):
            scale /= 257.0
            if i < len(key):
                code = ord(key[i])
                if code > 255:
                    code = 255
                vec[i] = code
                scalar += (code + 1) * scale
        return vec, scalar

    def _route(self, key: str) -> tuple[int, float]:
        """(leaf index, leaf position prediction) for a query string."""
        vec, scalar = self._featurize(key)
        m = self.num_leaves
        j = int(self.root.forward_one(vec) * m / len(self.keys))
        if j < 0:
            j = 0
        elif j >= m:
            j = m - 1
        return j, self._leaf_slopes[j] * scalar + self._leaf_intercepts[j]

    def _window(self, key: str, n: int) -> tuple[int, float, int, int]:
        """``(leaf, raw prediction, lo, hi)``: the clamped
        ``[raw - max_error - 1, raw - min_error + 2)``, as the integer
        RMI's."""
        leaf, raw = self._route(key)
        lo, hi = clamp_window(
            int(raw - self._max_errors[leaf]) - 1,
            int(raw - self._min_errors[leaf]) + 2,
            n,
        )
        return leaf, raw, lo, hi

    def contains(self, key: str) -> bool:
        pos = self.lookup(key)
        return pos < len(self.keys) and self.keys[pos] == key

    def upper_bound(self, key: str) -> int:
        """Position one past the last stored string <= ``key``."""
        return bisect.bisect_right(self.keys, key, self.lookup(key))

    def range_query(self, low: str, high: str) -> list[str]:
        """All stored strings in ``[low, high]``."""
        if high < low:
            return []
        return self.keys[self.lookup(low):self.upper_bound(high)]

    # -- accounting ------------------------------------------------------------------

    def size_bytes(self) -> int:
        # root, two floats per leaf model, packed min/max int32 errors
        total = (self.root.param_count + 2 * self.num_leaves) * _FLOAT_BYTES
        return total + self.num_leaves * 8 + self._leaf_btree_bytes()

    def model_op_count(self) -> int:
        # tokenization + root + route + leaf linear model
        return self.max_length + self.root.op_count() + 2 + 2

    @property
    def mean_error_window(self) -> float:
        windows = self._windows
        return float(np.mean(windows)) if windows.size else 0.0

    def __repr__(self) -> str:
        return (
            f"StringRMI(n={len(self.keys)}, leaves={self.num_leaves}, "
            f"max_length={self.max_length}, "
            f"hybrid={self.hybrid_threshold}, size={self.size_bytes()}B)"
        )
