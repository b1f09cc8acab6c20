"""Learned index over string keys (Sections 3.5 and 3.7.2).

Strings are tokenized into fixed-length ASCII vectors (Section 3.5).
The hierarchy mirrors the integer RMI:

* **stage 1** — a vector-input model: multivariate linear regression
  ``w . x + b`` over the token vector (the paper notes linear models
  scale O(N) in the input length) or a small MLP with one/two hidden
  layers (Figure 6's "1 hidden layer" / "2 hidden layers" rows);
* **stage 2** — thousands of cheap models.  Leaves operate on a
  *monotone scalar projection* of the string (base-257 prefix value,
  :func:`repro.models.tokenization.lexicographic_scalar_batch`), which keeps
  them two-float-parameter linear models exactly like the integer RMI;
* per-leaf min/max error bounds and the same bounded last-mile search,
  over string comparisons this time (which is what makes search
  expensive and quaternary search worthwhile — Section 3.7.2);
* optional **hybrid fallback**: leaves worse than a threshold are
  replaced by :class:`repro.btree.GenericBTreeIndex` over their range
  (Figure 6's hybrid rows).

Reads are the scalar ``lookup`` / ``contains`` / ``upper_bound`` /
``range_query`` that Figure 6 measures, with lower-bound semantics over
the lexicographically sorted key list for present and absent query
strings alike.  The last mile searches with one of
:data:`STRING_SEARCH_STRATEGIES`; any other name is a ``ValueError``
at construction.
"""

from __future__ import annotations

import bisect

import numpy as np

from ..btree.btree import GenericBTreeIndex
from ..models.cdf import (
    ErrorStats,
    error_stats_list_from_arrays,
    segmented_error_arrays,
)
from ..models.linear import segmented_linear_fit
from ..models.nn import MLP
from ..models.tokenization import lexicographic_scalar_batch, tokenize_batch
from .engine import clamp_window
from .rmi import RMIStats
from .search import Counter, biased_binary_search, verify_lower_bound

__all__ = ["StringRMI"]

_FLOAT_BYTES = 8

#: The last-mile searches over string keys (Section 3.7.2).
STRING_SEARCH_STRATEGIES = ("binary", "biased_binary", "biased_quaternary")


class _StringRootLinear:
    """Multivariate linear stage-1 model over token vectors."""

    def __init__(self, max_length: int):
        self.max_length = int(max_length)
        self.weights = np.zeros(self.max_length)
        self.bias = 0.0

    def fit(self, tokens: np.ndarray, positions: np.ndarray) -> None:
        design = np.column_stack([tokens, np.ones(tokens.shape[0])])
        solution, *_ = np.linalg.lstsq(design, positions, rcond=None)
        self.weights = solution[:-1]
        self.bias = float(solution[-1])
        self._weights_list = self.weights.tolist()

    def predict_one(self, vec: np.ndarray) -> float:
        return float(vec @ self.weights) + self.bias

    def predict_batch(self, tokens: np.ndarray) -> np.ndarray:
        return tokens @ self.weights + self.bias

    @property
    def param_count(self) -> int:
        return self.max_length + 1

    def op_count(self) -> int:
        return 2 * self.max_length + 1


class _StringRootMLP:
    """MLP stage-1 model over token vectors (Figure 6 hidden-layer rows)."""

    def __init__(
        self,
        max_length: int,
        hidden: tuple[int, ...],
        epochs: int = 40,
        seed: int = 0,
    ):
        self.max_length = int(max_length)
        self.net = MLP(self.max_length, hidden=hidden, seed=seed)
        self.epochs = int(epochs)

    def fit(self, tokens: np.ndarray, positions: np.ndarray) -> None:
        self.net.fit(
            tokens,
            positions,
            epochs=self.epochs,
            batch_size=min(512, max(len(positions), 1)),
            learning_rate=3e-3,
        )

    def predict_one(self, vec: np.ndarray) -> float:
        """Streamlined single-sample forward (no batch plumbing)."""
        net = self.net
        z = (vec - net.x_mean) / net.x_scale
        last = len(net.weights) - 1
        for i, (w, b) in enumerate(zip(net.weights, net.biases)):
            z = z @ w + b
            if i < last:
                np.maximum(z, 0.0, out=z)
        return float(z[0]) * net.y_scale + net.y_mean

    def predict_batch(self, tokens: np.ndarray) -> np.ndarray:
        return self.net.forward(tokens).ravel()

    @property
    def param_count(self) -> int:
        return self.net.param_count

    def op_count(self) -> int:
        return self.net.op_count()


class StringRMI:
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
        btree_page_size: int = 128,
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
        self.keys = list(keys)
        self.num_leaves = int(num_leaves)
        self.max_length = int(max_length)
        self.search_strategy = str(search_strategy)
        self.hybrid_threshold = hybrid_threshold
        self.btree_page_size = int(btree_page_size)
        self.stats = RMIStats()
        self._build(hidden, epochs, seed)

    # -- training ---------------------------------------------------------------

    def _build(self, hidden: tuple[int, ...], epochs: int, seed: int) -> None:
        n = len(self.keys)
        tokens = tokenize_batch(self.keys, self.max_length)
        positions = np.arange(n, dtype=np.float64)
        if hidden:
            root = _StringRootMLP(self.max_length, hidden, epochs, seed)
        else:
            root = _StringRootLinear(self.max_length)
        if n:
            root.fit(tokens, positions)
            root_pred = root.predict_batch(tokens)
        else:
            root_pred = np.zeros(0)
        self.root = root

        m = self.num_leaves
        if n:
            assignment = np.clip(
                np.floor(root_pred * m / max(n, 1)), 0, m - 1
            ).astype(np.int64)
        else:
            assignment = np.zeros(0, dtype=np.int64)

        scalars = lexicographic_scalar_batch(self.keys, self.max_length)
        default = ErrorStats(-self.btree_page_size, self.btree_page_size, 0, 0, 0)
        # Leaves are always plain linear models over the lexicographic
        # scalar, so the whole stage fits in one segmented
        # least-squares pass — same math as the integer RMI's
        # vectorized build (see repro.core.rmi).
        slopes, intercepts, counts = segmented_linear_fit(
            scalars, positions, assignment, m
        )
        # Empty leaves predict their slot's midpoint, like the scalar
        # loop's ``(j + 0.5) * n / m`` fallback.
        empty = counts == 0
        if np.any(empty):
            slots = np.nonzero(empty)[0]
            intercepts[slots] = (slots + 0.5) * n / m
        if n:
            predictions = slopes[assignment] * scalars + intercepts[assignment]
        else:
            predictions = np.zeros(0)
        self._leaf_slopes = slopes.tolist()
        self._leaf_intercepts = intercepts.tolist()
        self.leaf_errors = error_stats_list_from_arrays(
            *segmented_error_arrays(
                predictions, positions, assignment, m, default=default
            )
        )

        # Hybrid replacement (Algorithm 1 lines 11-14) on string leaves.
        self.leaf_btrees: dict[int, tuple[int, GenericBTreeIndex]] = {}
        if self.hybrid_threshold is not None:
            order = np.argsort(assignment, kind="stable")
            boundaries = np.searchsorted(
                assignment[order], np.arange(m + 1), "left"
            )
            for j in range(m):
                stats = self.leaf_errors[j]
                if stats.count == 0 or stats.max_absolute <= self.hybrid_threshold:
                    continue
                members = order[boundaries[j]:boundaries[j + 1]]
                base = int(members.min())
                end = int(members.max()) + 1
                tree = GenericBTreeIndex(
                    self.keys[base:end], page_size=self.btree_page_size
                )
                self.leaf_btrees[j] = (base, tree)

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
        n = len(self.keys)
        vec, scalar = self._featurize(key)
        root_pred = self.root.predict_one(vec)
        m = self.num_leaves
        j = int(root_pred * m / n) if n else 0
        if j < 0:
            j = 0
        elif j >= m:
            j = m - 1
        raw = self._leaf_slopes[j] * scalar + self._leaf_intercepts[j]
        return j, raw

    def _window(self, leaf: int, raw: float) -> tuple[int, int, int]:
        """(estimate, window lo, window hi) of a leaf's prediction: the
        clamped ``[raw - max_error - 1, raw - min_error + 2)``, as the
        integer RMI's."""
        n = len(self.keys)
        err = self.leaf_errors[leaf]
        lo, hi = clamp_window(
            int(raw - err.max_error) - 1, int(raw - err.min_error) + 2, n
        )
        return min(max(int(raw), 0), n - 1), lo, hi

    def predict(self, key: str) -> tuple[int, int, int]:
        """(estimate, window lo, window hi) like the integer RMI."""
        if not self.keys:
            return 0, 0, 0
        return self._window(*self._route(key))

    def lookup(self, key: str) -> int:
        """Lower-bound position of ``key`` among the sorted strings."""
        n = len(self.keys)
        if n == 0:
            return 0
        self.stats.lookups += 1
        leaf, raw = self._route(key)
        fallback = self.leaf_btrees.get(leaf)
        if fallback is not None:
            base, tree = fallback
            pos = base + tree.lookup(key)
        else:
            est, lo, hi = self._window(leaf, raw)
            self.stats.window_total += hi - lo
            pos = self._bounded_string_search(key, leaf, lo, hi, est)
        # Absent keys under a non-monotonic root can escape the window.
        if not verify_lower_bound(self.keys, key, pos):
            self.stats.fixups += 1
            pos = bisect.bisect_left(self.keys, key)
        return pos

    def _bounded_string_search(
        self, key: str, leaf: int, lo: int, hi: int, guess: int
    ) -> int:
        keys = self.keys
        stats = self.stats
        strategy = self.search_strategy
        if strategy == "biased_binary":
            counter = Counter()
            pos = biased_binary_search(keys, key, lo, hi, guess, counter)
            stats.comparisons += counter.comparisons
            return pos
        if strategy == "biased_quaternary":
            # One round seeded at the prediction +- the leaf's error
            # std, then binary search (Figure 6 asserts on its cost).
            sigma = max(int(self.leaf_errors[leaf].std) or 1, 1)
            center = min(max(guess, lo), hi - 1)
            p1 = min(max(center - sigma, lo), hi - 1)
            p2 = center
            p3 = min(max(center + sigma, lo), hi - 1)
            stats.comparisons += 3
            if keys[p1] >= key:
                hi = p1 + 1
            elif keys[p2] >= key:
                lo, hi = p1 + 1, p2 + 1
            elif keys[p3] >= key:
                lo, hi = p2 + 1, p3 + 1
            else:
                lo = p3 + 1
        left, right = lo, hi
        while left < right:
            mid = (left + right) >> 1
            stats.comparisons += 1
            if keys[mid] < key:
                left = mid + 1
            else:
                right = mid
        return left

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
        total = self.root.param_count * _FLOAT_BYTES
        total += self.num_leaves * 2 * _FLOAT_BYTES
        total += len(self.leaf_errors) * 8  # packed min/max int32 errors
        for base, tree in self.leaf_btrees.values():
            total += tree.size_bytes()
        return total

    def model_op_count(self) -> int:
        # tokenization + root + route + leaf linear model
        return self.max_length + self.root.op_count() + 2 + 2

    @property
    def mean_error_window(self) -> float:
        occupied = [s for s in self.leaf_errors if s.count]
        if not occupied:
            return 0.0
        return float(np.mean([s.window for s in occupied]))

    @property
    def replaced_leaf_count(self) -> int:
        return len(self.leaf_btrees)

    def __repr__(self) -> str:
        return (
            f"StringRMI(n={len(self.keys)}, leaves={self.num_leaves}, "
            f"max_length={self.max_length}, "
            f"hybrid={self.hybrid_threshold}, size={self.size_bytes()}B)"
        )
