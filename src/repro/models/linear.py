"""Closed-form linear regression — the RMI's workhorse leaf model.

Section 3.6 of the paper: "a closed form solution exists for linear
multi-variate models (e.g., also 0-layer NN) and they can be trained in
a single pass over the sorted data" and Section 3.7.1: "For the second
stage, simple, linear models, had the best performance ... linear
models can be learned optimally."

``LinearModel`` is ordinary least squares ``y = slope * x + intercept``
fit in one pass.  The scalar ``predict`` path is two Python float
operations — the analogue of LIF's ~30ns code-generated models — which
is what makes measured lookup-time ratios against tree traversal
meaningful in this reproduction.
"""

from __future__ import annotations

import numpy as np

from .base import Model
from .cdf import segment_reducer

__all__ = [
    "LinearModel",
    "fit_linear_cdf_root",
    "segmented_linear_fit",
]


def fit_linear_cdf_root(
    keys: np.ndarray, positions: np.ndarray
) -> "LinearModel":
    """Least-squares :class:`LinearModel` against CDF positions 0..n-1.

    Same closed form as ``LinearModel().fit(keys, positions)`` for the
    root-model case where ``positions`` is ``arange(n)``, with fewer
    array temporaries: the position mean is ``(n - 1) / 2`` in closed
    form (exact — the arange sum and its division are both
    representable) and the covariance folds the mean out of the dot
    product, ``Σdx·y − ȳ·Σdx``.  Results differ from the generic fit
    only by float rounding; worth ~2ms of every million-key build once
    the rest of construction is vectorized.
    """
    n = keys.size
    if n < 2:
        return LinearModel().fit(keys, positions)
    mean_x = float(keys.mean())
    mean_y = (n - 1) / 2.0
    dx = keys - mean_x
    var_x = float(np.dot(dx, dx))
    if var_x == 0.0:
        return LinearModel(0.0, mean_y)
    cov_xy = float(np.dot(dx, positions)) - mean_y * float(dx.sum())
    slope = cov_xy / var_x
    return LinearModel(slope, mean_y - slope * mean_x)


def segmented_linear_fit(
    keys: np.ndarray,
    positions: np.ndarray,
    assignment: np.ndarray,
    num_segments: int,
    *,
    return_predictions: bool = False,
    boundaries: np.ndarray | None = None,
):
    """Fit every segment's least-squares line in one vectorized pass.

    The array-native form of calling :meth:`LinearModel.fit` once per
    segment: ``assignment[i]`` names the segment key ``i`` belongs to,
    and per-segment sufficient statistics (``n``, ``Σx``, ``Σy``, and
    the *centered* ``Σdx²`` / ``Σdx·dy`` — centering matches the scalar
    fit's conditioning, so slopes agree to float tolerance instead of
    drifting on large key magnitudes) accumulate per segment.  When
    ``assignment`` is non-decreasing — always true under a monotonic
    routing model — segments are contiguous slices, so the boundaries
    come from one ``searchsorted`` and every sum is a single
    ``np.add.reduceat``; otherwise sums fall back to weighted
    ``np.bincount``.  Every slope/intercept then solves in one
    closed-form array expression.

    Degenerate segments reproduce the scalar fit's branches exactly:
    one member or zero key variance → slope 0, intercept = mean
    position; zero members → slope 0, intercept 0 (callers install
    their own empty-segment model).

    Returns ``(slopes, intercepts, counts)``, each of length
    ``num_segments``; with ``return_predictions=True`` a fourth element
    carries each key's fitted position as ``slope·dx + ȳ`` — the
    centered form of ``slope·x + intercept``, reusing the residual
    basis already in hand (equal up to float rounding).

    ``boundaries`` (length ``num_segments + 1``) asserts that
    ``assignment`` is non-decreasing with these contiguous segment
    boundaries, skipping the monotonicity check and ``searchsorted`` —
    callers that run both this fit and
    :func:`repro.models.cdf.segmented_error_arrays` over one
    assignment compute the layout once.
    """
    keys = np.asarray(keys, dtype=np.float64)
    positions = np.asarray(positions, dtype=np.float64)
    m = int(num_segments)
    n = keys.size
    slopes = np.zeros(m, dtype=np.float64)
    intercepts = np.zeros(m, dtype=np.float64)
    if n == 0:
        counts = np.zeros(m, dtype=np.int64)
        if return_predictions:
            return slopes, intercepts, counts, np.zeros(0, dtype=np.float64)
        return slopes, intercepts, counts
    if boundaries is None and bool(
        np.all(assignment[1:] >= assignment[:-1])
    ):
        boundaries = np.searchsorted(
            assignment, np.arange(m + 1), side="left"
        )
    if boundaries is not None:
        # Contiguous segments (always true under a monotonic root):
        # every per-segment sum is a single ``np.add.reduceat``
        # (empty-segment handling lives in segment_reducer) — several
        # times cheaper than the hashing ``bincount`` path below.
        counts, _empty, reduce = segment_reducer(boundaries, n)

        def seg_sum(values: np.ndarray) -> np.ndarray:
            return reduce(np.add, values)

        def expand(per_segment: np.ndarray) -> np.ndarray:
            return np.repeat(per_segment, counts)

    else:
        counts = np.bincount(assignment, minlength=m).astype(np.int64)

        def seg_sum(values: np.ndarray) -> np.ndarray:
            return np.bincount(assignment, weights=values, minlength=m)

        def expand(per_segment: np.ndarray) -> np.ndarray:
            return per_segment[assignment]

    safe = np.maximum(counts, 1).astype(np.float64)
    mean_x = seg_sum(keys) / safe
    mean_y = seg_sum(positions) / safe
    mean_y_keys = expand(mean_y)
    dx = keys - expand(mean_x)
    dy = positions - mean_y_keys
    var_x = seg_sum(dx * dx)
    cov_xy = seg_sum(dx * dy)
    identifiable = var_x > 0.0
    np.divide(cov_xy, var_x, out=slopes, where=identifiable)
    occupied = counts > 0
    intercepts[occupied] = (mean_y - slopes * mean_x)[occupied]
    if not return_predictions:
        return slopes, intercepts, counts
    predictions = expand(slopes)
    predictions *= dx
    predictions += mean_y_keys
    return slopes, intercepts, counts, predictions


class LinearModel(Model):
    """Least-squares line ``position = slope * key + intercept``."""

    __slots__ = ("slope", "intercept")

    def __init__(self, slope: float = 0.0, intercept: float = 0.0):
        self.slope = float(slope)
        self.intercept = float(intercept)

    def fit(self, keys: np.ndarray, positions: np.ndarray) -> "LinearModel":
        keys = np.asarray(keys, dtype=np.float64)
        positions = np.asarray(positions, dtype=np.float64)
        n = keys.size
        if n == 0:
            self.slope, self.intercept = 0.0, 0.0
            return self
        if n == 1:
            self.slope, self.intercept = 0.0, float(positions[0])
            return self
        mean_x = float(keys.mean())
        mean_y = float(positions.mean())
        dx = keys - mean_x
        var_x = float(np.dot(dx, dx))
        if var_x == 0.0:
            # All keys identical: only the mean position is identifiable.
            self.slope, self.intercept = 0.0, mean_y
            return self
        cov_xy = float(np.dot(dx, positions - mean_y))
        self.slope = cov_xy / var_x
        self.intercept = mean_y - self.slope * mean_x
        return self

    def fit_endpoints(
        self, keys: np.ndarray, positions: np.ndarray
    ) -> "LinearModel":
        """Interpolate the first and last point instead of least squares.

        Useful for strictly bounding segments (spline-style fitting);
        guarantees zero error at both endpoints.
        """
        keys = np.asarray(keys, dtype=np.float64)
        positions = np.asarray(positions, dtype=np.float64)
        if keys.size < 2 or keys[-1] == keys[0]:
            return self.fit(keys, positions)
        self.slope = float(
            (positions[-1] - positions[0]) / (keys[-1] - keys[0])
        )
        self.intercept = float(positions[0] - self.slope * keys[0])
        return self

    def predict(self, key: float) -> float:
        return self.slope * key + self.intercept

    def predict_batch(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.float64)
        return self.slope * keys + self.intercept

    @property
    def param_count(self) -> int:
        return 2

    def op_count(self) -> int:
        return 2  # one multiply, one add

    def is_monotonic(self) -> bool:
        return self.slope >= 0.0

    def __repr__(self) -> str:
        return f"LinearModel(slope={self.slope:.6g}, intercept={self.intercept:.6g})"
