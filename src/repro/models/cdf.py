"""CDF-model targets and error statistics (Section 2.2).

"a model that predicts the position given a key inside a sorted array
effectively approximates the cumulative distribution function (CDF).
We can model the CDF of the data to predict the position as
p = F(Key) * N."

These helpers give the target positions models learn and compute the
per-model error statistics the RMI's bound bookkeeping needs.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "positions_for_keys",
    "ErrorStats",
    "segmented_error_arrays",
]


def positions_for_keys(n: int) -> np.ndarray:
    """Target positions 0..n-1 for a sorted key array of size ``n``."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return np.arange(n, dtype=np.float64)


class ErrorStats(NamedTuple):
    """Prediction-error summary for a model over its assigned keys.

    ``min_error``/``max_error`` are the signed worst under/over
    predictions (prediction - truth), i.e. the Section 3.4 search bounds:
    the true position of key ``k`` lies in
    ``[pred(k) - max_error, pred(k) - min_error]``.
    """

    min_error: int
    max_error: int
    mean_absolute: float
    std: float
    count: int

    @property
    def window(self) -> int:
        """Width of the guaranteed search window."""
        return self.max_error - self.min_error


def segment_reducer(boundaries: np.ndarray, n: int):
    """Per-segment ``reduceat`` machinery for contiguous segments.

    ``boundaries`` (length ``m + 1``, non-decreasing, ending at ``n``)
    delimits ``m`` segments of an ``n``-element array.  Returns
    ``(counts, empty, reduce)`` where ``reduce(ufunc, values, fill)``
    applies ``ufunc.reduceat`` per segment and writes ``fill`` into
    every empty segment's row.

    reduceat quirks handled here (and only here): an empty segment
    returns the element *at* its start (garbage — overwritten via the
    empty mask) and a start of ``n`` is out of range, so trailing
    empty segments are excluded from the call entirely; clamping their
    starts instead would shrink the preceding segment's range.
    """
    counts = boundaries[1:] - boundaries[:-1]
    starts = boundaries[:-1]
    empty = counts == 0
    cut = int(np.searchsorted(starts, n, side="left"))
    live = starts[:cut]

    def reduce(ufunc, values: np.ndarray, fill: float = 0.0) -> np.ndarray:
        out = np.full(counts.size, fill, dtype=np.float64)
        if cut:
            out[:cut] = ufunc.reduceat(values, live)
        out[empty] = fill
        return out

    return counts, empty, reduce


def segmented_error_arrays(
    predictions: np.ndarray,
    positions: np.ndarray,
    assignment: np.ndarray,
    num_segments: int,
    *,
    default: ErrorStats,
    boundaries: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-segment error bounds, std and counts in one pass.

    Returns ``(min_error, max_error, std, counts)``, the
    j-th entries summarizing segment ``j``'s signed errors
    (prediction - truth; bounds floored/ceiled to integers, std the
    population deviation): min/max from
    ``np.minimum/maximum.reduceat`` over the segment boundaries,
    moments from ``np.add.reduceat`` sums.  When
    ``assignment`` is non-decreasing — always true under a monotonic
    root model — segments are contiguous slices and the boundaries come
    from one ``searchsorted``; otherwise a stable argsort reorders the
    errors segment-major first.

    Segments with no members carry ``default``'s bounds and zero
    moments.  ``boundaries`` asserts a known-contiguous assignment layout
    (see :func:`repro.models.linear.segmented_linear_fit`), skipping
    the monotonicity check and ``searchsorted``.
    """
    m = int(num_segments)
    predictions = np.asarray(predictions, dtype=np.float64)
    n = int(predictions.size)
    if n == 0:
        return (
            np.full(m, int(default.min_error), dtype=np.int64),
            np.full(m, int(default.max_error), dtype=np.int64),
            np.zeros(m, dtype=np.float64),
            np.zeros(m, dtype=np.int64),
        )
    signed = predictions - np.asarray(positions, dtype=np.float64)
    if boundaries is None and bool(
        np.all(assignment[1:] >= assignment[:-1])
    ):
        boundaries = np.searchsorted(
            assignment, np.arange(m + 1), side="left"
        )
    if boundaries is not None:
        ordered = signed
    else:
        per_segment = np.bincount(assignment, minlength=m).astype(np.int64)
        boundaries = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(per_segment, out=boundaries[1:])
        ordered = signed[np.argsort(assignment, kind="stable")]
    counts, empty, reduce = segment_reducer(boundaries, n)
    min_error = np.floor(reduce(np.minimum, ordered)).astype(np.int64)
    max_error = np.ceil(reduce(np.maximum, ordered)).astype(np.int64)
    min_error[empty] = default.min_error
    max_error[empty] = default.max_error
    safe = np.maximum(counts, 1).astype(np.float64)
    mean = reduce(np.add, ordered) / safe
    mean_sq = reduce(np.add, ordered * ordered) / safe
    std = np.sqrt(np.maximum(mean_sq - mean * mean, 0.0))
    return min_error, max_error, std, counts

