"""Shared ε-bounded piecewise-linear segmentation (PR 10).

Both new read-optimized families — the PGM-index (Ferragina & Vinciguerra,
VLDB 2020) and the RadixSpline (Kipf et al., aiDM 2020) — reduce the key
CDF to a sequence of linear segments whose prediction error is bounded by
a chosen ε.  The reference implementations build those segments with
*streaming* one-key-at-a-time algorithms (an O(n) convex-hull sweep for
the PGM, a greedy spline corridor for the RadixSpline), which in this
pure-Python reproduction would put an interpreter-bound loop back on the
build path that ISSUE 6 spent a PR removing.

This module is the array-native substitute: a split-refine loop that
fits *every* segment of the current partition at once (reusing the
vectorized machinery in :func:`repro.models.linear.segmented_linear_fit`
and :func:`repro.models.cdf.segment_reducer`), measures every segment's
worst signed residual in one ``reduceat`` pass, and splits every
violating segment into ``ceil(max_abs/ε)`` equal-run chunks (at most
one per 2ε runs) in one vectorized round.  Each round is a handful of
O(n) array passes and the round count is logarithmic (children carry
at most half a violator's distinct-key runs), so a million-key
segmentation costs a small constant multiple of the RMI's one-pass
vectorized build — the ISSUE 10 gate.

ε semantics
-----------
Segment boundaries are always snapped to *distinct-value run starts* of
the float64-encoded keys, so segment first-keys are strictly increasing
(the property the PGM's recursive levels and the RadixSpline's radix
table both rely on).  At convergence every segment spanning more than
one distinct value satisfies ``max |prediction - position| <= ε`` — the
provable bound, asserted as a hard invariant by the test suite.  A
segment holding a single distinct value cannot be split further; its
*measured* residual bounds are stored instead (a run of more than 2ε
duplicates honestly reports the wider window), so compiled lookups stay
exact either way — the shared engine searches whatever window the
stored bounds describe and verifies the result.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..models.cdf import segment_reducer
from ..models.linear import segmented_linear_fit

__all__ = ["EpsilonSegmentation", "FIT_MODES", "epsilon_segment"]

#: Accepted ``fit`` values: ``"least_squares"`` minimizes the mean
#: squared residual per segment (PGM-style optimal piecewise linear
#: approximation under the vectorized solver), ``"endpoint"``
#: interpolates each segment's first and last point (spline knots —
#: zero residual at both ends, the RadixSpline corridor analogue).
FIT_MODES = ("least_squares", "endpoint")

#: Safety cap on split-refine rounds.  Every round splits each violating
#: segment into >= 2 pieces whose largest child carries at most
#: ``ceil(runs / 2)`` distinct-key runs, so any input converges within
#: ``log2(#runs) + 1`` rounds — the cap is unreachable for arrays
#: addressable by int64 and exists only as a guard against logic drift.
MAX_ROUNDS = 80


class EpsilonSegmentation(NamedTuple):
    """A converged ε-segmentation over one sorted key array.

    ``boundaries`` (int64, length ``m + 1``, starting at 0 and ending at
    ``n``) delimits ``m`` contiguous segments; every interior boundary
    is a distinct-value run start, so ``keys[boundaries[:-1]]`` is
    strictly increasing.  ``slopes``/``intercepts`` are the per-segment
    lines and ``lo_offsets``/``hi_offsets`` the measured signed residual
    bounds in the compiled-plan convention (``lo = ceil(max signed
    error)``, ``hi = floor(min signed error)`` — the search window for a
    raw prediction is ``[raw - lo - 1, raw - hi + 2)``).
    """

    boundaries: np.ndarray
    slopes: np.ndarray
    intercepts: np.ndarray
    lo_offsets: np.ndarray
    hi_offsets: np.ndarray
    rounds: int

    @property
    def segment_count(self) -> int:
        return int(self.boundaries.size - 1)


def _fit_partition(
    keys_f: np.ndarray,
    positions: np.ndarray,
    boundaries: np.ndarray,
    fit: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(slopes, intercepts, per-key predictions) for one partition."""
    m = boundaries.size - 1
    if fit == "least_squares":
        # ``boundaries`` asserts the contiguous layout, so the fit never
        # touches the (unused) assignment argument.
        slopes, intercepts, _counts, predictions = segmented_linear_fit(
            keys_f, positions, None, m,
            return_predictions=True, boundaries=boundaries,
        )
        return slopes, intercepts, predictions
    # Endpoint interpolation: the segment's line passes through its
    # first and last (key, position) pair — knot-style fitting with
    # zero residual at both ends.  Degenerate spans (single distinct
    # value) fall back to a flat line through the first position.
    starts = boundaries[:-1]
    last = np.maximum(boundaries[1:] - 1, starts)
    x0 = keys_f[starts]
    span = keys_f[last] - x0
    y0 = positions[starts]
    slopes = np.zeros(m, dtype=np.float64)
    np.divide(positions[last] - y0, span, out=slopes, where=span > 0)
    intercepts = y0 - slopes * x0
    counts = boundaries[1:] - starts
    predictions = np.repeat(slopes, counts)
    predictions *= keys_f
    predictions += np.repeat(intercepts, counts)
    return slopes, intercepts, predictions


def epsilon_segment(
    keys_f: np.ndarray,
    positions: np.ndarray,
    epsilon: float,
    *,
    fit: str = "least_squares",
) -> EpsilonSegmentation:
    """Partition ``keys_f`` into ε-bounded linear segments, vectorized.

    ``keys_f`` must be the sorted float64 encoding of the key column
    (the precision model predictions run at) and ``positions`` the
    float64 target positions ``0..n-1``.  Returns the converged
    :class:`EpsilonSegmentation`; ``n == 0`` yields zero segments.
    """
    if fit not in FIT_MODES:
        raise ValueError(f"fit must be one of {FIT_MODES}")
    eps = float(epsilon)
    if eps < 1.0:
        raise ValueError("epsilon must be >= 1")
    n = keys_f.size
    if n == 0:
        empty = np.zeros(0, dtype=np.float64)
        return EpsilonSegmentation(
            np.zeros(1, dtype=np.int64), empty, empty.copy(),
            empty.copy(), empty.copy(), 0,
        )
    # Distinct-value run starts in float64 space: the only legal split
    # points.  Splitting mid-run would give two segments the same first
    # key, breaking the strict monotonicity the routing layers need.
    run_starts = np.nonzero(
        np.concatenate(([True], keys_f[1:] != keys_f[:-1]))
    )[0]
    boundaries = np.array([0, n], dtype=np.int64)
    rounds = 0
    while True:
        slopes, intercepts, predictions = _fit_partition(
            keys_f, positions, boundaries, fit
        )
        signed = predictions - positions
        _counts, _empty, reduce = segment_reducer(boundaries, n)
        seg_min = reduce(np.minimum, signed)
        seg_max = reduce(np.maximum, signed)
        max_abs = np.maximum(np.abs(seg_min), seg_max)
        # Boundaries are run starts, so these searchsorteds recover the
        # exact run-index range [r0, r1) each segment spans.
        r0 = np.searchsorted(run_starts, boundaries[:-1], side="left")
        r1 = np.searchsorted(run_starts, boundaries[1:], side="left")
        nruns = r1 - r0
        violating = (max_abs > eps) & (nruns >= 2)
        if rounds >= MAX_ROUNDS or not np.any(violating):
            break
        rounds += 1
        # Split every violator into k equal-run chunks at once.  Where
        # a line's residual grows about linearly with the span it must
        # cover, k = ceil(max_abs / ε) jumps most of the way to the
        # converged partition in one round.  A skewed column breaks
        # that (one line over a lognormal CDF misses by ~n/4 and would
        # cut every key apart), so k is capped to leave each chunk at
        # least 2ε runs, about what one line fits within ε; a chunk
        # that still violates splits again next round.  The floor of 2
        # guarantees strict progress.
        runs = nruns[violating]
        k = np.ceil(max_abs[violating] / eps).astype(np.int64)
        np.clip(k, 2, np.maximum(runs // int(2 * eps), 2), out=k)
        pieces = k - 1  # interior cuts per violating segment
        total = int(pieces.sum())
        # Flat (segment, cut) index pairs without a Python loop: for
        # each violator j repeated pieces[j] times, offs counts
        # 0..pieces[j]-1 within the repeat.
        offs = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(pieces) - pieces, pieces
        )
        cut_runs = (
            np.repeat(r0[violating], pieces)
            + ((offs + 1) * np.repeat(runs, pieces))
            // np.repeat(k, pieces)
        )
        # With 2 <= k <= nruns the cuts fall strictly inside their
        # segment and strictly increase, so a sort merges them in with
        # no duplicate to drop.
        boundaries = np.sort(
            np.concatenate([boundaries, run_starts[cut_runs]])
        )
    return EpsilonSegmentation(
        boundaries,
        slopes,
        intercepts,
        np.ceil(seg_max),
        np.floor(seg_min),
        rounds,
    )
