"""Whole-array search baselines: binary / interpolation / exponential.

Section 2.3 compares the naive learned index against "binary search
over the entire data" (~900ns); Figure 5's fixed-height B-Tree finishes
with interpolation search [35]; Section 3.4 proposes exponential search
as the bound-free fallback.  These are the primitive routines, each
with an optional comparison counter so the cost model can price them.

All routines return **lower-bound** positions: the index of the first
element >= key, matching ``numpy.searchsorted(..., side="left")``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "binary_search",
    "interpolation_search",
    "exponential_search",
    "Counter",
]

#: Interpolation rounds before :func:`interpolation_search` gives up
#: and binary-searches what is left of the window.
MAX_INTERPOLATIONS = 32


class Counter:
    """A mutable comparison counter shared across search calls."""

    __slots__ = ("comparisons",)

    def __init__(self):
        self.comparisons = 0

    def reset(self) -> None:
        self.comparisons = 0


def binary_search(
    keys: np.ndarray,
    key: float,
    lo: int = 0,
    hi: int | None = None,
    counter: Counter | None = None,
) -> int:
    """Classic lower-bound binary search over ``keys[lo:hi]``."""
    n = len(keys)
    if hi is None:
        hi = n
    lo = max(0, min(lo, n))
    hi = max(lo, min(hi, n))
    while lo < hi:
        mid = (lo + hi) >> 1
        if counter is not None:
            counter.comparisons += 1
        if keys[mid] < key:
            lo = mid + 1
        else:
            hi = mid
    return lo


def interpolation_search(
    keys: np.ndarray,
    key: float,
    lo: int = 0,
    hi: int | None = None,
    counter: Counter | None = None,
) -> int:
    """Lower-bound interpolation search.

    Guesses the split point by linear interpolation between the window
    endpoints — effectively a locally learned linear model, which is
    why the paper's related-work section treats it as a precursor to
    learned indexes.  Falls back to binary search if it fails to
    converge in :data:`MAX_INTERPOLATIONS` rounds (adversarial key
    distributions).
    """
    n = len(keys)
    if hi is None:
        hi = n
    lo = max(0, min(lo, n))
    hi = max(lo, min(hi, n))
    steps = 0
    while lo < hi:
        left_key = keys[lo]
        right_key = keys[hi - 1]
        if counter is not None:
            counter.comparisons += 2
        if key <= left_key:
            return lo
        if key > right_key:
            return hi
        steps += 1
        if steps > MAX_INTERPOLATIONS:
            return binary_search(keys, key, lo, hi, counter)
        span = float(right_key) - float(left_key)
        if span <= 0:
            return binary_search(keys, key, lo, hi, counter)
        frac = (float(key) - float(left_key)) / span
        mid = lo + int(frac * (hi - lo - 1))
        mid = min(max(mid, lo), hi - 1)
        if counter is not None:
            counter.comparisons += 1
        if keys[mid] < key:
            lo = mid + 1
        else:
            hi = mid
    return lo


def exponential_search(
    keys: np.ndarray,
    key: float,
    guess: int,
    counter: Counter | None = None,
) -> int:
    """Lower-bound search expanding geometrically from ``guess``.

    Section 3.4: with a normally distributed prediction error this
    costs O(log |error|) without storing any min/max bounds.  The
    doubling phase brackets the key; binary search finishes.
    """
    n = len(keys)
    if n == 0:
        return 0
    guess = max(0, min(guess, n - 1))
    if counter is not None:
        counter.comparisons += 1
    if keys[guess] < key:
        # Double rightward until a key >= lookup key brackets the answer.
        bound = 1
        while guess + bound < n and keys[guess + bound] < key:
            if counter is not None:
                counter.comparisons += 1
            bound <<= 1
        lo = guess + (bound >> 1)
        hi = min(guess + bound + 1, n)
        return binary_search(keys, key, lo, hi, counter)
    # Double leftward until a key < lookup key brackets the answer.
    bound = 1
    while guess - bound >= 0 and keys[guess - bound] >= key:
        if counter is not None:
            counter.comparisons += 1
        bound <<= 1
    lo = max(guess - bound, 0)
    hi = guess - (bound >> 1) + 1
    return binary_search(keys, key, lo, hi, counter)
