"""Last-mile search strategies (Section 3.4).

A learned range index predicts a *position*, not just a page, so the
final search can start from that prediction instead of the middle of a
window.  The paper evaluates:

* **Model Biased Search** — "only varies from traditional binary search
  in that the first middle point is set to the value predicted by the
  model";
* **Biased Quaternary Search** — "the initial three middle points of
  quaternary search as pos - sigma, pos, pos + sigma".  Here that is
  one round, then binary search inside the bracket it picks.  This
  departs from the paper's "continue with traditional quaternary
  search": those rounds pay off only when the hardware prefetches all
  three split points at once, and the interpreter has no prefetch, so
  each further round costs three comparisons for two halvings — 1.5
  comparisons per halving where binary search pays one;
* plain binary search within the error bounds (the Figure 4 default);
* exponential search from the prediction, needing no stored bounds.

All strategies return lower-bound positions (first index whose key is
>= the lookup key) and optionally count comparisons for the cost model
into ``counter`` — a :class:`Counter`, or any object with an integer
``comparisons`` attribute (the scalar lookup passes its index's
stats).

Scalar vs batch
---------------
The scalar strategies above are the *latency* path: one Python-level
probe sequence per query, mirroring what a code-generated C++ lookup
would execute, so per-query comparison counts feed the Section 2.1 cost
model honestly.  :func:`vectorized_bounded_search` is the *throughput*
path: a whole batch searches its windows in fixed branch-free rounds
(:func:`halving_rounds`), one gather + compare + add over every lane
per round — the branch-free last mile "Benchmarking Learned Indexes"
finds beats binary search inside small error bounds.  Both return the
same lower-bound positions; only the probe schedule differs, which is
why benchmarks report scalar latency and batch throughput separately.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..btree.search_baselines import (
    Counter,
    binary_search,
    exponential_search,
)
from ..dispatch import COMPACT_MIN_BATCH

__all__ = [
    "biased_binary_search",
    "biased_quaternary_search",
    "halving_rounds",
    "vectorized_bounded_search",
    "verify_lower_bound_batch",
    "SEARCH_STRATEGIES",
    "Counter",
]


def biased_binary_search(
    keys,
    key: float,
    lo: int,
    hi: int,
    guess: int,
    counter: Counter | None = None,
) -> int:
    """Binary search whose first probe is the model's prediction."""
    n = len(keys)
    lo = max(0, min(lo, n))
    hi = max(lo, min(hi, n))
    first = True
    while lo < hi:
        if first:
            mid = max(lo, min(guess, hi - 1))
            first = False
        else:
            mid = (lo + hi) >> 1
        if counter is not None:
            counter.comparisons += 1
        if keys[mid] < key:
            lo = mid + 1
        else:
            hi = mid
    return lo


def biased_quaternary_search(
    keys,
    key: float,
    lo: int,
    hi: int,
    guess: int,
    sigma: int = 1,
    counter: Counter | None = None,
) -> int:
    """One quaternary round at ``guess - sigma, guess, guess + sigma``,
    then binary search.

    The round's points bracket the prediction with the model's error
    std (``sigma >= 1``), so most lookups continue in a bracket of
    about ``sigma`` slots; a window of three slots or fewer skips the
    round.  The window must lie in the array:
    ``0 <= lo <= hi <= len(keys)``.
    """
    comparisons = 0
    if hi - lo > 3:
        p2 = min(max(guess, lo), hi - 1)
        p1 = max(p2 - sigma, lo)
        p3 = min(p2 + sigma, hi - 1)
        comparisons = 3
        # Narrow to the bracket that keeps the lower bound in [lo, hi).
        if keys[p1] >= key:
            hi = p1 + 1
        elif keys[p2] >= key:
            lo, hi = p1 + 1, p2 + 1
        elif keys[p3] >= key:
            lo, hi = p2 + 1, p3 + 1
        else:
            lo = p3 + 1
    while lo < hi:
        mid = (lo + hi) >> 1
        comparisons += 1
        if keys[mid] < key:
            lo = mid + 1
        else:
            hi = mid
    if counter is not None:
        counter.comparisons += comparisons
    return lo


def _plain_binary(keys, key, lo, hi, guess, counter=None):
    return binary_search(keys, key, lo, hi, counter)


def _exponential(keys, key, lo, hi, guess, counter=None):
    # Bound-free: expands from the guess over the whole array.
    return exponential_search(keys, key, guess, counter)


def _biased_quaternary_default(keys, key, lo, hi, guess, counter=None):
    # sigma defaults to a quarter of the window, >= 1
    sigma = max((hi - lo) // 4, 1)
    return biased_quaternary_search(keys, key, lo, hi, guess, sigma, counter)


#: name -> callable(keys, key, lo, hi, guess, counter) -> lower-bound pos
SEARCH_STRATEGIES: dict[str, Callable] = {
    "binary": _plain_binary,
    "biased_binary": biased_binary_search,
    "biased_quaternary": _biased_quaternary_default,
    "exponential": _exponential,
}


def halving_rounds(
    keys: np.ndarray,
    queries: np.ndarray,
    base: np.ndarray,
    rounds: int,
    side: str = "left",
    *,
    down_to: int = 0,
) -> np.ndarray:
    """For ``half = 2**(rounds-1)`` down to ``2**down_to``, advance
    ``base`` (in place) by ``half`` where ``keys[base + half - 1]`` is
    ``< query`` (``side="left"``) or ``<= query``.  No masks: every lane
    runs every round.  Down to ``2**0``, each lane lands on its lower
    (upper) bound clamped into ``[base, base + 2**rounds)``, as
    ``keys`` is sorted and a probe past its end reads the last key."""
    less = np.less if side == "left" else np.less_equal
    for r in range(rounds - 1, max(down_to, 1) - 1, -1):
        half = 1 << r
        base += less(keys.take(base + (half - 1), mode="clip"), queries) * half
    if down_to == 0 < rounds:
        # The half == 1 round, spared its add and multiply by one.
        base += less(keys.take(base, mode="clip"), queries)
    return base


def vectorized_bounded_search(
    keys: np.ndarray,
    queries: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
) -> np.ndarray:
    """Per-query lower bound within its window, in fixed rounds.

    A window ``[lo, hi)`` has ``hi - lo + 1`` candidates, resolved by
    ``bit_length(hi - lo)`` :func:`halving_rounds` from ``lo`` and a
    clamp at ``hi``; lanes share the widest window's rounds, but from
    :data:`~repro.dispatch.COMPACT_MIN_BATCH` lanes wide outliers run
    their extra rounds alone.  ``keys`` must be non-empty and sorted,
    ``0 <= lo <= hi <= n``.

    The result is the global lower bound clamped into ``[lo, hi]``, so
    only boundary results (``pos == lo`` or ``pos == hi``) can be
    Section 3.4 mispredictions and need the caller's verification.
    """
    base = np.array(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    width = hi - base
    rounds = shared = int(width.max(initial=0)).bit_length()
    lanes = base.size
    if lanes >= COMPACT_MIN_BATCH:
        # All lanes run the ``t`` rounds minimising ``lanes * t + wide *
        # (rounds + 2 - t)``: the wide lanes (width >= 2**t) run their
        # top rounds alone first, and peeling them off costs about two
        # rounds of theirs.  Lane counts come from a strided sample of
        # 1 024-2 047 widths; frexp's exponent is their bit length.
        sample = width[:: lanes >> 10]
        counts = np.bincount(np.frexp(sample)[1], minlength=rounds + 1)
        n_wide = (sample.size - np.cumsum(counts)) * (lanes / sample.size)
        t = np.arange(rounds + 1)
        cost = lanes * t + n_wide * (rounds + 2 - t)
        shared = rounds - int(np.argmin(cost[::-1]))  # ties: fewer groups
    if shared < rounds:
        wide = np.flatnonzero(width >> shared)
        base[wide] = halving_rounds(
            keys, queries[wide], base[wide], rounds, down_to=shared
        )
    halving_rounds(keys, queries, base, shared)
    return np.minimum(base, hi, out=base)


def verify_lower_bound_batch(
    keys: np.ndarray, queries: np.ndarray, positions: np.ndarray
) -> np.ndarray:
    """The Section 3.4 misprediction check: one bool per query.

    ``positions`` must already lie in ``[0, n]``; entries fail when the
    key at the position is still < query or the key before it is >=
    query — the Section 3.4 misprediction cases the scalar fix-up
    widens.
    """
    n = keys.shape[0]
    positions = np.asarray(positions, dtype=np.int64)
    safe = np.minimum(positions, n - 1)
    bad = (positions < n) & (keys[safe] < queries)
    prev = np.maximum(positions - 1, 0)
    bad |= (positions > 0) & (keys[prev] >= queries)
    return ~bad
