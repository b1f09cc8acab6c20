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
path: it runs the plain binary-search strategy for a whole query batch
in lock-step (`while np.any(left < right)`), one numpy gather +
compare per round over every still-active query.  Both return the same
lower-bound positions; only the probe schedule differs, which is why
benchmarks report scalar latency and batch throughput separately.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..btree.search_baselines import (
    Counter,
    binary_search,
    exponential_search,
)

__all__ = [
    "biased_binary_search",
    "biased_quaternary_search",
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


#: Batch size from which the lock-step search compacts its straggler
#: lanes (measured on this box: compaction loses 10-25% below ~1k
#: lanes, wins 5-15% above ~4k, uniform and lognormal windows alike).
COMPACT_MIN_BATCH = 2048


def vectorized_bounded_search(
    keys: np.ndarray,
    queries: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    counter: Counter | None = None,
) -> np.ndarray:
    """Lock-step lower-bound binary search over per-query windows.

    Runs one binary-search round per iteration for *every* query whose
    window ``[lo, hi)`` is still open: a single fancy-indexed gather of
    ``keys`` at the midpoints plus one vectorized compare, i.e. the
    data-parallel analogue of issuing a batch of independent binary
    searches.  Queries whose windows close simply stop participating;
    the loop ends after ``ceil(log2(max window))`` rounds.

    ``keys`` must be non-empty and sorted; ``lo``/``hi`` are int arrays
    already clamped to ``[0, n]``.  Returns the per-query lower bound
    *within its window* (callers verify against the full array and fix
    up misses, exactly like the scalar path).

    Verification shortcut for callers: a returned position strictly
    inside its window has had both neighbours probed (the final probes
    that pinned ``left`` and ``right`` established ``keys[pos-1] <
    query <= keys[pos]``), so it is already a *globally* correct lower
    bound.  Only boundary results (``pos == lo`` or ``pos == hi``) can
    be Section 3.4 mispredictions and need the verification pass.
    """
    left = np.asarray(lo, dtype=np.int64).copy()
    right = np.asarray(hi, dtype=np.int64).copy()
    batch = left.size
    # Phase 1 — full-width lock-step rounds while most lanes are open:
    # every array op streams over the whole batch, so masking beats
    # compaction until the open fraction drops.  A small batch never
    # compacts: a pass over it costs one call's fixed overhead however
    # few lanes are open, less than the gathers compaction adds.
    compact_below = batch if batch >= COMPACT_MIN_BATCH else 0
    while True:
        active = left < right
        open_lanes = int(np.count_nonzero(active))
        if open_lanes == 0:
            return left
        if open_lanes * 4 < compact_below:
            break
        if counter is not None:
            counter.comparisons += open_lanes
        mid = left + right
        mid >>= 1
        # Closed lanes have left == right (possibly == n); 'clip' keeps
        # their gather in range — the lanes are masked below anyway.
        less = keys.take(mid, mode="clip") < queries
        less &= active  # lanes moving right this round
        active ^= less  # lanes moving left this round
        np.putmask(right, active, mid)
        mid += 1
        np.putmask(left, less, mid)
    # Phase 2 — compact the straggler lanes (wide-window outliers) so
    # the remaining rounds no longer pay full-batch passes.
    idx = np.nonzero(active)[0]
    l, r, q = left[idx], right[idx], queries[idx]
    while l.size:
        if counter is not None:
            counter.comparisons += int(l.size)
        mid = (l + r) >> 1  # all lanes open: mid < r <= n, gather safe
        less = keys[mid] < q
        l = np.where(less, mid + 1, l)
        r = np.where(less, r, mid)
        closed = l >= r
        if closed.any():
            left[idx[closed]] = l[closed]
            still = ~closed
            idx, l, r, q = idx[still], l[still], r[still], q[still]
    return left


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
