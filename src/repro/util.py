"""Small shared utilities.

``scalar_view`` exists because this reproduction measures *relative*
lookup cost in pure Python: indexing a numpy array one element at a
time pays ~1µs of ufunc/boxing overhead per probe, which would drown
the algorithmic differences between index structures.  A memoryview
over the same buffer returns native Python scalars in ~150ns, so every
index's scalar hot path reads keys through this view while vectorized
code keeps using the numpy array.  (In the paper's C++ setting this
distinction does not exist; both are a single load.)

The key contract (``as_int64_keys`` / ``as_int64_key`` /
``as_int64_pairs``) lives here too, below every structure that stores
int64 keys — the LSM store and its memtable and runs, the writable and
paged indexes — so each refuses a key it would otherwise change:
a non-integer is a ``TypeError``, a key outside int64 an
``OverflowError``, and a refused call changes nothing.
"""

from __future__ import annotations

from operator import index as _index

import numpy as np

from .dispatch import PACKED_ORDER_MIN_KEYS

__all__ = [
    "scalar_view", "clamp_into",
    "as_int64_key", "as_int64_keys", "as_int64_pairs", "range_endpoints",
    "sorted_order", "newest_per_key", "newest_entries",
]

_VIEWABLE = {
    np.dtype(np.int64),
    np.dtype(np.int32),
    np.dtype(np.uint64),
    np.dtype(np.uint32),
    np.dtype(np.float64),
    np.dtype(np.float32),
}


def scalar_view(keys):
    """A fast random-access scalar view of a key container.

    numpy arrays of common dtypes become memoryviews (zero copy);
    anything else (lists of strings, object arrays) is returned as-is
    if already indexable, or materialized to a list.
    """
    if isinstance(keys, np.ndarray):
        if keys.dtype in _VIEWABLE and keys.flags["C_CONTIGUOUS"]:
            view = memoryview(keys)
            # An unaligned buffer (e.g. a memmap into an unpadded file)
            # exports a standard-size format ("=q") that memoryview
            # cannot index; fall back to list materialization.
            if not view.format.startswith(("=", "<", ">")):
                return view
        return keys.tolist()
    if isinstance(keys, (list, tuple, memoryview)):
        return keys
    return list(keys)


#: Array size from which one fused ``np.clip`` pass beats two ufunc
#: passes (measured: 4.2 vs 1.1us at 64 elements, 5.6 vs 4.3 at 4 096,
#: 60 vs 93 at 100 000).
_CLIP_FROM = 8192


def clamp_into(values: np.ndarray, low, high) -> np.ndarray:
    """Clamp an integer array into ``[low, high]`` in place.

    ``np.clip(values, low, high, out=values)`` — ``low`` first, so
    ``high`` wins when the bounds cross — minus, on a small array, the
    dispatcher ``np.clip`` puts in front of its two ufuncs: that
    wrapper is three quarters of a 64-element call, and the batch
    engine clamps three to eight times per call.
    """
    if values.size >= _CLIP_FROM:
        return np.clip(values, low, high, out=values)
    np.maximum(values, low, out=values)
    np.minimum(values, high, out=values)
    return values


_KEY_MIN, _KEY_MAX = -(2**63), 2**63 - 1  # the int64 key domain


def as_int64_keys(keys) -> np.ndarray:
    """The key contract, batch form: an integer array in the int64
    domain, or a typed refusal — never a cast that changes a key.

    The ``SortedKeyColumn`` contract — float keys would
    silently alias above 2^53, and a float *query* would truncate
    onto a neighbouring key — so every batch surface that takes keys
    (writes and point reads alike) refuses them with ``TypeError``,
    and a uint64 value above ``2^63 - 1`` with ``OverflowError`` (the
    cast would wrap it onto a negative key).  Plain Python int
    sequences infer an integer dtype and pass; an empty batch passes
    regardless of numpy's float64 default for ``[]``.
    """
    arr = np.asarray(keys)
    if arr.dtype == np.int64:  # the per-request case: nothing to check
        return arr.ravel()
    if arr.size == 0:
        return np.empty(0, dtype=np.int64)
    if arr.dtype.kind not in "iu":
        raise TypeError(
            "batch keys must be an integer array, got dtype "
            f"{arr.dtype}; cast explicitly if that loss is intended"
        )
    if arr.dtype == np.uint64 and int(arr.max()) > _KEY_MAX:
        raise OverflowError(f"key {arr.max()} is outside the int64 key domain")
    return arr.astype(np.int64).ravel()


def as_int64_key(key) -> int:
    """The key contract, scalar form: ``key`` as a Python int.
    ``TypeError`` for a non-integer (``2.5``, ``2.0``, ``"7"`` — no
    truncation onto a neighbour), ``OverflowError`` outside int64."""
    key = _index(key)
    if not _KEY_MIN <= key <= _KEY_MAX:
        raise OverflowError(f"key {key} is outside the int64 key domain")
    return key


def as_int64_pairs(keys, values=None) -> tuple[np.ndarray, np.ndarray]:
    """Parallel ``(keys, values)`` under the key contract; values
    default to the keys (the key-only callers' payload)."""
    keys = as_int64_keys(keys)
    values = keys if values is None else as_int64_keys(values)
    if values.size != keys.size:
        raise ValueError("keys and values must have the same length")
    return keys, values


def sorted_order(values: np.ndarray, kind: str = "quicksort"):
    """``(values in ascending order, an order that sorts them)``, one
    ``np.sort`` where the values allow it.

    From :data:`~repro.dispatch.PACKED_ORDER_MIN_KEYS` integer values
    whose exact span fits the bits an index leaves free, each value
    travels as one uint64 ``(value - min) << b | index`` (``b`` the bit
    length of ``n - 1``): every word is distinct, so one unstable ``np.sort``
    orders the values *stably*, and the sorted words decode to both
    outputs in two linear passes — about half of an ``argsort`` plus
    the gather its callers need, which a sort without positions is not.
    Otherwise (floats, a small batch, a wide span, or ``kind="stable"``,
    which names presorted runs that timsort merges in linear time) it
    is ``np.argsort(values, kind=kind)`` and that gather.
    """
    if (
        kind != "stable"
        and values.size >= PACKED_ORDER_MIN_KEYS
        and values.dtype.kind in "iu"
    ):
        packed = _packed_order(values)
        if packed is not None:
            return packed
    order = np.argsort(values, kind=kind)
    return values[order], order


def _packed_order(values: np.ndarray):
    """:func:`sorted_order`'s packed path, or ``None`` when the span
    leaves no room for the positions."""
    n = values.size
    bits = (n - 1).bit_length()
    low = int(values.min())
    if int(values.max()) - low >= 1 << (64 - bits):
        return None
    # uint64 arithmetic wraps modulo 2^64, so ``value - low`` is exact
    # for every integer dtype once the span fits.
    base = np.uint64(low % (1 << 64))
    if values.dtype.itemsize == 8:
        packed = np.subtract(values.view(np.uint64), base)
    else:
        packed = values.astype(np.uint64)
        packed -= base
    shift = np.uint64(bits)
    packed <<= shift
    packed |= np.arange(n, dtype=np.uint64)
    packed.sort()
    # Positions are below 2^63: a view reads them as intp for free
    # (an ``astype`` from uint64 takes numpy's slow checked cast).
    order = (packed & np.uint64((1 << bits) - 1)).view(np.intp)
    packed >>= shift
    packed += base
    if values.dtype.itemsize == 8:
        return packed.view(values.dtype), order
    return packed.astype(values.dtype), order


def newest_per_key(keys: np.ndarray, kind: str = "quicksort") -> np.ndarray:
    """Indices of the last entry of every distinct key in ``keys``, in
    key order: what survives a put loop over ``keys`` in array order.

    Strictly ascending keys (a bulk load's) return after one compare
    pass.  Otherwise one :func:`sorted_order` (of ``kind``:
    ``"stable"`` merges presorted runs in linear time) plus a neighbour
    compare; a key group's newest entry is its largest original index
    (``np.maximum.reduceat``), a step skipped when no key repeats.
    Several times cheaper than ``np.unique`` on unsorted int64 keys.
    """
    if keys.size < 2 or bool((keys[1:] > keys[:-1]).all()):
        return np.arange(keys.size)
    sorted_keys, order = sorted_order(keys, kind)
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    if first.all():
        return order
    return np.maximum.reduceat(order, np.flatnonzero(first))


def newest_entries(parts, kind: str):
    """Each key's last entry over ``(keys, values, dead)`` parts listed
    oldest first, as the key-sorted ``(keys, values, dead)`` triple a
    run stores: what a put / delete loop over the parts in order leaves.

    The one newest-wins fold of the LSM: memtable builds, run merges
    and live-key scans.  A part's ``values`` or ``dead`` may be a
    scalar spanning its keys (a delete record's flag).  ``kind`` is
    :func:`newest_per_key`'s: ``"stable"`` for parts that are each
    sorted already.
    """
    keys = np.concatenate([p[0] for p in parts])
    # np.full costs a third of np.broadcast_to on a one-key part.
    values, dead = (
        np.concatenate([
            p[i] if isinstance(p[i], np.ndarray) else np.full(p[0].size, p[i])
            for p in parts
        ])
        for i in (1, 2)
    )
    pick = newest_per_key(keys, kind)
    return keys[pick], values[pick], dead[pick]


def range_endpoints(lows, highs) -> tuple[np.ndarray, np.ndarray]:
    """Normalize endpoint arrays, keeping their native dtype so
    int64 ranges resolve exactly through every run's query core and a
    float endpoint bounds the range where it says."""
    lows = np.asarray(lows).ravel()
    highs = np.asarray(highs).ravel()
    if lows.size != highs.size:
        raise ValueError("lows and highs must have the same length")
    return lows, highs
