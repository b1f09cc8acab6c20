"""Small shared utilities.

``scalar_view`` exists because this reproduction measures *relative*
lookup cost in pure Python: indexing a numpy array one element at a
time pays ~1µs of ufunc/boxing overhead per probe, which would drown
the algorithmic differences between index structures.  A memoryview
over the same buffer returns native Python scalars in ~150ns, so every
index's scalar hot path reads keys through this view while vectorized
code keeps using the numpy array.  (In the paper's C++ setting this
distinction does not exist; both are a single load.)
"""

from __future__ import annotations

import numpy as np

__all__ = ["scalar_view", "clamp_into"]

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

