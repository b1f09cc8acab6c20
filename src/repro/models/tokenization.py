"""String tokenization for learned string indexes (Section 3.5).

The paper: "we consider an n-length string to be a feature vector
x in R^n where x_i is the ASCII decimal value ... we will set a maximum
input length N.  Because the data is sorted lexicographically, we will
truncate the keys to length N before tokenization.  For strings with
length n < N, we set x_i = 0 for i > n."

This module implements exactly that, plus a *weighted* variant that
multiplies position ``i`` by ``256^-i`` so the tokenized value order
agrees with lexicographic string order — handy for models that want a
single monotone scalar summary of a string.
"""

from __future__ import annotations

import numpy as np

__all__ = ["tokenize_batch", "lexicographic_scalar_batch"]


def tokenize_batch(keys: list[str], max_length: int) -> np.ndarray:
    """The paper's fixed-length ASCII feature vector of every string,
    as an (n, max_length) matrix."""
    if max_length < 1:
        raise ValueError("max_length must be >= 1")
    out = np.zeros((len(keys), max_length), dtype=np.float64)
    for row, key in enumerate(keys):
        for i, ch in enumerate(key[:max_length]):
            out[row, i] = min(ord(ch), 255)
    return out


def lexicographic_scalar_batch(keys: list[str], max_length: int) -> np.ndarray:
    """A float per string that preserves lexicographic order.

    Interprets the first ``max_length`` bytes as base-257 digits (257 so
    that "a" < "aa": an absent character, encoded 0, sorts before every
    real character encoded 1..256).  Distinct strings sharing a
    ``max_length`` prefix collapse to the same scalar, which is fine for
    CDF-style models — ties are resolved by the bounded local search.
    """
    tokens = tokenize_batch(keys, max_length)
    lengths = np.array([min(len(k), max_length) for k in keys])
    # ord+1 for present positions, 0 for padding
    digits = np.where(
        np.arange(max_length) < lengths[:, None], tokens + 1.0, 0.0
    )
    weights = 257.0 ** -(np.arange(1, max_length + 1, dtype=np.float64))
    return digits @ weights
