"""Traditional hash functions (the Section 4.2 baseline).

The paper's baseline is "a simple MurmurHash3-like hash-function".
This module implements the MurmurHash3 64-bit finalizer (fmix64) — the
exact avalanche core of MurmurHash3 — for integer keys, plus the full
MurmurHash3 x64 32-bit-output routine for byte strings (used by Bloom
filters), all in pure Python with explicit 64-bit wrapping.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "murmur_fmix64",
    "murmur_fmix64_batch",
    "murmur3_string",
    "RandomHashFunction",
]

_MASK64 = (1 << 64) - 1


def murmur_fmix64(key: int, seed: int = 0) -> int:
    """MurmurHash3's 64-bit finalizer: full avalanche on a 64-bit int."""
    h = (int(key) ^ (seed * 0x9E3779B97F4A7C15)) & _MASK64
    h ^= h >> 33
    h = (h * 0xFF51AFD7ED558CCD) & _MASK64
    h ^= h >> 33
    h = (h * 0xC4CEB9FE1A85EC53) & _MASK64
    h ^= h >> 33
    return h


_FMIX_SHIFT = np.uint64(33)
_FMIX_C1 = np.uint64(0xFF51AFD7ED558CCD)
_FMIX_C2 = np.uint64(0xC4CEB9FE1A85EC53)


def murmur_fmix64_batch(keys: np.ndarray, seed: int = 0) -> np.ndarray:
    """Vectorized :func:`murmur_fmix64` over a uint64 view of ``keys``.

    Array arithmetic wraps modulo 2^64 without warning, and every step
    writes into ``h`` or one scratch array, so a call costs two
    allocations whatever its size.
    """
    h = np.asarray(keys).astype(np.uint64, copy=True)
    shifted = np.empty_like(h)
    h ^= np.uint64((seed * 0x9E3779B97F4A7C15) & _MASK64)
    for multiplier in (_FMIX_C1, _FMIX_C2):
        np.right_shift(h, _FMIX_SHIFT, out=shifted)
        h ^= shifted
        h *= multiplier
    np.right_shift(h, _FMIX_SHIFT, out=shifted)
    h ^= shifted
    return h


def murmur3_string(data: bytes | str, seed: int = 0) -> int:
    """MurmurHash3 x86 32-bit for byte strings (Bloom-filter hashing)."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    c1, c2 = 0xCC9E2D51, 0x1B873593
    mask32 = 0xFFFFFFFF
    h = seed & mask32
    length = len(data)
    rounded = length - (length % 4)
    for i in range(0, rounded, 4):
        k = int.from_bytes(data[i:i + 4], "little")
        k = (k * c1) & mask32
        k = ((k << 15) | (k >> 17)) & mask32
        k = (k * c2) & mask32
        h ^= k
        h = ((h << 13) | (h >> 19)) & mask32
        h = (h * 5 + 0xE6546B64) & mask32
    k = 0
    tail = data[rounded:]
    if len(tail) >= 3:
        k ^= tail[2] << 16
    if len(tail) >= 2:
        k ^= tail[1] << 8
    if len(tail) >= 1:
        k ^= tail[0]
        k = (k * c1) & mask32
        k = ((k << 15) | (k >> 17)) & mask32
        k = (k * c2) & mask32
        h ^= k
    h ^= length
    h ^= h >> 16
    h = (h * 0x85EBCA6B) & mask32
    h ^= h >> 13
    h = (h * 0xC2B2AE35) & mask32
    h ^= h >> 16
    return h


class RandomHashFunction:
    """A seeded murmur-style hash mapped onto ``num_slots`` slots.

    The drop-in traditional counterpart of
    :class:`repro.core.learned_hash.LearnedHashFunction`: same call
    interface, so every hash-map architecture accepts either.
    """

    def __init__(self, num_slots: int, seed: int = 0):
        if num_slots < 1:
            raise ValueError("num_slots must be >= 1")
        self.num_slots = int(num_slots)
        self.seed = int(seed)

    def __call__(self, key: float) -> int:
        return murmur_fmix64(int(key), self.seed) % self.num_slots

    def hash_batch(self, keys: np.ndarray) -> np.ndarray:
        h = murmur_fmix64_batch(np.asarray(keys, dtype=np.int64), self.seed)
        return (h % np.uint64(self.num_slots)).astype(np.int64)

    def size_bytes(self) -> int:
        return 8  # the seed

    def __repr__(self) -> str:
        return f"RandomHashFunction(slots={self.num_slots}, seed={self.seed})"
