"""Learned hash functions — the Hash-Model Index (Section 4.1).

"we can scale the CDF by the targeted size M of the Hash-map and use
h(K) = F(K) * M, with key K as our hash-function.  If the model F
perfectly learned the empirical CDF of the keys, no conflicts would
exist.  Furthermore, the hash-function is orthogonal to the actual
Hash-map architecture."

:class:`LearnedHashFunction` wraps any CDF model — by default the same
2-stage RMI used for range indexes (Section 4.2 uses "the 2-stage RMI
models ... with 100k models on the 2nd stage and without any hidden
layers") — and exposes the plain ``hash(key) -> slot`` interface every
hash map in :mod:`repro.hashmap` accepts, making the orthogonality
claim directly testable.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .rmi import RecursiveModelIndex

__all__ = [
    "LearnedHashFunction",
    "conflict_stats",
    "ConflictStats",
]


class LearnedHashFunction:
    """CDF-scaled hash: ``slot = clamp(F(key) * num_slots)``."""

    def __init__(
        self,
        train_keys: np.ndarray,
        num_slots: int,
        *,
        stage_sizes: Sequence[int] = (1, 1000),
    ):
        if num_slots < 1:
            raise ValueError("num_slots must be >= 1")
        keys = np.sort(np.asarray(train_keys))
        self.num_slots = int(num_slots)
        self._n = int(keys.size)
        # The RMI already predicts positions in [0, n); rescaling by
        # M/n turns position predictions into slot predictions.
        self._rmi = RecursiveModelIndex(keys, stage_sizes=stage_sizes)
        self._scale = self.num_slots / max(self._n, 1)

    def __call__(self, key: float) -> int:
        if not self._n:
            return 0
        rmi = self._rmi
        encoded = rmi._space.encode_scalar(key)
        leaf = rmi._route_scalar(encoded)
        raw = rmi._slopes_list[leaf] * encoded + rmi._intercepts_list[leaf]
        slot = int(raw * self._scale)
        if slot < 0:
            return 0
        if slot >= self.num_slots:
            return self.num_slots - 1
        return slot

    def hash_batch(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized slot computation via the RMI's batch routing."""
        # Keys keep their dtype: the plan then encodes them exactly as
        # the scalar ``__call__`` does, and both hash a key to one slot.
        keys = np.asarray(keys).ravel()
        if not self._n:
            return np.zeros(keys.size, dtype=np.int64)
        rmi = self._rmi
        _leaf, raw = rmi._plan.route(rmi._column.prepare(keys))
        slots = (raw * self._scale).astype(np.int64)
        return np.clip(slots, 0, self.num_slots - 1)

    def size_bytes(self) -> int:
        return self._rmi.size_bytes()

    def model_op_count(self) -> int:
        return self._rmi.model_op_count() + 1

    def __repr__(self) -> str:
        return (
            f"LearnedHashFunction(slots={self.num_slots}, "
            f"stages={self._rmi.stage_sizes})"
        )


class ConflictStats:
    """Slot-occupancy summary for a hash function over a key set."""

    def __init__(self, slot_counts: np.ndarray, num_keys: int, num_slots: int):
        occupied = int((slot_counts > 0).sum())
        self.num_keys = int(num_keys)
        self.num_slots = int(num_slots)
        self.occupied_slots = occupied
        self.empty_slots = num_slots - occupied
        # A key "conflicts" if it lands in a slot some earlier key took:
        # total keys minus one per occupied slot.
        self.conflicting_keys = int(num_keys - occupied)
        self.max_chain = int(slot_counts.max()) if slot_counts.size else 0

    @property
    def conflict_rate(self) -> float:
        """Fraction of keys that collided — Figure 8's "% Conflicts"."""
        if self.num_keys == 0:
            return 0.0
        return self.conflicting_keys / self.num_keys

    @property
    def empty_fraction(self) -> float:
        if self.num_slots == 0:
            return 0.0
        return self.empty_slots / self.num_slots

    def __repr__(self) -> str:
        return (
            f"ConflictStats(keys={self.num_keys}, slots={self.num_slots}, "
            f"conflicts={self.conflict_rate:.1%}, empty={self.empty_fraction:.1%})"
        )


def conflict_stats(
    hash_fn: Callable[[float], int],
    keys: np.ndarray,
    num_slots: int,
) -> ConflictStats:
    """Evaluate a hash function's conflicts over ``keys`` (Figure 8).

    Accepts any callable, so learned and traditional hash functions are
    measured identically.
    """
    keys = np.asarray(keys)
    if hasattr(hash_fn, "hash_batch"):
        slots = hash_fn.hash_batch(keys)
    else:
        slots = np.fromiter(
            (hash_fn(float(k)) for k in keys), dtype=np.int64, count=keys.size
        )
    if slots.size and (slots.min() < 0 or slots.max() >= num_slots):
        raise ValueError("hash function produced out-of-range slots")
    counts = np.bincount(slots, minlength=num_slots)
    return ConflictStats(counts, keys.size, num_slots)

