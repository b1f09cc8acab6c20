"""Separate-chaining hash map with in-array records (Appendix B).

The paper's Appendix B architecture: "records are stored directly
within an array and only in the case of a conflict is the record
attached to the linked-list.  That is without a conflict there is at
most one cache miss."  Records are 20 bytes (64-bit key + 64-bit
payload + 32-bit metadata); the chain pointer makes each slot 24 bytes.

The map is storage-faithful: slots and the overflow region are numpy
arrays laid out exactly as described, so ``empty_slot_bytes`` (the
Figure 11 "wasted space" column) and utilization are measured, not
modeled.  The hash function is pluggable — a learned CDF model or a
murmur-style random hash — which is the entire point of Section 4.
"""

from __future__ import annotations

import operator
from typing import Callable

import numpy as np

__all__ = ["ChainingHashMap", "SLOT_BYTES", "RECORD_BYTES"]

#: 64-bit key + 64-bit payload + 32-bit metadata (paper, Appendix B).
RECORD_BYTES = 20
#: Record plus the 32-bit chain pointer.
SLOT_BYTES = 24

_EMPTY = -1


def integral_key(key) -> int | None:
    """``key`` as a Python int, or None when it has no integer value.

    Every map in this package reads ``2.0`` as the key 2, as a dict
    does, but never truncates: ``2.5``, NaN, an infinity or ``"7"`` is
    no key, so a read of one finds nothing.
    """
    try:
        return operator.index(key)
    except TypeError:
        pass
    if isinstance(key, (float, np.floating)) and float(key).is_integer():
        return int(key)
    return None


def write_key(key) -> int:
    """:func:`integral_key` for a write: a key with no integer value is
    a ``TypeError``."""
    value = integral_key(key)
    if value is None:
        raise TypeError(f"hash map keys are integers, got {key!r}")
    return value


def integral_keys(keys) -> np.ndarray:
    """A key array for a bulk write: an integer array as given, any
    other array checked key by key with :func:`write_key` (before
    anything is written) and returned as int64."""
    keys = np.asarray(keys)
    if keys.dtype.kind in "iu":
        return keys
    return np.array([write_key(k) for k in keys.ravel().tolist()], np.int64)


class ChainingHashMap:
    """Fixed-capacity separate-chaining map over int64 keys."""

    def __init__(self, num_slots: int, hash_fn: Callable[[float], int]):
        if num_slots < 1:
            raise ValueError("num_slots must be >= 1")
        self.num_slots = int(num_slots)
        self.hash_fn = hash_fn
        self._keys = np.zeros(num_slots, dtype=np.int64)
        self._values = np.zeros(num_slots, dtype=np.int64)
        self._meta = np.zeros(num_slots, dtype=np.int32)
        self._occupied = np.zeros(num_slots, dtype=bool)
        self._next = np.full(num_slots, _EMPTY, dtype=np.int64)
        # Overflow region grows on demand (the linked-list heap).
        self._of_keys: list[int] = []
        self._of_values: list[int] = []
        self._of_next: list[int] = []
        self.size = 0
        self.probe_count = 0

    # -- writes -------------------------------------------------------------

    def insert(self, key: int, value: int) -> None:
        """Insert or overwrite ``key``."""
        key = write_key(key)
        slot = self.hash_fn(key)
        if not self._occupied[slot]:
            self._occupied[slot] = True
            self._keys[slot] = key
            self._values[slot] = value
            self.size += 1
            return
        if self._keys[slot] == key:
            self._values[slot] = value
            return
        # Walk the chain looking for the key.
        prev_link = ("slot", slot)
        node = self._next[slot]
        while node != _EMPTY:
            if self._of_keys[node] == key:
                self._of_values[node] = value
                return
            prev_link = ("overflow", node)
            node = self._of_next[node]
        # Append a new overflow record.
        index = len(self._of_keys)
        self._of_keys.append(int(key))
        self._of_values.append(int(value))
        self._of_next.append(_EMPTY)
        kind, where = prev_link
        if kind == "slot":
            self._next[where] = index
        else:
            self._of_next[where] = index
        self.size += 1

    def insert_batch(self, keys: np.ndarray, values: np.ndarray) -> None:
        keys = integral_keys(keys)
        values = np.asarray(values)
        if keys.size != values.size:
            raise ValueError("keys and values must align")
        if hasattr(self.hash_fn, "hash_batch"):
            slots = self.hash_fn.hash_batch(keys)
            for key, value, slot in zip(keys, values, slots):
                self._insert_at(int(key), int(value), int(slot))
        else:
            for key, value in zip(keys, values):
                self.insert(int(key), int(value))

    def _insert_at(self, key: int, value: int, slot: int) -> None:
        """Insert with a pre-computed slot (batch path)."""
        if not self._occupied[slot]:
            self._occupied[slot] = True
            self._keys[slot] = key
            self._values[slot] = value
            self.size += 1
            return
        if self._keys[slot] == key:
            self._values[slot] = value
            return
        prev_kind, prev_where = "slot", slot
        node = self._next[slot]
        while node != _EMPTY:
            if self._of_keys[node] == key:
                self._of_values[node] = value
                return
            prev_kind, prev_where = "overflow", node
            node = self._of_next[node]
        index = len(self._of_keys)
        self._of_keys.append(key)
        self._of_values.append(value)
        self._of_next.append(_EMPTY)
        if prev_kind == "slot":
            self._next[prev_where] = index
        else:
            self._of_next[prev_where] = index
        self.size += 1

    # -- reads ----------------------------------------------------------------

    def get(self, key: int) -> int | None:
        """Payload for ``key`` or None; counts probes for the benchmarks."""
        if type(key) is not int:
            key = integral_key(key)
            if key is None:
                return None
        slot = self.hash_fn(key)
        self.probe_count += 1
        if not self._occupied[slot]:
            return None
        if self._keys[slot] == key:
            return int(self._values[slot])
        node = self._next[slot]
        while node != _EMPTY:
            self.probe_count += 1
            if self._of_keys[node] == key:
                return self._of_values[node]
            node = self._of_next[node]
        return None

    def __contains__(self, key: int) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        return self.size

    # -- storage accounting ------------------------------------------------------

    @property
    def occupied_slots(self) -> int:
        return int(self._occupied.sum())

    @property
    def empty_slots(self) -> int:
        return self.num_slots - self.occupied_slots

    def empty_slot_bytes(self) -> int:
        """Wasted primary-array bytes — Figure 11's "Empty Slots" column."""
        return self.empty_slots * SLOT_BYTES

    def overflow_records(self) -> int:
        return len(self._of_keys)

    def size_bytes(self) -> int:
        """Total storage: primary slots + overflow heap (records included).

        Appendix B: "in contrast to the B-Tree experiments, we do
        include the data size" because the records live inside the map.
        """
        return self.num_slots * SLOT_BYTES + len(self._of_keys) * SLOT_BYTES

    def __repr__(self) -> str:
        return (
            f"ChainingHashMap(slots={self.num_slots}, size={self.size}, "
            f"empty={self.empty_slots}, overflow={self.overflow_records()})"
        )
