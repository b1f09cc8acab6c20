"""In-place chained hash map with two-pass build (Appendix C).

The paper: "we implemented a chained Hash-map, which uses a two pass
algorithm: in the first pass, the learned hash function is used to put
items into slots.  If a slot is already taken, the item is skipped.
Afterwards we use a separate chaining approach for every skipped item
except that we use the remaining free slots with offsets as pointers
for them.  As a result, the utilization can be 100% (recall, we do not
consider inserts) and the quality of the learned hash function can only
make an impact on the performance not the size: the fewer conflicts,
the fewer cache misses."

:class:`InPlaceChainedHashMap` is a read-only (build-once) map with
exactly that structure; lookups walk the in-place chains and count
probes so benchmarks can relate hash quality to lookup cost.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .chaining import integral_key, integral_keys

__all__ = ["InPlaceChainedHashMap"]

_EMPTY = -1

#: Bytes of one stored record (key and value), for size accounting.
RECORD_BYTES = 20


class InPlaceChainedHashMap:
    """100%-utilization chained map built in two passes."""

    def __init__(
        self,
        keys: np.ndarray,
        values: np.ndarray,
        hash_fn: Callable[[float], int],
        *,
        num_slots: int | None = None,
    ):
        keys = np.asarray(integral_keys(keys), dtype=np.int64)
        values = np.asarray(values, dtype=np.int64)
        if keys.size != values.size:
            raise ValueError("keys and values must align")
        if np.unique(keys).size != keys.size:
            raise ValueError("keys must be unique for a build-once map")
        self.num_slots = int(num_slots if num_slots is not None else keys.size)
        if self.num_slots < keys.size:
            raise ValueError("need at least one slot per key")
        self.hash_fn = hash_fn
        self.size = int(keys.size)
        self.probe_count = 0
        self.first_pass_hits = 0
        self._build(keys, values)

    def _build(self, keys: np.ndarray, values: np.ndarray) -> None:
        slots = self.num_slots
        self._keys = np.zeros(slots, dtype=np.int64)
        self._values = np.zeros(slots, dtype=np.int64)
        self._occupied = np.zeros(slots, dtype=bool)
        self._next = np.full(slots, _EMPTY, dtype=np.int64)

        if hasattr(self.hash_fn, "hash_batch"):
            hashed = self.hash_fn.hash_batch(keys)
        else:
            hashed = np.fromiter(
                (self.hash_fn(int(k)) for k in keys),
                dtype=np.int64,
                count=keys.size,
            )

        # Pass 1: claim home slots; collisions get skipped.
        skipped: list[int] = []
        for i in range(keys.size):
            slot = int(hashed[i])
            if self._occupied[slot]:
                skipped.append(i)
                continue
            self._occupied[slot] = True
            self._keys[slot] = keys[i]
            self._values[slot] = values[i]
            self.first_pass_hits += 1

        # Pass 2: place skipped items in free slots, linked from their
        # home slot's chain via in-place offsets.
        free_slots = np.nonzero(~self._occupied)[0]
        cursor = 0
        for i in skipped:
            home = int(hashed[i])
            target = int(free_slots[cursor])
            cursor += 1
            self._occupied[target] = True
            self._keys[target] = keys[i]
            self._values[target] = values[i]
            # Hook into the chain headed at the home slot.
            node = home
            while self._next[node] != _EMPTY:
                node = self._next[node]
            self._next[node] = target

    # -- reads -------------------------------------------------------------

    def get(self, key: int) -> int | None:
        if type(key) is not int:
            key = integral_key(key)
            if key is None:
                return None
        slot = self.hash_fn(key)
        self.probe_count += 1
        if not self._occupied[slot]:
            return None
        node = slot
        while True:
            if self._keys[node] == key:
                return int(self._values[node])
            node = int(self._next[node])
            if node == _EMPTY:
                return None
            self.probe_count += 1

    def __contains__(self, key: int) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        return self.size

    # -- accounting ------------------------------------------------------------

    @property
    def utilization(self) -> float:
        if self.num_slots == 0:
            return 0.0
        return int(self._occupied.sum()) / self.num_slots

    @property
    def conflict_fraction(self) -> float:
        """Keys displaced from their home slot in pass 1."""
        if self.size == 0:
            return 0.0
        return 1.0 - self.first_pass_hits / self.size

    def size_bytes(self) -> int:
        # record + 32-bit in-place offset per slot
        return self.num_slots * (RECORD_BYTES + 4)

    def __repr__(self) -> str:
        return (
            f"InPlaceChainedHashMap(slots={self.num_slots}, size={self.size}, "
            f"util={self.utilization:.1%}, "
            f"conflicts={self.conflict_fraction:.1%})"
        )
