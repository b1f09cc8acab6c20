"""Cuckoo hash maps (Appendix C baselines).

Two variants, matching the paper's Table 1:

* :class:`BucketizedCuckooHashMap` — the "AVX Cuckoo Hash-map": two
  hash functions, 4-slot buckets probed with a vectorized compare (the
  numpy stand-in for an AVX packed compare), achieving ~99%
  utilization;
* :class:`GenericCuckooHashMap` — the "commercial" variant: handles
  every corner case (duplicate inserts, growth on failure, stash for
  pathological cycles) at the cost of a slower, more general code
  path, mirroring the paper's observation that the corner-case-complete
  implementation is about 2x slower.

Both store the paper's 20-byte records (key, payload, metadata) or
12-byte records (key + 32-bit value) for the Table 1 payload ablation.
"""

from __future__ import annotations

import numpy as np

from .chaining import integral_key, write_key
from .hashing import murmur_fmix64

__all__ = ["BucketizedCuckooHashMap", "GenericCuckooHashMap"]

_EMPTY = np.int64(-(2**62))  # sentinel outside every dataset's key range

#: Displacements an insert tries before it reports the table full.
MAX_KICKS = 500


class BucketizedCuckooHashMap:
    """2-hash bucketized cuckoo map with vectorized (AVX-style) probes.

    Eight-slot buckets by default: the (2-choice, 8-slot) cuckoo load
    threshold is ~99.8%, which is what lets the paper's AVX variant run
    at 99% utilization (4-slot buckets cap out near 97.7%).
    """

    BUCKET_SLOTS = 8

    def __init__(
        self,
        capacity: int,
        *,
        bucket_slots: int | None = None,
        value_bytes: int = 12,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if bucket_slots is not None:
            if bucket_slots < 1:
                raise ValueError("bucket_slots must be >= 1")
            self.BUCKET_SLOTS = int(bucket_slots)
        buckets = max(1, int(np.ceil(capacity / self.BUCKET_SLOTS)))
        self.num_buckets = buckets
        self.value_bytes = int(value_bytes)
        self._keys = np.full((buckets, self.BUCKET_SLOTS), _EMPTY, dtype=np.int64)
        self._values = np.zeros((buckets, self.BUCKET_SLOTS), dtype=np.int64)
        # Flat native mirrors for the probe path: a bucket probe is one
        # slice scan, the Python analogue of a single AVX register
        # compare (numpy per-call overhead would swamp it).
        flat = buckets * self.BUCKET_SLOTS
        self._keys_flat: list[int] = [int(_EMPTY)] * flat
        self._values_flat: list[int] = [0] * flat
        self.size = 0
        self.probe_count = 0

    # -- hashing -------------------------------------------------------------

    def _bucket1(self, key: int) -> int:
        return murmur_fmix64(key, 0) % self.num_buckets

    def _bucket2(self, key: int) -> int:
        return murmur_fmix64(key, 1) % self.num_buckets

    # -- writes ----------------------------------------------------------------

    def insert(self, key: int, value: int) -> bool:
        """Insert; returns False when the kick chain exceeds MAX_KICKS."""
        key = write_key(key)
        b1 = self._bucket1(key)
        if self._try_update(b1, key, value):
            return True
        b2 = self._bucket2(key)
        if self._try_update(b2, key, value):
            return True
        if self._try_place(b1, key, value) or self._try_place(b2, key, value):
            self.size += 1
            return True
        # Kick loop: evict a random victim and relocate it.
        rng = np.random.default_rng(key & 0xFFFF)
        bucket = b1
        for _ in range(MAX_KICKS):
            victim_slot = int(rng.integers(0, self.BUCKET_SLOTS))
            victim_key = int(self._keys[bucket, victim_slot])
            victim_value = int(self._values[bucket, victim_slot])
            self._set(bucket, victim_slot, key, value)
            key, value = victim_key, victim_value
            alt1, alt2 = self._bucket1(key), self._bucket2(key)
            bucket = alt2 if bucket == alt1 else alt1
            if self._try_place(bucket, key, value):
                self.size += 1
                return True
        return False

    def _set(self, bucket: int, slot: int, key: int, value: int) -> None:
        self._keys[bucket, slot] = key
        self._values[bucket, slot] = value
        flat = bucket * self.BUCKET_SLOTS + slot
        self._keys_flat[flat] = key
        self._values_flat[flat] = value

    def _try_update(self, bucket: int, key: int, value: int) -> bool:
        row = self._keys[bucket]
        match = np.nonzero(row == key)[0]
        if match.size:
            self._set(bucket, int(match[0]), key, value)
            return True
        return False

    def _try_place(self, bucket: int, key: int, value: int) -> bool:
        row = self._keys[bucket]
        free = np.nonzero(row == _EMPTY)[0]
        if free.size:
            self._set(bucket, int(free[0]), key, value)
            return True
        return False

    # -- reads -------------------------------------------------------------------

    def get(self, key: int) -> int | None:
        """Probe both buckets; each probe scans one bucket in a single
        pass (the AVX packed-compare analogue)."""
        if type(key) is not int:
            key = integral_key(key)
            if key is None:
                return None
        width = self.BUCKET_SLOTS
        keys_flat = self._keys_flat
        b1 = self._bucket1(key)
        self.probe_count += 1
        start = b1 * width
        row = keys_flat[start:start + width]
        if key in row:
            return self._values_flat[start + row.index(key)]
        b2 = self._bucket2(key)
        self.probe_count += 1
        start = b2 * width
        row = keys_flat[start:start + width]
        if key in row:
            return self._values_flat[start + row.index(key)]
        return None

    def __contains__(self, key: int) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        return self.size

    # -- accounting ------------------------------------------------------------------

    @property
    def utilization(self) -> float:
        slots = self.num_buckets * self.BUCKET_SLOTS
        return self.size / slots if slots else 0.0

    def size_bytes(self) -> int:
        slot_bytes = 8 + self.value_bytes  # key + payload(+meta)
        return self.num_buckets * self.BUCKET_SLOTS * slot_bytes

    def __repr__(self) -> str:
        return (
            f"BucketizedCuckooHashMap(buckets={self.num_buckets}, "
            f"size={self.size}, util={self.utilization:.1%})"
        )


class GenericCuckooHashMap:
    """Corner-case-complete cuckoo map (the "commercial" baseline).

    Four-slot buckets (the libcuckoo-style layout, load threshold
    ~97.7%, run at the paper's 95%), two hash functions, a bounded
    stash for cycle escape, and automatic growth when the stash
    overflows.  Probing loops slot-by-slot with defensive validation —
    the generality the paper blames for the ~2x slowdown over the
    tuned AVX variant.
    """

    BUCKET_SLOTS = 4

    def __init__(
        self,
        capacity: int,
        *,
        target_utilization: float = 0.95,
        value_bytes: int = 12,
        stash_size: int = 64,
        seed: int = 0,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if not 0.0 < target_utilization <= 0.97:
            raise ValueError("target_utilization must be in (0, 0.97]")
        self.value_bytes = int(value_bytes)
        self.stash_size = int(stash_size)
        self.seed = int(seed)
        buckets = max(
            2,
            int(np.ceil(capacity / (self.BUCKET_SLOTS * target_utilization))),
        )
        self._allocate(buckets)
        self.size = 0
        self.probe_count = 0

    def _allocate(self, buckets: int) -> None:
        self.num_buckets = int(buckets)
        shape = (self.num_buckets, self.BUCKET_SLOTS)
        self._keys = np.full(shape, _EMPTY, dtype=np.int64)
        self._values = np.zeros(shape, dtype=np.int64)
        self._stash: dict[int, int] = {}

    def _bucket1(self, key: int) -> int:
        return murmur_fmix64(key, self.seed) % self.num_buckets

    def _bucket2(self, key: int) -> int:
        return murmur_fmix64(key, self.seed + 1) % self.num_buckets

    def _find_in_bucket(self, bucket: int, key: int) -> int | None:
        """Slot index of ``key`` in ``bucket``, scanning slot by slot."""
        row = self._keys[bucket]
        for slot in range(self.BUCKET_SLOTS):
            if row[slot] == key:
                return slot
        return None

    def _free_slot(self, bucket: int) -> int | None:
        row = self._keys[bucket]
        for slot in range(self.BUCKET_SLOTS):
            if row[slot] == _EMPTY:
                return slot
        return None

    def insert(self, key: int, value: int) -> bool:
        key = write_key(key)
        value = int(value)
        if key == _EMPTY:
            raise ValueError("key collides with the empty sentinel")
        b1, b2 = self._bucket1(key), self._bucket2(key)
        for bucket in (b1, b2):
            slot = self._find_in_bucket(bucket, key)
            if slot is not None:
                self._values[bucket, slot] = value
                return True
        if key in self._stash:
            self._stash[key] = value
            return True
        for bucket in (b1, b2):
            slot = self._free_slot(bucket)
            if slot is not None:
                self._keys[bucket, slot] = key
                self._values[bucket, slot] = value
                self.size += 1
                return True
        # Kick chain with a deterministic-but-varied victim pick.
        rng = np.random.default_rng(key & 0xFFFFF)
        current_key, current_value, bucket = key, value, b1
        for _ in range(MAX_KICKS):
            victim_slot = int(rng.integers(0, self.BUCKET_SLOTS))
            victim_key = int(self._keys[bucket, victim_slot])
            victim_value = int(self._values[bucket, victim_slot])
            self._keys[bucket, victim_slot] = current_key
            self._values[bucket, victim_slot] = current_value
            current_key, current_value = victim_key, victim_value
            alt1 = self._bucket1(current_key)
            alt2 = self._bucket2(current_key)
            bucket = alt2 if bucket == alt1 else alt1
            slot = self._free_slot(bucket)
            if slot is not None:
                self._keys[bucket, slot] = current_key
                self._values[bucket, slot] = current_value
                self.size += 1
                return True
        # Stash, then grow when the stash fills up.
        if len(self._stash) < self.stash_size:
            self._stash[current_key] = current_value
            self.size += 1
            return True
        self._grow()
        return self.insert(current_key, current_value)

    def _grow(self) -> None:
        old_keys = self._keys
        old_values = self._values
        old_stash = dict(self._stash)
        self._allocate(self.num_buckets * 2)
        self.size = 0
        for bucket in range(old_keys.shape[0]):
            for slot in range(self.BUCKET_SLOTS):
                key = int(old_keys[bucket, slot])
                if key != _EMPTY:
                    self.insert(key, int(old_values[bucket, slot]))
        for key, value in old_stash.items():
            self.insert(key, value)

    def get(self, key: int) -> int | None:
        if type(key) is not int:
            key = integral_key(key)
            if key is None:
                return None
        for bucket in (self._bucket1(key), self._bucket2(key)):
            self.probe_count += 1
            slot = self._find_in_bucket(bucket, key)
            if slot is not None:
                return int(self._values[bucket, slot])
        if self._stash:
            return self._stash.get(key)
        return None

    def __contains__(self, key: int) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        return self.size

    @property
    def utilization(self) -> float:
        slots = self.num_buckets * self.BUCKET_SLOTS
        return self.size / slots if slots else 0.0

    def size_bytes(self) -> int:
        slot_bytes = 8 + self.value_bytes
        slots = self.num_buckets * self.BUCKET_SLOTS
        return slots * slot_bytes + len(self._stash) * slot_bytes

    def __repr__(self) -> str:
        return (
            f"GenericCuckooHashMap(buckets={self.num_buckets}, "
            f"size={self.size}, util={self.utilization:.1%}, "
            f"stash={len(self._stash)})"
        )
