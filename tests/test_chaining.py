"""Unit tests for the separate-chaining hash map (Appendix B)."""

import numpy as np
import pytest

from repro.core import LearnedHashFunction
from repro.hashmap import (
    RECORD_BYTES,
    SLOT_BYTES,
    BucketizedCuckooHashMap,
    ChainingHashMap,
    GenericCuckooHashMap,
    InPlaceChainedHashMap,
    RandomHashFunction,
)


@pytest.fixture()
def kv(rng):
    keys = np.unique(rng.integers(0, 10**12, size=5_000))
    values = rng.integers(0, 10**9, size=keys.size)
    return keys, values


class TestBasicOperations:
    def test_roundtrip(self, kv):
        keys, values = kv
        hm = ChainingHashMap(keys.size, RandomHashFunction(keys.size, seed=1))
        hm.insert_batch(keys, values)
        assert len(hm) == keys.size
        for i in range(0, keys.size, 53):
            assert hm.get(int(keys[i])) == int(values[i])

    def test_missing_key(self, kv):
        keys, values = kv
        hm = ChainingHashMap(keys.size, RandomHashFunction(keys.size, seed=1))
        hm.insert_batch(keys, values)
        absent = int(keys.max()) + 17
        assert hm.get(absent) is None
        assert absent not in hm

    def test_overwrite(self):
        hm = ChainingHashMap(16, RandomHashFunction(16, seed=1))
        hm.insert(5, 100)
        hm.insert(5, 200)
        assert hm.get(5) == 200
        assert len(hm) == 1

    def test_overwrite_in_chain(self):
        # Force a chain by hashing everything to slot 0.
        hm = ChainingHashMap(8, lambda key: 0)
        hm.insert(1, 10)
        hm.insert(2, 20)
        hm.insert(3, 30)
        hm.insert(2, 99)
        assert hm.get(2) == 99
        assert len(hm) == 3

    def test_rejects_bad_slots(self):
        with pytest.raises(ValueError):
            ChainingHashMap(0, lambda key: 0)

    def test_mismatched_batch(self):
        hm = ChainingHashMap(4, lambda key: 0)
        with pytest.raises(ValueError):
            hm.insert_batch(np.array([1, 2]), np.array([1]))


class TestStorageAccounting:
    def test_slot_constants_match_paper(self):
        assert RECORD_BYTES == 20
        assert SLOT_BYTES == 24

    def test_empty_slot_bytes(self):
        hm = ChainingHashMap(10, lambda key: int(key) % 10)
        hm.insert(0, 1)
        hm.insert(1, 2)
        assert hm.empty_slots == 8
        assert hm.empty_slot_bytes() == 8 * SLOT_BYTES

    def test_size_includes_overflow(self):
        hm = ChainingHashMap(4, lambda key: 0)
        for k in range(4):
            hm.insert(k, k)
        assert hm.overflow_records() == 3
        assert hm.size_bytes() == 4 * SLOT_BYTES + 3 * SLOT_BYTES


class TestLearnedVersusRandom:
    def test_learned_hash_wastes_fewer_slots(self, maps_small):
        """Appendix B / Figure 11: model hash reduces empty-slot waste."""
        keys = maps_small
        values = np.arange(keys.size)
        learned = ChainingHashMap(
            keys.size,
            LearnedHashFunction(keys, keys.size, stage_sizes=(1, keys.size // 10)),
        )
        learned.insert_batch(keys, values)
        random_map = ChainingHashMap(
            keys.size, RandomHashFunction(keys.size, seed=3)
        )
        random_map.insert_batch(keys, values)
        assert learned.empty_slot_bytes() < 0.5 * random_map.empty_slot_bytes()
        # and both must still round-trip correctly
        for i in range(0, keys.size, 997):
            assert learned.get(int(keys[i])) == i
            assert random_map.get(int(keys[i])) == i

    def test_probe_counting(self, kv):
        keys, values = kv
        hm = ChainingHashMap(keys.size, RandomHashFunction(keys.size, seed=1))
        hm.insert_batch(keys, values)
        before = hm.probe_count
        hm.get(int(keys[0]))
        assert hm.probe_count > before


# -- every map against a dict: keys are never truncated ---------------------

def _build_map(kind: str, reference: dict):
    keys = np.array(list(reference), dtype=np.int64)
    values = np.array(list(reference.values()), dtype=np.int64)
    if kind == "inplace":
        return InPlaceChainedHashMap(
            keys, values, RandomHashFunction(keys.size, seed=3)
        )
    hash_map = {
        "chaining": lambda: ChainingHashMap(
            256, RandomHashFunction(256, seed=3)
        ),
        "bucketized_cuckoo": lambda: BucketizedCuckooHashMap(512),
        "generic_cuckoo": lambda: GenericCuckooHashMap(512),
    }[kind]()
    for key, value in zip(keys.tolist(), values.tolist()):
        hash_map.insert(key, value)
    return hash_map


NOT_KEYS = (2.5, -0.5, 398.5, float("nan"), float("inf"), np.float64(6.5), "4")


@pytest.mark.parametrize(
    "kind", ["chaining", "bucketized_cuckoo", "generic_cuckoo", "inplace"]
)
def test_non_integral_keys_match_a_dict(kind):
    """Every map reads like a dict: ``2.0`` is the key 2, but ``2.5``,
    NaN, an infinity or ``"4"`` is no key at all (not a truncated
    stored key), and writing one is a ``TypeError`` that changes
    nothing."""
    reference = {k: 10 * k + 1 for k in range(0, 400, 2)}
    hash_map = _build_map(kind, reference)
    if kind == "inplace":
        with pytest.raises(TypeError):
            InPlaceChainedHashMap(
                np.array([0.0, 2.5]), np.array([1, 2]), RandomHashFunction(2)
            )
    else:
        for key in NOT_KEYS:
            with pytest.raises(TypeError):
                hash_map.insert(key, 99)
        hash_map.insert(8.0, 7)
        reference[8.0] = 7
        hash_map.insert(np.float32(401.0), 5)
        reference[401] = 5
        assert len(hash_map) == len(reference)
    probes = [2, 2.0, np.float64(4.0), np.int64(6), 8, 401, 401.0, 1, 3]
    for q in probes + list(NOT_KEYS) + [-float("inf")]:
        assert hash_map.get(q) == reference.get(q), q
        assert (q in hash_map) == (q in reference), q


def test_bulk_insert_refuses_non_integral_keys():
    hash_map = ChainingHashMap(16, RandomHashFunction(16))
    with pytest.raises(TypeError):
        hash_map.insert_batch(np.array([1.0, 2.5]), np.array([1, 2]))
    assert len(hash_map) == 0
    hash_map.insert_batch(np.array([1.0, 2.0]), np.array([1, 2]))
    assert (hash_map.get(1), hash_map.get(2.0), len(hash_map)) == (1, 2, 2)
