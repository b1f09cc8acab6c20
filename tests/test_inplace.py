"""Unit tests for the in-place chained hash map (Appendix C)."""

import numpy as np
import pytest

from repro.core import LearnedHashFunction
from repro.hashmap import InPlaceChainedHashMap, RandomHashFunction


@pytest.fixture()
def kv(rng):
    keys = np.unique(rng.integers(0, 10**12, size=5_000))
    values = rng.integers(0, 10**9, size=keys.size)
    return keys, values


class TestBuildAndLookup:
    def test_full_utilization(self, kv):
        keys, values = kv
        hm = InPlaceChainedHashMap(
            keys, values, RandomHashFunction(keys.size, seed=2)
        )
        assert hm.utilization == 1.0

    def test_roundtrip(self, kv):
        keys, values = kv
        hm = InPlaceChainedHashMap(
            keys, values, RandomHashFunction(keys.size, seed=2)
        )
        for i in range(0, keys.size, 41):
            assert hm.get(int(keys[i])) == int(values[i])

    def test_missing_keys(self, kv):
        keys, values = kv
        hm = InPlaceChainedHashMap(
            keys, values, RandomHashFunction(keys.size, seed=2)
        )
        assert hm.get(int(keys.max()) + 1) is None
        assert hm.get(int(keys.min()) - 1) is None

    def test_extra_slots_allowed(self, kv):
        keys, values = kv
        hm = InPlaceChainedHashMap(
            keys,
            values,
            RandomHashFunction(int(keys.size * 1.25), seed=2),
            num_slots=int(keys.size * 1.25),
        )
        for i in range(0, keys.size, 97):
            assert hm.get(int(keys[i])) == int(values[i])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            InPlaceChainedHashMap(
                np.array([1, 1]), np.array([2, 3]), lambda k: 0, num_slots=4
            )

    def test_rejects_too_few_slots(self, kv):
        keys, values = kv
        with pytest.raises(ValueError):
            InPlaceChainedHashMap(keys, values, lambda k: 0, num_slots=10)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            InPlaceChainedHashMap(
                np.array([1, 2]), np.array([1]), lambda k: 0
            )


class TestHashQualityAffectsProbesNotSize:
    def test_size_independent_of_hash(self, maps_small):
        keys = maps_small
        values = np.arange(keys.size)
        learned = InPlaceChainedHashMap(
            keys,
            values,
            LearnedHashFunction(keys, keys.size, stage_sizes=(1, keys.size // 10)),
        )
        random_map = InPlaceChainedHashMap(
            keys, values, RandomHashFunction(keys.size, seed=1)
        )
        # Appendix C: "the quality of the learned hash function can only
        # make an impact on the performance not the size"
        assert learned.size_bytes() == random_map.size_bytes()

    def test_learned_hash_needs_fewer_probes(self, maps_small, rng):
        keys = maps_small
        values = np.arange(keys.size)
        learned = InPlaceChainedHashMap(
            keys,
            values,
            LearnedHashFunction(keys, keys.size, stage_sizes=(1, keys.size // 10)),
        )
        random_map = InPlaceChainedHashMap(
            keys, values, RandomHashFunction(keys.size, seed=1)
        )
        sample = rng.choice(keys, 2_000)

        def probes_per_hit(hash_map):
            before = hash_map.probe_count
            for key in sample.tolist():
                assert hash_map.get(key) is not None
            return (hash_map.probe_count - before) / sample.size

        assert probes_per_hit(learned) < probes_per_hit(random_map)

    def test_conflict_fraction_reported(self, kv):
        keys, values = kv
        hm = InPlaceChainedHashMap(
            keys, values, RandomHashFunction(keys.size, seed=2)
        )
        # random hashing: ~1/e of keys displaced in pass 1
        assert hm.conflict_fraction == pytest.approx(1 / np.e, abs=0.05)
