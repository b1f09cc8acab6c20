"""Unit tests for learned hash functions (Section 4)."""

import numpy as np
import pytest

from repro.core import LearnedHashFunction, conflict_stats
from repro.hashmap import RandomHashFunction


class TestLearnedHashFunction:
    def test_slots_in_range(self, lognormal_small):
        n = lognormal_small.size
        h = LearnedHashFunction(lognormal_small, n, stage_sizes=(1, 64))
        slots = h.hash_batch(lognormal_small)
        assert slots.min() >= 0
        assert slots.max() < n

    def test_scalar_matches_batch(self, lognormal_small):
        n = lognormal_small.size
        h = LearnedHashFunction(lognormal_small, n, stage_sizes=(1, 64))
        batch = h.hash_batch(lognormal_small[:200])
        for key, expected in zip(lognormal_small[:200], batch):
            assert h(float(key)) == int(expected)

    def test_out_of_distribution_keys_clamped(self, lognormal_small):
        n = lognormal_small.size
        h = LearnedHashFunction(lognormal_small, n, stage_sizes=(1, 64))
        assert 0 <= h(-1e15) < n
        assert 0 <= h(1e15) < n

    def test_rejects_bad_slots(self, lognormal_small):
        with pytest.raises(ValueError):
            LearnedHashFunction(lognormal_small, 0)

    def test_perfect_cdf_data_near_zero_conflicts(self):
        keys = np.arange(0, 50_000, 5, dtype=np.int64)
        h = LearnedHashFunction(keys, keys.size, stage_sizes=(1, 16))
        stats = conflict_stats(h, keys, keys.size)
        assert stats.conflict_rate < 0.01

    def test_size_accounting(self, lognormal_small):
        small = LearnedHashFunction(
            lognormal_small, lognormal_small.size, stage_sizes=(1, 8)
        )
        big = LearnedHashFunction(
            lognormal_small, lognormal_small.size, stage_sizes=(1, 512)
        )
        assert big.size_bytes() > small.size_bytes()

    def test_single_linear_leaf_hash(self):
        """The Section 4.1 minimal variant: one linear model."""
        keys = np.arange(1000, dtype=np.int64) * 3
        h = LearnedHashFunction(keys, 1000, stage_sizes=(1, 1))
        stats = conflict_stats(h, keys, 1000)
        assert stats.conflict_rate < 0.01


class TestConflictStats:
    def test_random_hash_near_birthday_bound(self):
        rng = np.random.default_rng(5)
        keys = np.unique(rng.integers(0, 10**12, size=50_000))
        h = RandomHashFunction(keys.size, seed=3)
        stats = conflict_stats(h, keys, keys.size)
        # n balls in n bins: conflicting keys -> 1/e of keys
        assert stats.conflict_rate == pytest.approx(1 / np.e, abs=0.02)

    def test_learned_beats_random_on_paper_datasets(
        self, maps_small, weblogs_small, lognormal_small
    ):
        reductions = {}
        for name, keys in [
            ("maps", maps_small),
            ("weblogs", weblogs_small),
            ("lognormal", lognormal_small),
        ]:
            n = keys.size
            random_stats = conflict_stats(
                RandomHashFunction(n, seed=7), keys, n
            )
            learned_stats = conflict_stats(
                LearnedHashFunction(keys, n, stage_sizes=(1, max(n // 10, 4))),
                keys,
                n,
            )
            reductions[name] = (
                1 - learned_stats.conflict_rate / random_stats.conflict_rate
            )
        # Figure 8 ordering: maps >> weblogs ~ lognormal > 0
        assert reductions["maps"] > 0.5
        assert reductions["weblogs"] > 0.1
        assert reductions["lognormal"] > 0.1
        assert reductions["maps"] > reductions["weblogs"]

    def test_rejects_out_of_range_hash(self):
        keys = np.arange(10, dtype=np.int64)
        with pytest.raises(ValueError):
            conflict_stats(lambda _k: 99, keys, 10)

    def test_counts(self):
        keys = np.array([1, 2, 3, 4], dtype=np.int64)
        stats = conflict_stats(lambda k: 0, keys, 4)
        assert stats.conflicting_keys == 3
        assert stats.empty_slots == 3
        assert stats.max_chain == 4

    def test_empty_keys(self):
        stats = conflict_stats(lambda k: 0, np.array([]), 4)
        assert stats.conflict_rate == 0.0
