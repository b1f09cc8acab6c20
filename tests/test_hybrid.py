"""Unit tests for hybrid indexes (Algorithm 1, Section 3.3)."""

import numpy as np
import pytest

from repro.core import HybridIndex, RecursiveModelIndex
from repro.data import clustered_keys


def truth(keys, q):
    return int(np.searchsorted(keys, q, side="left"))


@pytest.fixture(scope="module")
def adversarial_keys():
    return clustered_keys(20_000, clusters=10, spread=0.0005, seed=21)


class TestReplacement:
    def test_threshold_controls_replacement(self, adversarial_keys):
        strict = HybridIndex(adversarial_keys, stage_sizes=(1, 100), threshold=8)
        loose = HybridIndex(
            adversarial_keys, stage_sizes=(1, 100), threshold=10_000
        )
        assert strict.replaced_leaf_count > loose.replaced_leaf_count

    def test_huge_threshold_replaces_nothing(self, uniform_small):
        hybrid = HybridIndex(
            uniform_small, stage_sizes=(1, 100), threshold=10**9
        )
        assert hybrid.replaced_leaf_count == 0

    def test_zero_threshold_replaces_all_imperfect_leaves(
        self, adversarial_keys
    ):
        hybrid = HybridIndex(adversarial_keys, stage_sizes=(1, 50), threshold=0)
        # every leaf with any error at all becomes a B-Tree
        plan = hybrid._plan
        errors = np.maximum(
            np.abs(plan.lo_offsets.astype(np.int64)),
            np.abs(plan.hi_offsets.astype(np.int64)),
        )
        imperfect = (hybrid._stage_counts[-1] > 0) & (errors > 0)
        assert hybrid.replaced_leaf_count == np.count_nonzero(imperfect)

    def test_rejects_negative_threshold(self, uniform_small):
        with pytest.raises(ValueError):
            HybridIndex(uniform_small, threshold=-1)


class TestLookupCorrectness:
    @pytest.mark.parametrize("threshold", [0, 32, 128, 10**9])
    def test_present_and_absent(self, threshold, adversarial_keys, rng):
        hybrid = HybridIndex(
            adversarial_keys, stage_sizes=(1, 200), threshold=threshold
        )
        queries = np.concatenate(
            [
                rng.choice(adversarial_keys, 250),
                rng.integers(
                    adversarial_keys.min() - 5,
                    adversarial_keys.max() + 5,
                    250,
                ),
            ]
        )
        for q in queries:
            assert hybrid.lookup(float(q)) == truth(adversarial_keys, q)

    def test_matches_pure_rmi_semantics(self, lognormal_small, rng):
        rmi = RecursiveModelIndex(lognormal_small, stage_sizes=(1, 100))
        hybrid = HybridIndex(
            lognormal_small, stage_sizes=(1, 100), threshold=16
        )
        for q in rng.choice(lognormal_small, 200):
            assert rmi.lookup(float(q)) == hybrid.lookup(float(q))


class TestSmallBatch:
    """An 8-key batch is answered before any routing; ``sort=False``
    still takes the engine path, identically — over replaced leaves
    too, whose stored windows the engine searches and verifies."""

    @pytest.mark.parametrize("threshold", [0, 10**9])  # all B-Tree / all modelled
    def test_eight_keys_are_not_routed(
        self, threshold, adversarial_keys, rng, dispatch_as_shipped,
        engine_counts,
    ):
        hybrid = HybridIndex(
            adversarial_keys, stage_sizes=(1, 50), threshold=threshold
        )
        assert bool(hybrid.leaf_btrees) == (threshold == 0)
        queries = np.concatenate(
            [
                rng.choice(adversarial_keys, 4),
                rng.integers(
                    adversarial_keys.min() - 5, adversarial_keys.max() + 5, 4
                ),
            ]
        )
        expected = np.searchsorted(adversarial_keys, queries, side="left")
        np.testing.assert_array_equal(hybrid.lookup_batch(queries), expected)
        # no lane was routed or searched
        assert engine_counts("column_keys") == 8
        np.testing.assert_array_equal(
            hybrid.lookup_batch(queries, sort=False), expected
        )
        assert engine_counts("keys") == 16
        assert engine_counts("column_keys") == 8


class TestWorstCaseBound:
    def test_hybrid_bounds_bad_leaf_cost(self, adversarial_keys, rng):
        """Section 3.3: hybrids bound worst-case lookups to B-Tree cost."""
        hybrid = HybridIndex(
            adversarial_keys, stage_sizes=(1, 100), threshold=64
        )
        assert hybrid.replaced_leaf_count > 0
        # hybrid replaces exactly the leaves whose window explodes
        plan = hybrid._plan
        windows = plan.lo_offsets.astype(np.int64) - plan.hi_offsets
        remaining = [
            windows[j]
            for j in np.flatnonzero(hybrid._stage_counts[-1])
            if j not in hybrid.leaf_btrees
        ]
        if remaining:
            assert max(remaining) <= 2 * 64 + 2


class TestAccounting:
    def test_size_includes_leaf_btrees(self, adversarial_keys):
        no_btrees = HybridIndex(
            adversarial_keys, stage_sizes=(1, 100), threshold=10**9
        )
        with_btrees = HybridIndex(
            adversarial_keys, stage_sizes=(1, 100), threshold=8
        )
        assert with_btrees.size_bytes() > no_btrees.size_bytes()

    def test_repr(self, uniform_small):
        hybrid = HybridIndex(uniform_small, stage_sizes=(1, 10))
        assert "HybridIndex" in repr(hybrid)
