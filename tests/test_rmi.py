"""Unit tests for the Recursive Model Index (Section 3.2)."""

import numpy as np
import pytest

from repro.core import HybridIndex, RecursiveModelIndex
from repro.models import (
    LinearModel,
    MultivariateLinearModel,
    NeuralRegressionModel,
)


def truth(keys, q):
    return int(np.searchsorted(keys, q, side="left"))


class TestConstruction:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            RecursiveModelIndex(np.array([2, 1]))

    def test_rejects_bad_stage_sizes(self):
        keys = np.arange(10)
        with pytest.raises(ValueError):
            RecursiveModelIndex(keys, stage_sizes=(2, 10))
        with pytest.raises(ValueError):
            RecursiveModelIndex(keys, stage_sizes=(1, 0))
        with pytest.raises(ValueError):
            RecursiveModelIndex(keys, stage_sizes=())
        with pytest.raises(ValueError):
            RecursiveModelIndex(keys, stage_sizes=(1,))

    @pytest.mark.parametrize(
        "keys", [np.arange(10), np.array([])], ids=["ten", "empty"]
    )
    def test_rejects_unknown_search_strategy(self, keys):
        """At construction, before any lookup — an empty index too."""
        with pytest.raises(ValueError, match="exponential"):
            RecursiveModelIndex(keys, search_strategy="bogus")
        with pytest.raises(ValueError, match="exponential"):
            HybridIndex(keys, search_strategy="bogus")

    def test_empty_keys(self):
        index = RecursiveModelIndex(np.array([], dtype=np.int64))
        assert index.lookup(1.0) == 0
        assert not index.contains(1.0)

    def test_single_key(self):
        index = RecursiveModelIndex(np.array([7], dtype=np.int64))
        assert index.lookup(6.0) == 0
        assert index.lookup(7.0) == 0
        assert index.lookup(8.0) == 1


class TestLookupCorrectness:
    @pytest.mark.parametrize("leaves", [1, 10, 100, 1000])
    def test_present_and_absent_keys(self, leaves, uniform_small, rng):
        index = RecursiveModelIndex(uniform_small, stage_sizes=(1, leaves))
        queries = np.concatenate(
            [
                rng.choice(uniform_small, 300),
                rng.integers(
                    uniform_small.min() - 10, uniform_small.max() + 10, 300
                ),
            ]
        )
        for q in queries:
            assert index.lookup(float(q)) == truth(uniform_small, q)

    @pytest.mark.parametrize(
        "dataset", ["maps_small", "weblogs_small", "lognormal_small"]
    )
    def test_on_paper_datasets(self, dataset, request, rng):
        keys = request.getfixturevalue(dataset)
        index = RecursiveModelIndex(keys, stage_sizes=(1, keys.size // 50))
        queries = np.concatenate(
            [rng.choice(keys, 300), rng.integers(keys.min(), keys.max(), 300)]
        )
        for q in queries:
            assert index.lookup(float(q)) == truth(keys, q)

    def test_perfectly_linear_data_zero_window(self):
        keys = np.arange(0, 100_000, 10, dtype=np.int64)
        index = RecursiveModelIndex(keys, stage_sizes=(1, 100))
        # a linear CDF collapses error to ~0 (the paper's O(1) example)
        assert index.mean_error_window <= 4
        assert index.lookup(float(keys[777])) == 777

    @pytest.mark.parametrize(
        "stage_sizes, root",
        [
            ((1, 10, 100), LinearModel),
            ((1, 4, 8, 64), LinearModel),
            ((1, 8, 64), lambda: NeuralRegressionModel(hidden=(8,), epochs=5)),
        ],
        ids=["1-10-100", "1-4-8-64", "nn_root-8-64"],
    )
    def test_three_stage_rmi(self, stage_sizes, root, lognormal_small, rng):
        """Deeper hierarchies compile: scalar and batch routing agree
        on every stored key, and both surfaces equal the oracle."""
        keys = lognormal_small
        index = RecursiveModelIndex(keys, stage_sizes=stage_sizes, root=root)
        leaf, _raw = index._plan.route(index._column.prepare(keys))
        scalar = [index._route_scalar(index._space.encode_scalar(k))
                  for k in keys.tolist()]
        np.testing.assert_array_equal(scalar, leaf)
        queries = np.concatenate([
            rng.choice(keys, 300),
            rng.integers(int(keys[0]) - 5, int(keys[-1]) + 5, 300),
        ])
        np.testing.assert_array_equal(
            index.lookup_batch(queries), np.searchsorted(keys, queries)
        )
        for q in queries[:300]:
            assert index.lookup(int(q)) == truth(keys, q)
        with pytest.raises(TypeError):
            index.compiled_state()

    @pytest.mark.parametrize(
        "strategy", ["binary", "biased_binary", "biased_quaternary", "exponential"]
    )
    def test_search_strategies_agree(self, strategy, lognormal_small, rng):
        index = RecursiveModelIndex(
            lognormal_small, stage_sizes=(1, 100), search_strategy=strategy
        )
        queries = np.concatenate(
            [
                rng.choice(lognormal_small, 200),
                rng.integers(
                    lognormal_small.min() - 5, lognormal_small.max() + 5, 200
                ),
            ]
        )
        for q in queries:
            assert index.lookup(float(q)) == truth(lognormal_small, q), strategy


class TestErrorBounds:
    def test_bounds_contain_every_stored_key(self, lognormal_small):
        index = RecursiveModelIndex(lognormal_small, stage_sizes=(1, 64))
        for i in range(0, lognormal_small.size, 37):
            q = float(lognormal_small[i])
            _est, lo, hi = index.predict(q)
            assert lo <= i < hi, (i, lo, hi)

    def test_window_shrinks_with_more_leaves(self, lognormal_small):
        wide = RecursiveModelIndex(lognormal_small, stage_sizes=(1, 10))
        narrow = RecursiveModelIndex(lognormal_small, stage_sizes=(1, 500))
        assert narrow.mean_error_window < wide.mean_error_window


class TestRangeInterface:
    def test_range_query_matches_reference(self, uniform_small, rng):
        index = RecursiveModelIndex(uniform_small, stage_sizes=(1, 100))
        for _ in range(30):
            lo, hi = sorted(rng.integers(0, uniform_small.max(), size=2))
            expected = uniform_small[
                (uniform_small >= lo) & (uniform_small <= hi)
            ]
            np.testing.assert_array_equal(index.range_query(lo, hi), expected)

    def test_range_query_empty(self, uniform_small):
        index = RecursiveModelIndex(uniform_small, stage_sizes=(1, 10))
        assert index.range_query(100, 50).size == 0

    def test_upper_bound(self):
        keys = np.array([10, 20, 30], dtype=np.int64)
        index = RecursiveModelIndex(keys, stage_sizes=(1, 2))
        assert index.upper_bound(20.0) == 2
        assert index.upper_bound(25.0) == 2

    def test_lookup_batch(self, uniform_small, rng):
        index = RecursiveModelIndex(uniform_small, stage_sizes=(1, 100))
        queries = rng.choice(uniform_small, 50)
        batch = index.lookup_batch(queries)
        expected = np.searchsorted(uniform_small, queries, side="left")
        np.testing.assert_array_equal(batch, expected)


class TestModelMixtures:
    def test_multivariate_root(self, lognormal_small, rng):
        index = RecursiveModelIndex(
            lognormal_small,
            stage_sizes=(1, 100),
            root=lambda: MultivariateLinearModel(features=("key", "log")),
        )
        for q in rng.choice(lognormal_small, 200):
            assert index.lookup(float(q)) == truth(lognormal_small, q)

    def test_nn_root(self, lognormal_small, rng):
        index = RecursiveModelIndex(
            lognormal_small,
            stage_sizes=(1, 100),
            root=lambda: NeuralRegressionModel(hidden=(8,), epochs=10),
        )
        for q in rng.choice(lognormal_small, 150):
            assert index.lookup(float(q)) == truth(lognormal_small, q)


class TestAccountingAndStats:
    def test_size_scales_with_leaves(self, uniform_small):
        small = RecursiveModelIndex(uniform_small, stage_sizes=(1, 10))
        large = RecursiveModelIndex(uniform_small, stage_sizes=(1, 1000))
        assert large.size_bytes() > 10 * small.size_bytes()

    def test_size_far_below_btree(self, maps_small):
        from repro.btree import BTreeIndex

        rmi = RecursiveModelIndex(maps_small, stage_sizes=(1, 50))
        btree = BTreeIndex(maps_small, page_size=128)
        assert rmi.size_bytes() < btree.size_bytes()

    def test_stats_tracking(self, uniform_small, rng):
        index = RecursiveModelIndex(uniform_small, stage_sizes=(1, 100))
        index.stats.reset()
        for q in rng.choice(uniform_small, 50):
            index.lookup(float(q))
        assert index.stats.lookups == 50
        assert index.stats.comparisons > 0
        assert index.stats.mean_window > 0

    def test_model_op_count_positive(self, uniform_small):
        index = RecursiveModelIndex(uniform_small, stage_sizes=(1, 10))
        assert index.model_op_count() >= 4

    @pytest.mark.parametrize("stage_sizes", [(1, 64), (1, 8, 64)])
    @pytest.mark.parametrize("shape", ["squared", "sqrt", "lognormal"])
    def test_model_op_count_ignores_empty_leaves(
        self, shape, stage_sizes, lognormal_small
    ):
        """Every lookup evaluates one affine model per stage below the
        root, whether or not the first model of a stage has keys — a
        skewed column (empty leaf 0) costs what a uniform one does."""
        n = 20_000
        keys = {
            "squared": np.arange(n, dtype=np.int64) ** 2,
            "sqrt": np.sqrt(np.arange(n) * 1e12).astype(np.int64),
            "lognormal": lognormal_small,
        }[shape]
        index = RecursiveModelIndex(keys, stage_sizes=stage_sizes)
        uniform = RecursiveModelIndex(
            np.arange(n, dtype=np.int64), stage_sizes=stage_sizes
        )
        assert index.model_op_count() == uniform.model_op_count()
        assert index.model_op_count() == 2 + 4 * (len(stage_sizes) - 1)

    @pytest.mark.parametrize(
        "keys",
        [
            np.arange(0, 60_000, 3, dtype=np.int64),
            np.arange(2_000, dtype=np.int64) ** 2,
            np.array([-3, -1, 0], dtype=np.int64),
            np.empty(0, dtype=np.int64),
        ],
        ids=["uniform", "squared", "fewer_keys_than_leaves", "empty"],
    )
    @pytest.mark.parametrize("stage_sizes", [(1, 64), (1, 8, 64)])
    def test_size_bytes_reads_the_tables(self, keys, stage_sizes):
        """The root's bytes, 16 B per trained model and 8 B per empty
        one at each stage below it, and the two offset tables as held."""
        index = RecursiveModelIndex(keys, stage_sizes=stage_sizes)
        # A linear root is two float64 parameters.
        expected = 16 + 2 * index._plan.lo_offsets.nbytes
        root_pred = index._root_model.predict_batch(index._space.encode(keys))
        # A stage's trained models are the slots stored keys route to.
        routed = [
            np.floor(root_pred * m_l / max(keys.size, 1)).clip(0, m_l - 1)
            for m_l, _slopes, _intercepts in index._internal_stages
        ] + [index._leaf_assignment]
        for m_l, assignment in zip(stage_sizes[1:], routed):
            occupied = np.unique(assignment).size
            expected += 16 * occupied + 8 * (m_l - occupied)
        assert index.size_bytes() == expected

    def test_repr(self, uniform_small):
        index = RecursiveModelIndex(uniform_small, stage_sizes=(1, 10))
        assert "RecursiveModelIndex" in repr(index)
