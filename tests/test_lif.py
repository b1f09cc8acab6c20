"""Unit tests for the LIF grid-search synthesis (Section 3.1)."""

import numpy as np
import pytest

from repro.core import RMIConfig, default_grid, evaluate_config, synthesize
from repro.core.config import root_factory
from repro.models import LinearModel


class TestRootFactory:
    def test_linear(self):
        assert isinstance(root_factory("linear")(), LinearModel)

    def test_nn_zero_hidden_is_linear(self):
        assert isinstance(root_factory("nn", hidden=())(), LinearModel)

    def test_nn_with_hidden(self):
        model = root_factory("nn", hidden=(4,), epochs=1)()
        assert model.net.hidden == (4,)

    def test_multivariate(self):
        model = root_factory("multivariate", features=("key", "log"))()
        assert model.features == ("key", "log")

    def test_unknown(self):
        with pytest.raises(ValueError):
            root_factory("quantum")


class TestRMIConfig:
    def test_describe(self):
        assert "linear" in RMIConfig().describe()
        nn = RMIConfig(root_kind="nn", root_hidden=(8, 8), num_leaves=10)
        assert "nn8x8" in nn.describe()

    def test_root_factory_carries_the_grid_point(self):
        assert RMIConfig().root_factory() is LinearModel
        config = RMIConfig(root_kind="nn", root_hidden=(4,), epochs=1)
        assert config.root_factory()().net.hidden == (4,)


class TestDefaultGrid:
    def test_scales_leaf_counts(self):
        grid = default_grid(100_000, include_nn=False)
        leaf_counts = {c.num_leaves for c in grid}
        assert len(leaf_counts) >= 2
        assert max(leaf_counts) <= 100_000

    def test_includes_nn_when_asked(self):
        grid = default_grid(10_000, include_nn=True)
        assert any(c.root_kind == "nn" for c in grid)

    def test_explicit_leaf_counts(self):
        grid = default_grid(1_000, leaf_counts=(4, 8), include_nn=False)
        assert {c.num_leaves for c in grid} == {4, 8}


class TestEvaluateAndSynthesize:
    def test_evaluate_config(self, uniform_small):
        index, result = evaluate_config(
            uniform_small, RMIConfig(num_leaves=32), query_sample=200
        )
        assert result.lookup_ns > 0
        assert result.size_bytes == index.size_bytes()
        assert result.build_seconds > 0

    def test_synthesize_picks_valid_winner(self, lognormal_small):
        grid = [
            RMIConfig(num_leaves=8),
            RMIConfig(num_leaves=64),
            RMIConfig(
                root_kind="multivariate",
                root_features=("key", "log"),
                num_leaves=64,
            ),
        ]
        index, best, results = synthesize(
            lognormal_small, grid=grid, query_sample=200
        )
        assert len(results) == len(grid)
        assert best.lookup_ns == min(r.lookup_ns for r in results)
        q = float(lognormal_small[123])
        assert index.lookup(q) == 123

    def test_size_budget_filters(self, uniform_small):
        grid = [RMIConfig(num_leaves=8), RMIConfig(num_leaves=2000)]
        _index, best, _results = synthesize(
            uniform_small, grid=grid, size_budget_bytes=2_000, query_sample=100
        )
        assert best.size_bytes <= 2_000

    def test_impossible_budget_raises(self, uniform_small):
        with pytest.raises(ValueError, match="size budget"):
            synthesize(
                uniform_small,
                grid=[RMIConfig(num_leaves=2000)],
                size_budget_bytes=10,
                query_sample=50,
            )

    def test_train_sample_path(self, uniform_small):
        index, best, _ = synthesize(
            uniform_small,
            grid=[RMIConfig(num_leaves=16)],
            train_sample=1_000,
            query_sample=100,
        )
        # winner must be retrained on the full keys
        assert index.keys.size == uniform_small.size
        probe = float(uniform_small[42])
        assert index.lookup(probe) == 42

    def test_empty_grid(self, uniform_small):
        with pytest.raises(ValueError):
            synthesize(uniform_small, grid=[])
