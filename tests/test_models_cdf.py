"""Unit tests for CDF targets and the per-model oracles (the empirical
CDF and ``error_stats``) the RMI's tables are checked against."""

import numpy as np
import pytest

from oracles import empirical_cdf, error_stats
from repro.models import positions_for_keys


class TestPositions:
    def test_basic(self):
        np.testing.assert_array_equal(positions_for_keys(4), [0, 1, 2, 3])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            positions_for_keys(-1)


class TestEmpiricalCdf:
    def test_bounds(self):
        keys = np.array([10, 20, 30])
        assert empirical_cdf(keys, np.array([5]))[0] == 0.0
        assert empirical_cdf(keys, np.array([35]))[0] == 1.0

    def test_right_continuity(self):
        keys = np.array([10, 20, 30])
        assert empirical_cdf(keys, np.array([20]))[0] == pytest.approx(2 / 3)

    def test_empty_keys(self):
        assert empirical_cdf(np.array([]), np.array([1.0]))[0] == 0.0

    def test_monotone(self):
        rng = np.random.default_rng(0)
        keys = np.sort(rng.normal(size=500))
        queries = np.linspace(-4, 4, 200)
        values = empirical_cdf(keys, queries)
        assert np.all(np.diff(values) >= 0)


class TestErrorStats:
    def test_signed_bounds(self):
        stats = error_stats(
            np.array([10.0, 12.0, 8.0]), np.array([10.0, 10.0, 10.0])
        )
        assert stats.min_error == -2
        assert stats.max_error == 2
        assert stats.window == 4

    def test_bounds_contain_truth(self):
        rng = np.random.default_rng(1)
        truth = rng.uniform(0, 100, size=50)
        noise = rng.normal(0, 3, size=50)
        predictions = truth + noise
        stats = error_stats(predictions, truth)
        # every truth within [pred - max_error, pred - min_error]
        assert np.all(truth >= predictions - stats.max_error)
        assert np.all(truth <= predictions - stats.min_error)

    def test_empty(self):
        stats = error_stats(np.array([]), np.array([]))
        assert stats.count == 0
        assert stats.window == 0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            error_stats(np.array([1.0]), np.array([1.0, 2.0]))
