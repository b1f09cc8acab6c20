"""Unit tests for the linear regression model."""

import numpy as np
import pytest

from repro.models import LinearModel


class TestLinearModel:
    def test_exact_on_linear_data(self):
        keys = np.array([10.0, 20.0, 30.0, 40.0])
        positions = np.array([0.0, 1.0, 2.0, 3.0])
        model = LinearModel().fit(keys, positions)
        assert model.slope == pytest.approx(0.1)
        assert model.predict(25.0) == pytest.approx(1.5)

    def test_least_squares_matches_polyfit(self):
        rng = np.random.default_rng(0)
        keys = np.sort(rng.uniform(0, 100, size=200))
        positions = 2.0 * keys + rng.normal(0, 1, size=200)
        model = LinearModel().fit(keys, positions)
        slope, intercept = np.polyfit(keys, positions, 1)
        assert model.slope == pytest.approx(slope)
        assert model.intercept == pytest.approx(intercept)

    def test_single_point(self):
        model = LinearModel().fit(np.array([5.0]), np.array([42.0]))
        assert model.slope == 0.0
        assert model.predict(999.0) == 42.0

    def test_empty(self):
        model = LinearModel().fit(np.array([]), np.array([]))
        assert model.predict(1.0) == 0.0

    def test_duplicate_keys(self):
        model = LinearModel().fit(
            np.array([7.0, 7.0, 7.0]), np.array([1.0, 2.0, 3.0])
        )
        assert model.slope == 0.0
        assert model.predict(7.0) == pytest.approx(2.0)

    def test_batch_matches_scalar(self):
        model = LinearModel(slope=1.5, intercept=-2.0)
        keys = np.array([0.0, 1.0, 2.5])
        batch = model.predict_batch(keys)
        for k, expected in zip(keys, batch):
            assert model.predict(float(k)) == pytest.approx(expected)

    def test_monotonicity_flag(self):
        assert LinearModel(slope=0.5).is_monotonic()
        assert not LinearModel(slope=-0.5).is_monotonic()

    def test_fit_endpoints_zero_error_at_ends(self):
        keys = np.array([0.0, 3.0, 50.0, 100.0])
        positions = np.array([0.0, 1.0, 2.0, 3.0])
        model = LinearModel().fit_endpoints(keys, positions)
        assert model.predict(0.0) == pytest.approx(0.0)
        assert model.predict(100.0) == pytest.approx(3.0)

    def test_accounting(self):
        model = LinearModel()
        assert model.param_count == 2
        assert model.size_bytes() == 16
        assert model.op_count() == 2
