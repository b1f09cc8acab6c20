"""Unit tests for the feature-engineered multivariate model."""

import numpy as np
import pytest

from repro.models import FEATURE_LIBRARY, MultivariateLinearModel


class TestFeatureLibrary:
    def test_expected_features_present(self):
        for name in ("key", "key^2", "log", "sqrt"):
            assert name in FEATURE_LIBRARY

    def test_transforms_are_finite_on_negatives(self):
        x = np.array([-10.0, 0.0, 10.0])
        for name, (transform, _cost) in FEATURE_LIBRARY.items():
            assert np.all(np.isfinite(transform(x))), name


class TestMultivariateLinearModel:
    def test_rejects_unknown_feature(self):
        with pytest.raises(ValueError, match="unknown features"):
            MultivariateLinearModel(features=("key", "wat"))

    def test_rejects_empty_features(self):
        with pytest.raises(ValueError):
            MultivariateLinearModel(features=())

    def test_fits_quadratic_exactly(self):
        keys = np.linspace(1, 100, 200)
        positions = 3.0 * keys**2 + 2.0 * keys + 1.0
        model = MultivariateLinearModel(features=("key", "key^2"))
        model.fit(keys, positions)
        errors = np.abs(model.predict_batch(keys) - positions)
        assert errors.max() < 1e-6 * positions.max()

    def test_log_feature_fits_lognormal_cdf_better_than_line(self):
        rng = np.random.default_rng(0)
        keys = np.sort(rng.lognormal(0, 2, size=3000))
        positions = np.arange(keys.size, dtype=np.float64)
        line = MultivariateLinearModel(features=("key",)).fit(keys, positions)
        loggy = MultivariateLinearModel(features=("key", "log")).fit(
            keys, positions
        )
        line_err = np.abs(line.predict_batch(keys) - positions).mean()
        log_err = np.abs(loggy.predict_batch(keys) - positions).mean()
        assert log_err < line_err * 0.5

    def test_scalar_matches_batch(self):
        rng = np.random.default_rng(1)
        keys = np.sort(rng.uniform(1, 1000, size=500))
        model = MultivariateLinearModel(features=("key", "log", "key^2"))
        model.fit(keys, np.arange(500.0))
        for q in [1.5, 10.0, 999.0, 5000.0]:
            assert model.predict(q) == pytest.approx(
                float(model.predict_batch(np.array([q]))[0]), rel=1e-9
            )

    def test_empty_fit(self):
        model = MultivariateLinearModel()
        model.fit(np.array([]), np.array([]))
        assert model.predict(1.0) == pytest.approx(0.0)

    def test_accounting(self):
        model = MultivariateLinearModel(features=("key", "log"))
        assert model.param_count == 7
        assert model.op_count() > 0
