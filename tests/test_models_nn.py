"""Unit tests for the MLP framework and its RMI adapter."""

import numpy as np
import pytest

from oracles import mlp_finite_difference_gradients
from repro.models import MLP, FrameworkModel, NeuralRegressionModel
from repro.models.nn import train_adam


class TestMLPConstruction:
    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            MLP(0)
        with pytest.raises(ValueError):
            MLP(1, hidden=(0,))

    def test_zero_hidden_is_linear(self):
        net = MLP(1, hidden=())
        assert len(net.weights) == 1
        assert net.param_count == 2  # 1 weight + 1 bias

    def test_param_count(self):
        net = MLP(1, hidden=(32, 32))
        expected = 1 * 32 + 32 + 32 * 32 + 32 + 32 * 1 + 1
        assert net.param_count == expected


class TestMLPGradients:
    @pytest.mark.parametrize("hidden", [(), (5,), (4, 3)])
    def test_regression_backprop_matches_finite_differences(self, hidden):
        rng = np.random.default_rng(0)
        net = MLP(2, hidden=hidden, seed=1)
        x = rng.normal(size=(6, 2))
        y = rng.normal(size=(6, 1))
        out, acts = net._forward(x)
        delta = 2.0 * (out - y) / x.shape[0]
        grads_w, grads_b = net._backward(acts, delta)
        num_w, num_b = mlp_finite_difference_gradients(net, x, y)
        for analytic, numeric in zip(grads_w + grads_b, num_w + num_b):
            scale = max(float(np.abs(numeric).max()), 1e-8)
            assert np.abs(analytic - numeric).max() / scale < 1e-5


class TestMLPTraining:
    def test_loss_decreases(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 1, size=(512, 1))
        y = np.sin(3 * x).ravel()
        net = MLP(1, hidden=(16,), seed=0)
        history = net.fit(x, y, epochs=60, batch_size=64, learning_rate=3e-3)
        assert history[-1] < history[0] * 0.3

    def test_rejects_mismatched_rows(self):
        net = MLP(1)
        with pytest.raises(ValueError):
            net.fit(np.ones((4, 1)), np.ones(5), epochs=1)


class TestTrainAdam:
    def test_batches_cover_each_sample_once_per_epoch(self):
        seen = []

        def loss_and_grads(rows):
            seen.append(rows.copy())
            return float(rows.size), [np.ones(2)]

        history = train_adam(
            [np.zeros(2)], loss_and_grads, 10,
            epochs=3, batch_size=4, learning_rate=1e-2,
        )
        assert [rows.size for rows in seen] == [4, 4, 2] * 3
        for epoch in range(3):
            rows = np.concatenate(seen[3 * epoch:3 * epoch + 3])
            np.testing.assert_array_equal(np.sort(rows), np.arange(10))
        assert history == [10 / 3] * 3

    def test_clip_scales_the_global_norm_down_to_the_bound(self):
        # Batches alternate gradients of norm 50 and 1.  Clipping at 5
        # must train exactly as handing in the clipped gradients does,
        # and not as the raw ones do (Adam is scale-free only for
        # gradients of one size).
        raw = [np.array([30.0, -40.0]), np.array([0.6, 0.8])]
        clipped = [np.array([3.0, -4.0]), np.array([0.6, 0.8])]

        def run(sequence, clip):
            param = np.array([1.0, 2.0])
            calls = []

            def loss_and_grads(rows):
                calls.append(rows)
                return 0.0, [sequence[(len(calls) - 1) % 2]]

            train_adam(
                [param], loss_and_grads, 8,
                epochs=2, batch_size=2, learning_rate=0.1, clip=clip,
            )
            return param

        np.testing.assert_array_equal(run(raw, 5.0), run(clipped, None))
        assert not np.array_equal(run(raw, None), run(clipped, None))
        # Under the bound, the clip leaves the gradients alone.
        np.testing.assert_array_equal(run(raw, 60.0), run(raw, None))


class TestSingleSample:
    @pytest.mark.parametrize("hidden", [(), (4,), (8, 8)])
    def test_forward_one_matches_forward(self, hidden):
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 255, size=(300, 6))
        y = x @ rng.normal(size=6) + rng.normal(size=300)
        net = MLP(6, hidden=hidden, seed=2)
        if hidden:
            net.fit(x, y, epochs=3, batch_size=64)
        else:
            net.fit_least_squares(x, y)
        batch = net.forward(x).ravel()
        single = np.array([net.forward_one(row) for row in x])
        np.testing.assert_allclose(single, batch, rtol=1e-9)

    def test_least_squares_is_lstsq(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(0, 255, size=(200, 5))
        y = x @ rng.normal(size=5) + 3.0 + rng.normal(size=200)
        net = MLP(5, seed=1)
        net.fit_least_squares(x, y)
        design = np.column_stack([x, np.ones(len(x))])
        want, *_ = np.linalg.lstsq(design, y, rcond=None)
        np.testing.assert_array_equal(net.weights[0].ravel(), want[:-1])
        np.testing.assert_array_equal(net.biases[0], want[-1:])
        np.testing.assert_array_equal(net.forward(x).ravel(), x @ want[:-1] + want[-1])

    def test_least_squares_refuses_hidden_layers(self):
        with pytest.raises(ValueError, match="hidden"):
            MLP(3, hidden=(4,)).fit_least_squares(np.ones((4, 3)), np.ones(4))


class TestNeuralRegressionModel:
    def test_scalar_matches_batch(self):
        rng = np.random.default_rng(3)
        keys = np.sort(rng.uniform(0, 1e6, size=2000))
        model = NeuralRegressionModel(hidden=(8,), epochs=5)
        model.fit(keys, np.arange(2000.0))
        for q in keys[::251]:
            scalar = model.predict(float(q))
            batch = float(model.predict_batch(np.array([q]))[0])
            assert scalar == pytest.approx(batch, rel=1e-9, abs=1e-6)

    def test_learns_cdf_shape_better_than_a_line(self):
        rng = np.random.default_rng(4)
        keys = np.sort(rng.lognormal(0, 2, size=4000))
        positions = np.arange(4000.0)
        model = NeuralRegressionModel(
            hidden=(16, 16), epochs=80, seed=1, learning_rate=3e-3
        )
        model.fit(keys, positions)
        nn_err = np.abs(model.predict_batch(keys) - positions).mean()
        slope, intercept = np.polyfit(keys, positions, 1)
        line_err = np.abs(slope * keys + intercept - positions).mean()
        assert nn_err < line_err * 0.8
        assert nn_err < 4000 * 0.25

    def test_unfit_predicts_zero(self):
        model = NeuralRegressionModel()
        assert model.predict(5.0) == 0.0

    def test_training_sample_cap(self):
        keys = np.sort(np.random.default_rng(5).uniform(0, 1, size=5000))
        model = NeuralRegressionModel(
            hidden=(), epochs=2, max_train_samples=500
        )
        model.fit(keys, np.arange(5000.0))
        assert model.predict(0.5) == pytest.approx(2500.0, rel=0.2)


class TestFrameworkModel:
    def test_matches_underlying_network(self):
        rng = np.random.default_rng(6)
        keys = rng.uniform(0, 1, size=(128, 1))
        positions = (keys * 100).ravel()
        net = MLP(1, hidden=(4,), seed=0)
        net.fit(keys, positions, epochs=10)
        framework = FrameworkModel(net)
        for q in (0.1, 0.5, 0.9):
            direct = float(net.forward(np.array([[q]]))[0, 0])
            assert framework.predict(q) == pytest.approx(direct)

    def test_validates_feed(self):
        framework = FrameworkModel(MLP(1))
        with pytest.raises(KeyError):
            framework.run({})
        with pytest.raises(TypeError):
            framework.run({"key": np.array([[1]], dtype=np.int32)})
        with pytest.raises(ValueError):
            framework.run({"key": np.array([1.0])})
