"""A tiny fully-connected neural-network framework (numpy only).

The paper's range-index models are "simple neural nets with zero to two
fully-connected hidden layers and ReLU activation functions and a layer
width of up to 32 neurons" (Section 3.3), trained with stochastic
gradient descent (Section 3.6).  Tensorflow is unavailable offline and
would defeat the point anyway — Section 2.3 shows framework invocation
overhead is the first thing a learned index must eliminate — so this
module implements the substrate from scratch:

* :class:`MLP` — dense ReLU network with manual backprop, trained by
  mini-batch Adam or SGD, for either regression (MSE) or binary
  classification (log loss); a net with no hidden layer also fits in
  closed form (least squares), and one sample runs through
  ``forward_one`` — the string index's root over token vectors;
* :class:`NeuralRegressionModel` — adapts an MLP to the
  :class:`repro.models.base.Model` interface for use inside an RMI,
  including a scalar fast path that runs the forward pass with plain
  Python floats for 0/1-hidden-layer nets;
* :class:`FrameworkModel` — a deliberately generic, batch-shaped
  invocation wrapper reproducing the Section 2.3 "naive learned index"
  overhead for the E9 benchmark.
"""

from __future__ import annotations

import time

import numpy as np

from ..obs import default_registry
from ..obs import span as obs_span
from ..obs import state as obs_state
from .base import Model

__all__ = ["MLP", "NeuralRegressionModel", "FrameworkModel"]

#: Seed of the per-epoch shuffles in :meth:`MLP.fit`.
SHUFFLE_SEED = 1

#: Mini-batch size of :class:`NeuralRegressionModel` training.
REGRESSION_BATCH = 512


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


class MLP:
    """Fully-connected network: input -> [hidden ReLU]* -> linear output.

    Parameters
    ----------
    input_dim:
        Width of the input vector (1 for scalar keys).
    hidden:
        Tuple of hidden-layer widths; empty tuple = linear model.  The
        output is one value.
    task:
        ``"regression"`` (MSE loss, identity output) or
        ``"classification"`` (log loss, sigmoid output).
    seed:
        Weight-initialization seed (He initialization).
    """

    def __init__(
        self,
        input_dim: int,
        hidden: tuple[int, ...] = (),
        task: str = "regression",
        seed: int = 0,
    ):
        if task not in ("regression", "classification"):
            raise ValueError("task must be 'regression' or 'classification'")
        if input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if any(h < 1 for h in hidden):
            raise ValueError("hidden widths must be >= 1")
        self.input_dim = int(input_dim)
        self.hidden = tuple(int(h) for h in hidden)
        self.task = task
        rng = np.random.default_rng(seed)
        dims = [self.input_dim, *self.hidden, 1]
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            std = np.sqrt(2.0 / fan_in)
            self.weights.append(rng.normal(0.0, std, size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))
        # Input/target standardization folded in at fit time.
        self.x_mean = np.zeros(self.input_dim)
        self.x_scale = np.ones(self.input_dim)
        self.y_mean = 0.0
        self.y_scale = 1.0
        self._adam_state: list | None = None
        self._prepare_one()

    # -- forward / backward -------------------------------------------------

    def _forward(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Return (raw output, per-layer post-activation cache)."""
        activations = [x]
        out = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out = out @ w + b
            if i < last:
                out = _relu(out)
            activations.append(out)
        return out, activations

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Standardized forward pass on raw inputs; returns raw targets."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        z = (x - self.x_mean) / self.x_scale
        out, _ = self._forward(z)
        if self.task == "classification":
            return 1.0 / (1.0 + np.exp(-out))
        return out * self.y_scale + self.y_mean

    def _prepare_one(self) -> None:
        """The layers :meth:`forward_one` runs: the input
        standardization folded into the first layer, and the output
        layer as a vector and a float."""
        w0 = self.weights[0] / self.x_scale[:, None]
        b0 = self.biases[0] - (self.x_mean / self.x_scale) @ self.weights[0]
        layers = [(w0, b0), *zip(self.weights[1:], self.biases[1:])]
        w_out, b_out = layers.pop()
        w_out = np.ascontiguousarray(w_out[:, 0])
        self._one = layers, w_out, float(b_out[0])

    def forward_one(self, x: np.ndarray) -> float:
        """:meth:`forward` for one sample of a one-output regression
        net, without the batch plumbing: a float64 vector in, the raw
        target out."""
        hidden, w_out, b_out = self._one
        for w, b in hidden:
            x = x @ w + b
            np.maximum(x, 0.0, out=x)
        return (float(x @ w_out) + b_out) * self.y_scale + self.y_mean

    def _backward(
        self, activations: list[np.ndarray], delta: np.ndarray
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Backprop given output-layer error ``delta`` (dLoss/dRawOut)."""
        grads_w = [np.zeros_like(w) for w in self.weights]
        grads_b = [np.zeros_like(b) for b in self.biases]
        for i in range(len(self.weights) - 1, -1, -1):
            grads_w[i] = activations[i].T @ delta
            grads_b[i] = delta.sum(axis=0)
            if i > 0:
                delta = delta @ self.weights[i].T
                delta = delta * (activations[i] > 0)
        return grads_w, grads_b

    # -- training -----------------------------------------------------------

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        *,
        epochs: int = 50,
        batch_size: int = 256,
        learning_rate: float = 1e-3,
        optimizer: str = "adam",
    ) -> list[float]:
        """Mini-batch training; returns the per-epoch mean loss history."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[0] == 1 and x.shape[1] != self.input_dim:
            x = x.T
        y = np.asarray(y, dtype=np.float64).reshape(-1, 1)
        if x.shape[0] != y.shape[0]:
            raise ValueError("x and y row counts differ")

        self.x_mean = x.mean(axis=0)
        scale = x.std(axis=0)
        scale[scale == 0.0] = 1.0
        self.x_scale = scale
        if self.task == "regression":
            self.y_mean = float(y.mean())
            self.y_scale = float(y.std()) or 1.0
            targets = (y - self.y_mean) / self.y_scale
        else:
            targets = y
        z = (x - self.x_mean) / self.x_scale

        rng = np.random.default_rng(SHUFFLE_SEED)
        n = z.shape[0]
        history: list[float] = []
        self._init_adam()
        step = 0
        for _ in range(epochs):
            order = rng.permutation(n)
            epoch_loss = 0.0
            batches = 0
            for start in range(0, n, batch_size):
                idx = order[start:start + batch_size]
                xb, yb = z[idx], targets[idx]
                out, activations = self._forward(xb)
                if self.task == "classification":
                    prob = 1.0 / (1.0 + np.exp(-out))
                    eps = 1e-12
                    loss = float(
                        -np.mean(
                            yb * np.log(prob + eps)
                            + (1 - yb) * np.log(1 - prob + eps)
                        )
                    )
                    delta = (prob - yb) / xb.shape[0]
                else:
                    diff = out - yb
                    loss = float(np.mean(diff**2))
                    delta = 2.0 * diff / xb.shape[0]
                grads_w, grads_b = self._backward(activations, delta)
                step += 1
                self._apply_gradients(
                    grads_w, grads_b, learning_rate, optimizer, step
                )
                epoch_loss += loss
                batches += 1
            history.append(epoch_loss / max(batches, 1))
        self._prepare_one()
        return history

    def fit_least_squares(self, x: np.ndarray, y: np.ndarray) -> None:
        """Closed-form least-squares fit of a net with no hidden layer:
        ``x @ w + b`` on the raw inputs, standardization left as the
        identity.  A net with hidden layers is a ``ValueError``."""
        if self.hidden or self.task != "regression":
            raise ValueError(
                "least squares fits a one-output regression net with no "
                "hidden layer"
            )
        x = np.asarray(x, dtype=np.float64).reshape(-1, self.input_dim)
        design = np.column_stack([x, np.ones(x.shape[0])])
        solution, *_ = np.linalg.lstsq(
            design, np.asarray(y, dtype=np.float64), rcond=None
        )
        self.weights[0] = solution[:-1].reshape(-1, 1)
        self.biases[0] = solution[-1:].copy()
        self.x_mean = np.zeros(self.input_dim)
        self.x_scale = np.ones(self.input_dim)
        self.y_mean = 0.0
        self.y_scale = 1.0
        self._prepare_one()

    def _init_adam(self) -> None:
        self._adam_state = [
            (np.zeros_like(w), np.zeros_like(w)) for w in self.weights
        ] + [(np.zeros_like(b), np.zeros_like(b)) for b in self.biases]

    def _apply_gradients(
        self,
        grads_w: list[np.ndarray],
        grads_b: list[np.ndarray],
        lr: float,
        optimizer: str,
        step: int,
    ) -> None:
        if optimizer == "sgd":
            for w, gw in zip(self.weights, grads_w):
                w -= lr * gw
            for b, gb in zip(self.biases, grads_b):
                b -= lr * gb
            return
        if optimizer != "adam":
            raise ValueError("optimizer must be 'adam' or 'sgd'")
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        params = self.weights + self.biases
        grads = grads_w + grads_b
        for i, (param, grad) in enumerate(zip(params, grads)):
            m, v = self._adam_state[i]
            m *= beta1
            m += (1 - beta1) * grad
            v *= beta2
            v += (1 - beta2) * grad * grad
            m_hat = m / (1 - beta1**step)
            v_hat = v / (1 - beta2**step)
            param -= lr * m_hat / (np.sqrt(v_hat) + eps)

    # -- accounting ----------------------------------------------------------

    @property
    def param_count(self) -> int:
        return int(
            sum(w.size for w in self.weights) + sum(b.size for b in self.biases)
        )

    def op_count(self) -> int:
        """Multiply-adds per single forward pass."""
        ops = 0
        for w in self.weights:
            ops += 2 * w.size  # multiply + add per weight
        return ops


class NeuralRegressionModel(Model):
    """Adapts :class:`MLP` to the RMI model interface for scalar keys."""

    def __init__(
        self,
        hidden: tuple[int, ...] = (16,),
        epochs: int = 30,
        learning_rate: float = 1e-3,
        seed: int = 0,
        max_train_samples: int = 50_000,
    ):
        self.net = MLP(1, hidden=hidden, task="regression", seed=seed)
        self.epochs = int(epochs)
        self.learning_rate = float(learning_rate)
        self.max_train_samples = int(max_train_samples)
        self._scalar_weights: list | None = None

    def fit(
        self, keys: np.ndarray, positions: np.ndarray
    ) -> "NeuralRegressionModel":
        keys = np.asarray(keys, dtype=np.float64)
        positions = np.asarray(positions, dtype=np.float64)
        if keys.size == 0:
            self._scalar_weights = None
            return self
        if keys.size > self.max_train_samples:
            # Section 3.6: "training the top model over the entire data is
            # usually not necessary" — an evenly spaced sample preserves
            # the empirical CDF shape.
            pick = np.linspace(0, keys.size - 1, self.max_train_samples)
            pick = pick.round().astype(np.int64)
            keys, positions = keys[pick], positions[pick]
        self.net.fit(
            keys.reshape(-1, 1),
            positions,
            epochs=self.epochs,
            batch_size=REGRESSION_BATCH,
            learning_rate=self.learning_rate,
        )
        self._cache_scalar_weights()
        return self

    def _cache_scalar_weights(self) -> None:
        """Extract weights into nested Python lists for the scalar path.

        This mirrors LIF: "given a trained Tensorflow model, LIF
        automatically extracts all weights from the model and generates
        efficient index structures" (Section 3.1).
        """
        self._scalar_weights = [
            (w.tolist(), b.tolist())
            for w, b in zip(self.net.weights, self.net.biases)
        ]
        self._sx_mean = float(self.net.x_mean[0])
        self._sx_scale = float(self.net.x_scale[0])
        self._sy_mean = self.net.y_mean
        self._sy_scale = self.net.y_scale

    def predict(self, key: float) -> float:
        if self._scalar_weights is None:
            return 0.0
        value = [(key - self._sx_mean) / self._sx_scale]
        last = len(self._scalar_weights) - 1
        for layer, (w, b) in enumerate(self._scalar_weights):
            out = []
            for j in range(len(b)):
                total = b[j]
                for i, v in enumerate(value):
                    total += v * w[i][j]
                if layer < last and total < 0.0:
                    total = 0.0
                out.append(total)
            value = out
        return value[0] * self._sy_scale + self._sy_mean

    def predict_batch(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.float64)
        if self._scalar_weights is None:
            return np.zeros(keys.shape)
        return self.net.forward(keys.reshape(-1, 1)).ravel()

    @property
    def param_count(self) -> int:
        return self.net.param_count

    def op_count(self) -> int:
        return self.net.op_count()

    def __repr__(self) -> str:
        return f"NeuralRegressionModel(hidden={self.net.hidden})"


class FrameworkModel:
    """Reproduces the Section 2.3 naive-index invocation overhead.

    Wraps a trained :class:`MLP` behind a deliberately generic,
    framework-shaped call path: every prediction builds a feed dict,
    validates the graph signature, and executes the network through a
    per-op graph interpreter (shape inference, output allocation and
    kernel dispatch per node — the machinery a real session run pays
    for, scaled down).  The contrast between this and
    :class:`NeuralRegressionModel.predict` is the paper's contrast
    between Tensorflow-invoked models (~80,000 ns) and LIF
    code-generated models (~30 ns).
    """

    def __init__(self, net: MLP):
        self.net = net
        self._signature = {
            "inputs": {"key": {"dtype": "float64", "shape": (None, 1)}},
            "outputs": {"position": {"dtype": "float64", "shape": (None, 1)}},
        }
        self._graph = self._build_graph()
        self._kernels = {
            "standardize": self._kernel_standardize,
            "matmul": self._kernel_matmul,
            "bias_add": self._kernel_bias_add,
            "relu": self._kernel_relu,
            "destandardize": self._kernel_destandardize,
            "sigmoid": self._kernel_sigmoid,
            "identity": self._kernel_identity,
        }

    # -- graph construction ----------------------------------------------------

    def _build_graph(self) -> list[dict]:
        """Unroll the MLP into a flat op list, Tensorflow-graph style."""
        ops: list[dict] = [
            {"op": "standardize", "name": "input/standardize", "attrs": {}}
        ]
        last = len(self.net.weights) - 1
        for i in range(len(self.net.weights)):
            ops.append(
                {
                    "op": "matmul",
                    "name": f"dense_{i}/matmul",
                    "attrs": {"layer": i},
                }
            )
            ops.append(
                {
                    "op": "bias_add",
                    "name": f"dense_{i}/bias",
                    "attrs": {"layer": i},
                }
            )
            if i < last:
                ops.append(
                    {"op": "relu", "name": f"dense_{i}/relu", "attrs": {}}
                )
        if self.net.task == "regression":
            ops.append(
                {
                    "op": "destandardize",
                    "name": "output/destandardize",
                    "attrs": {},
                }
            )
        else:
            ops.append({"op": "sigmoid", "name": "output/sigmoid", "attrs": {}})
        ops.append({"op": "identity", "name": "output/position", "attrs": {}})
        return ops

    # -- kernels (each allocates its output, like a framework would) ------------

    def _kernel_standardize(self, tensor, attrs):
        return (tensor - self.net.x_mean) / self.net.x_scale

    def _kernel_matmul(self, tensor, attrs):
        return tensor @ self.net.weights[attrs["layer"]]

    def _kernel_bias_add(self, tensor, attrs):
        return tensor + self.net.biases[attrs["layer"]]

    def _kernel_relu(self, tensor, attrs):
        return np.maximum(tensor, 0.0)

    def _kernel_destandardize(self, tensor, attrs):
        return tensor * self.net.y_scale + self.net.y_mean

    def _kernel_sigmoid(self, tensor, attrs):
        return 1.0 / (1.0 + np.exp(-tensor))

    def _kernel_identity(self, tensor, attrs):
        return np.array(tensor, copy=True)

    # -- session-style execution -------------------------------------------------

    def _validate_feed(self, feed: dict) -> None:
        for name, spec in self._signature["inputs"].items():
            if name not in feed:
                raise KeyError(f"missing graph input {name!r}")
            tensor = feed[name]
            if tensor.dtype.name != spec["dtype"]:
                raise TypeError(
                    f"input {name!r} dtype {tensor.dtype.name} != {spec['dtype']}"
                )
            if tensor.ndim != len(spec["shape"]):
                raise ValueError(f"input {name!r} rank mismatch")

    def run(self, feed: dict) -> dict:
        """Session run: validate, copy, interpret the graph, wrap output.

        With obs enabled, the per-node layer trace ships to the
        profiler as an ``nn.session.run`` span (one timed entry per
        node) and each kernel's wall time lands in the default-registry
        histogram ``nn.op.<op>`` — the real-session behaviour the old
        build-then-discard trace stood in for.  Disabled, no trace is
        built at all.
        """
        self._validate_feed(feed)
        tensor = np.array(feed["key"], dtype=np.float64, copy=True)
        profiling = obs_state.enabled
        trace = [] if profiling else None
        with obs_span("nn.session.run", nodes=len(self._graph)) as attrs:
            op_hist = default_registry().histogram if profiling else None
            for node in self._graph:
                kernel = self._kernels.get(node["op"])
                if kernel is None:
                    raise RuntimeError(f"no kernel for op {node['op']!r}")
                t0 = time.perf_counter() if profiling else 0.0
                tensor = kernel(tensor, node["attrs"])
                if not isinstance(tensor, np.ndarray):
                    raise RuntimeError(
                        f"kernel {node['name']} returned non-tensor"
                    )
                if profiling:
                    elapsed = time.perf_counter() - t0
                    op_hist("nn.op." + node["op"]).observe(elapsed)
                    trace.append(
                        (
                            node["name"],
                            tensor.shape,
                            tensor.dtype.name,
                            elapsed,
                        )
                    )
            if attrs is not None:
                attrs["layers"] = [
                    {
                        "name": name,
                        "shape": list(shape),
                        "dtype": dtype,
                        "seconds": elapsed,
                    }
                    for name, shape, dtype, elapsed in trace
                ]
        return {"position": tensor}

    def predict(self, key: float) -> float:
        feed = {"key": np.array([[key]], dtype=np.float64)}
        return float(self.run(feed)["position"][0, 0])
