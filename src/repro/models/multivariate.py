"""Multivariate linear regression over engineered key features.

Figure 5's best learned index uses "a multi-variate linear regression
model at the top ... We used simple automatic feature engineering for
the top model by automatically creating and selecting features in the
form of key, log(key), key^2, etc.  Multivariate linear regression is an
interesting alternative to NN as it is particularly well suited to fit
nonlinear patterns with only a few operations."

``MultivariateLinearModel`` reproduces that: it expands the key into the
feature vector it is given and solves least squares in closed form
(with feature standardization for conditioning).  The selection is the
caller's: Figure 5's root names its features.
"""

from __future__ import annotations

import numpy as np

from .base import Model

__all__ = ["MultivariateLinearModel", "FEATURE_LIBRARY"]


def _safe_log(x: np.ndarray) -> np.ndarray:
    return np.log1p(np.abs(x))


def _safe_sqrt(x: np.ndarray) -> np.ndarray:
    return np.sqrt(np.abs(x))


#: name -> (vectorized transform, multiply-add cost of the transform)
FEATURE_LIBRARY: dict = {
    "key": (lambda x: x, 0),
    "key^2": (lambda x: x * x, 1),
    "key^3": (lambda x: x * x * x, 2),
    "log": (_safe_log, 4),  # log ~ a few fused ops on modern CPUs
    "sqrt": (_safe_sqrt, 4),
    "loglog": (lambda x: _safe_log(_safe_log(x)), 8),
}


class MultivariateLinearModel(Model):
    """Least squares over an engineered feature expansion of the key."""

    def __init__(
        self,
        features: tuple[str, ...] = ("key", "log", "key^2"),
    ):
        unknown = [f for f in features if f not in FEATURE_LIBRARY]
        if unknown:
            raise ValueError(
                f"unknown features {unknown}; known: {sorted(FEATURE_LIBRARY)}"
            )
        if not features:
            raise ValueError("need at least one feature")
        self.features = tuple(features)
        self.weights = np.zeros(len(self.features))
        self.bias = 0.0
        self._mean = np.zeros(len(self.features))
        self._scale = np.ones(len(self.features))

    def _raw_features(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.float64)
        columns = [FEATURE_LIBRARY[name][0](keys) for name in self.features]
        return np.stack(columns, axis=1)

    # -- Model API ----------------------------------------------------------

    def fit(
        self, keys: np.ndarray, positions: np.ndarray
    ) -> "MultivariateLinearModel":
        """Standardized least squares over the feature expansion."""
        keys = np.asarray(keys, dtype=np.float64)
        positions = np.asarray(positions, dtype=np.float64)
        if keys.size == 0:
            self.weights = np.zeros(len(self.features))
            self.bias = 0.0
            return self
        x = self._raw_features(keys)
        self._mean = x.mean(axis=0)
        scale = x.std(axis=0)
        scale[scale == 0.0] = 1.0
        self._scale = scale
        z = (x - self._mean) / scale
        design = np.column_stack([z, np.ones(z.shape[0])])
        solution, *_ = np.linalg.lstsq(design, positions, rcond=None)
        self.weights, self.bias = solution[:-1], float(solution[-1])
        return self

    def predict(self, key: float) -> float:
        total = self.bias
        for i, name in enumerate(self.features):
            transform, _cost = FEATURE_LIBRARY[name]
            raw = float(transform(np.float64(key)))
            total += self.weights[i] * (raw - self._mean[i]) / self._scale[i]
        return float(total)

    def predict_batch(self, keys: np.ndarray) -> np.ndarray:
        z = (self._raw_features(keys) - self._mean) / self._scale
        return z @ self.weights + self.bias

    @property
    def param_count(self) -> int:
        # weights + bias + per-feature standardization constants
        return len(self.features) * 3 + 1

    def op_count(self) -> int:
        ops = 1  # bias add
        for name in self.features:
            _transform, cost = FEATURE_LIBRARY[name]
            ops += cost + 3  # transform + standardize (sub, mul) + fma
        return ops

    def __repr__(self) -> str:
        return f"MultivariateLinearModel(features={self.features})"
