"""Model interface shared by every regression model in the RMI.

The paper treats an index as "a model which takes a key as an input and
predicts the position of a data record" (Section 2).  Everything the
recursive model index composes — linear regression, multivariate
regression, small neural nets, even the B-Tree fallback of hybrid
indexes — satisfies the small contract defined here:

* ``fit(keys, positions)`` — train on float key/position pairs;
* ``predict(key)`` — scalar prediction (the hot path; implementations
  avoid numpy here, mirroring LIF's code-generated models);
* ``predict_batch(keys)`` — vectorized prediction for training, error
  calculation and bulk evaluation;
* ``param_count`` / ``size_bytes()`` — storage accounting for the
  paper's size columns;
* ``op_count()`` — multiply-add count per inference for the Section 2.1
  cost model.
"""

from __future__ import annotations

import abc

import numpy as np

__all__ = ["Model"]

_FLOAT_BYTES = 8


class Model(abc.ABC):
    """Abstract regression model mapping a scalar key to a position."""

    @abc.abstractmethod
    def fit(self, keys: np.ndarray, positions: np.ndarray) -> "Model":
        """Train on parallel arrays of keys and target positions.

        Returns ``self`` so construction and training can be chained.
        """

    @abc.abstractmethod
    def predict(self, key: float) -> float:
        """Predict the position for a single key (scalar fast path)."""

    def predict_batch(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized prediction; default loops over :meth:`predict`."""
        keys = np.asarray(keys, dtype=np.float64)
        return np.array([self.predict(float(k)) for k in keys])

    @property
    @abc.abstractmethod
    def param_count(self) -> int:
        """Number of learned scalar parameters."""

    def size_bytes(self) -> int:
        """Bytes needed to store the parameters (8 bytes per float)."""
        return self.param_count * _FLOAT_BYTES

    @abc.abstractmethod
    def op_count(self) -> int:
        """Arithmetic operations (multiply-adds) per scalar inference."""

    def is_monotonic(self) -> bool:
        """Whether the model is monotonically non-decreasing in the key.

        Monotonic models guarantee min/max error bounds hold for absent
        look-up keys too (Section 3.4); non-monotonic models require the
        widening-search fallback.
        """
        return False
