"""Index configuration dataclasses used by LIF (Section 3.1).

An index specification names the model hierarchy, the search strategy
and the dataset-independent hyper-parameters.  LIF enumerates these,
trains candidates, and measures them — "given an index specification,
LIF generates different index configurations, optimizes them, and
tests them automatically".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..models.linear import LinearModel
from ..models.multivariate import MultivariateLinearModel
from ..models.nn import NeuralRegressionModel

__all__ = ["RMIConfig", "root_factory", "ROOT_MODEL_KINDS"]

#: Root-model family names accepted by :func:`root_factory`.
ROOT_MODEL_KINDS = ("linear", "multivariate", "nn")


def root_factory(
    kind: str,
    *,
    hidden: tuple[int, ...] = (),
    features: tuple[str, ...] = ("key", "log", "key^2"),
    epochs: int = 20,
) -> Callable:
    """Zero-argument factory for a stage-1 model of the given family."""
    if kind == "linear":
        return LinearModel
    if kind == "multivariate":
        return lambda: MultivariateLinearModel(features=features)
    if kind == "nn":
        if not hidden:
            # A 0-hidden-layer NN is linear regression (Section 3.3).
            return LinearModel
        return lambda: NeuralRegressionModel(hidden=hidden, epochs=epochs)
    raise ValueError(f"unknown root model kind {kind!r}; known: {ROOT_MODEL_KINDS}")


@dataclass(frozen=True)
class RMIConfig:
    """One grid point of the Section 3.7.1 search space.

    The paper's grid: "neural nets with zero to two hidden layers and
    layer-width ranging from 4 to 32 nodes" at the root, linear leaves,
    second-stage sizes 10k-200k.
    """

    root_kind: str = "linear"
    root_hidden: tuple[int, ...] = ()
    root_features: tuple[str, ...] = ("key", "log", "key^2")
    num_leaves: int = 10_000
    search_strategy: str = "binary"
    epochs: int = 20
    extra: dict = field(default_factory=dict, compare=False, hash=False)

    def describe(self) -> str:
        if self.root_kind == "nn" and self.root_hidden:
            root = "nn" + "x".join(str(h) for h in self.root_hidden)
        elif self.root_kind == "multivariate":
            root = "mv(" + ",".join(self.root_features) + ")"
        else:
            root = "linear"
        return f"{root}/leaves={self.num_leaves}/{self.search_strategy}"

    def root_factory(self) -> Callable:
        """The root-model factory this grid point trains the RMI with."""
        return root_factory(
            self.root_kind,
            hidden=self.root_hidden,
            features=self.root_features,
            epochs=self.epochs,
        )
