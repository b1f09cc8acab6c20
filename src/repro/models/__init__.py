"""Machine-learning substrate: every model the paper's indexes compose.

Implemented from scratch on numpy — no ML framework is used at either
training or inference time (Section 3.1: LIF "never uses Tensorflow at
inference").
"""

from .base import Model
from .cdf import (
    ErrorStats,
    error_stats_list_from_arrays,
    positions_for_keys,
    segmented_error_arrays,
)
from .gru import CharVocabulary, GRUClassifier
from .linear import (
    LinearModel,
    fit_linear_cdf_root,
    segmented_linear_fit,
)
from .multivariate import FEATURE_LIBRARY, MultivariateLinearModel
from .nn import MLP, FrameworkModel, NeuralRegressionModel
from .tokenization import lexicographic_scalar_batch, tokenize_batch

__all__ = [
    "FEATURE_LIBRARY",
    "MLP",
    "CharVocabulary",
    "ErrorStats",
    "FrameworkModel",
    "GRUClassifier",
    "LinearModel",
    "Model",
    "MultivariateLinearModel",
    "NeuralRegressionModel",
    "error_stats_list_from_arrays",
    "fit_linear_cdf_root",
    "lexicographic_scalar_batch",
    "positions_for_keys",
    "segmented_error_arrays",
    "segmented_linear_fit",
    "tokenize_batch",
]
