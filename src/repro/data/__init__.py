"""Dataset simulators for the learned-index reproduction.

The paper evaluates on proprietary Google datasets; every generator in
this package is a documented synthetic substitute (each generator's
docstring says what it stands in for) producing deterministic, seeded
data with the CDF properties the paper relies on.
"""

from .maps import LONGITUDE_SCALE, map_longitudes
from .registry import (
    INTEGER_DATASETS,
    IntegerDataset,
    integer_dataset,
    string_dataset,
)
from .strings import document_ids
from .synthetic import (
    clustered_keys,
    lognormal_keys,
    normal_keys,
    osm_like,
    sequential_keys,
    u64_dense,
    uniform_keys,
    zipfian_queries,
)
from .urls import benign_urls, confusable_urls, phishing_urls, url_dataset
from .weblogs import weblog_timestamps

__all__ = [
    "INTEGER_DATASETS",
    "IntegerDataset",
    "LONGITUDE_SCALE",
    "benign_urls",
    "clustered_keys",
    "confusable_urls",
    "document_ids",
    "integer_dataset",
    "lognormal_keys",
    "map_longitudes",
    "normal_keys",
    "osm_like",
    "phishing_urls",
    "sequential_keys",
    "string_dataset",
    "u64_dense",
    "uniform_keys",
    "url_dataset",
    "weblog_timestamps",
    "zipfian_queries",
]
