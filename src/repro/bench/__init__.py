"""Measurement substrate: cost model, timing harness, table rendering."""

from .cost import DEFAULT_COST_MODEL, CostEstimate, CostModel
from .tables import Table, factor, format_bytes, percentage
from .timing import (
    LatencyResult,
    compare_lookups,
    measure_callable,
    measure_lookups,
)

__all__ = [
    "DEFAULT_COST_MODEL",
    "CostEstimate",
    "CostModel",
    "LatencyResult",
    "Table",
    "compare_lookups",
    "factor",
    "format_bytes",
    "measure_callable",
    "measure_lookups",
    "percentage",
]
