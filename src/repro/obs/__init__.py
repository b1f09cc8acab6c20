"""Unified telemetry core: metrics, histograms, cross-process tracing.

Three pieces, deliberately small:

- :mod:`repro.obs.registry` — named counters / gauges / histograms per
  process (or per store), with picklable snapshots that ``merge`` and
  ``diff`` exactly;
- :mod:`repro.obs.histogram` — fixed-layout log-bucketed latency
  histograms (merge = vector add);
- :mod:`repro.obs.tracing` — spans with trace IDs that propagate
  in-process via contextvars and cross-process over the shard pipe RPC.

Everything span- and histogram-shaped is gated on ``state.enabled``
(default off, env ``REPRO_OBS=1`` or ``set_enabled(True)``); the
always-on stats views (``LSMReadStats`` etc.) use bare registry
counters, whose cost matches the locked dataclass bookkeeping they
replaced.
"""

from . import state
from .state import set_enabled
from .histogram import (
    BUCKETS_PER_OCTAVE,
    LatencyHistogram,
    MAX_TRACKABLE,
    MIN_TRACKABLE,
    NUM_BUCKETS,
    RELATIVE_BUCKET_WIDTH,
    bucket_index,
    bucket_midpoint,
    bucket_upper_bound,
)
from .registry import (
    Counter,
    Gauge,
    MetricsRegistry,
    RegistrySnapshot,
    StatsView,
    counter_field,
    default_registry,
)
from .tracing import (
    adopt,
    all_spans,
    current_trace_id,
    drain_spans,
    export_trace,
    new_trace_id,
    record_manual_span,
    record_spans,
    reset_tracing,
    set_process_name,
    span,
    trace_scope,
    trace_spans,
    wire_context,
)
from .export import prometheus_text, trace_json

__all__ = [
    "state",
    "set_enabled",
    "BUCKETS_PER_OCTAVE",
    "LatencyHistogram",
    "MAX_TRACKABLE",
    "MIN_TRACKABLE",
    "NUM_BUCKETS",
    "RELATIVE_BUCKET_WIDTH",
    "bucket_index",
    "bucket_midpoint",
    "bucket_upper_bound",
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "RegistrySnapshot",
    "StatsView",
    "counter_field",
    "default_registry",
    "adopt",
    "all_spans",
    "current_trace_id",
    "drain_spans",
    "export_trace",
    "new_trace_id",
    "record_manual_span",
    "record_spans",
    "reset_tracing",
    "set_process_name",
    "span",
    "trace_scope",
    "trace_spans",
    "wire_context",
    "prometheus_text",
    "trace_json",
]
