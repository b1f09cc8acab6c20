"""Unified telemetry core: metrics, histograms, cross-process tracing.

Three pieces, deliberately small:

- :mod:`repro.obs.registry` — named counters and histograms per
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

Contract for anyone adding a metric or a span
---------------------------------------------
* **Names** are dotted lowercase ``<subsystem>.<component>.<what>``:
  ``lsm.read.*``, ``lsm.write.*``, ``paged.io.*``,
  ``serving.coalescer.*``, ``serving.sharded.*``, ``engine.*``,
  ``nn.op.*``.  Span durations observe into the default registry as
  ``span.<span-name>`` histograms.
* **Two metric kinds.**  Counters are monotonic ints (floats for
  second-sums such as ``lsm.write.stall_seconds``); histograms are the
  fixed-layout log-bucketed :class:`LatencyHistogram` (16 buckets per
  octave over 2^-30..2^12 s, ~4.4% relative width), so a merge is a
  vector add and cross-process aggregation is exact.  A stats object
  is a :class:`StatsView` over registry counters (``counter_field``)
  when something exports or merges its registry, and plain ints
  otherwise: ``RMIStats`` and the baselines' ``TraversalStats`` are
  plain ints, bumped by scalar lookups only.
* **Span propagation.**  In-process context rides a contextvar
  (``trace_scope`` / ``span``); cross-process context rides the
  ``"trace"`` entry of each shard command's frame (``wire_context()``
  on the client, ``adopt()`` in the worker), so worker spans parent
  onto the client's ``sharded.fanout`` span under one trace id.  A
  coalescer tick lists every coalesced request's trace id as a
  *member*, and ``trace_spans`` / ``export_trace`` resolve membership.
  Workers piggyback drained spans and registry deltas (snapshot
  diffs) on every ack; ``ShardedLSMStore.metrics()`` returns per-shard
  snapshots and their exact merge.  Exporters: ``prometheus_text`` and
  ``export_trace``; a snapshot's ``to_dict()`` is its JSON form.
* **Overhead.**  With telemetry off, an instrumented site costs one
  module-attribute branch: no allocation, no contextvar read.
  ``obs.enabled_overhead`` and ``trace.overhead.*`` under
  ``benchmarks/e2e/run.py --trace 1`` measure the cost when it is on.
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
