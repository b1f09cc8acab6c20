"""Tracing spans with cross-process trace-ID propagation.

In-process propagation rides a ``contextvars.ContextVar`` (so it
follows threads started with a copied context and survives the
coalescer's synchronous call chain).  Cross-process propagation is
explicit: the client serialises its current context with
``wire_context()`` and attaches it to the pipe-RPC command; the shard
worker wraps command handling in ``adopt(wire)`` so every span it opens
joins the client's trace.  Workers ``drain()`` their finished spans and
piggyback them on the ack; the client re-records them, so one recorder
holds the full cross-process timeline.

Batch spans (a coalescer tick serving many requests, a fanout hitting
many shards) carry a ``member_trace_ids`` list: ``trace_spans(tid)``
selects a span when ``tid`` is its primary trace ID *or* appears in its
membership list, so a single request's exported trace includes the
shared tick it rode in.

Span records are plain dicts (JSON- and pickle-friendly):
``name, trace_id, span_id, parent_id, process, start, duration, attrs``
with ``start`` in wall-clock epoch seconds (comparable across
processes) and ``duration`` from ``perf_counter``.  Every finished span
also observes its duration into the process default registry histogram
``span.<name>`` — that is what makes worker-side span counts exactly
aggregatable through the metrics piggyback.
"""

from __future__ import annotations

import collections
import contextlib
import contextvars
import os
import threading
import time
import uuid

from . import state
from .registry import default_registry

_MAX_RECORDED_SPANS = 20_000

_process_name = f"pid-{os.getpid()}"


def set_process_name(name: str) -> None:
    """Label spans recorded by this process (e.g. ``shard-3``)."""
    global _process_name
    _process_name = name


class _Recorder:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans = collections.deque(maxlen=_MAX_RECORDED_SPANS)

    def record(self, span: dict) -> None:
        with self._lock:
            self._spans.append(span)

    def record_many(self, spans) -> None:
        with self._lock:
            self._spans.extend(spans)

    def drain(self) -> list:
        with self._lock:
            out = list(self._spans)
            self._spans.clear()
        return out

    def spans(self) -> list:
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()


_recorder = _Recorder()

# (trace_id, current_span_id_or_None, member_trace_ids_tuple)
_ctx: contextvars.ContextVar = contextvars.ContextVar(
    "repro_obs_trace", default=None
)


def new_trace_id() -> str:
    return uuid.uuid4().hex[:16]


def current_trace_id():
    ctx = _ctx.get()
    return ctx[0] if ctx is not None else None


@contextlib.contextmanager
def span(name: str, **attrs):
    """Open a span; yields its attrs dict (None when disabled).

    Starts a fresh trace when no context is active.  On exit the span
    is recorded and its duration observed into the default registry
    histogram ``span.<name>``.
    """
    if not state.enabled:
        yield None
        return
    parent = _ctx.get()
    span_id = uuid.uuid4().hex[:16]
    if parent is None:
        trace_id, parent_id, members = new_trace_id(), None, ()
    else:
        trace_id, parent_id, members = parent
    token = _ctx.set((trace_id, span_id, members))
    start_wall = time.time()
    t0 = time.perf_counter()
    try:
        yield attrs
    finally:
        duration = time.perf_counter() - t0
        _ctx.reset(token)
        record = {
            "name": name,
            "trace_id": trace_id,
            "span_id": span_id,
            "parent_id": parent_id,
            "process": _process_name,
            "start": start_wall,
            "duration": duration,
            "attrs": attrs,
        }
        if members:
            record["member_trace_ids"] = list(members)
        _recorder.record(record)
        default_registry().histogram("span." + name).observe(duration)


@contextlib.contextmanager
def trace_scope(trace_id=None, parent_span_id=None, member_ids=()):
    """Install a trace context without recording a span of its own.

    Used by request stamping (each coalesced request gets an ID before
    any span opens) and by batch operations that serve many traces at
    once (``member_ids``).
    """
    if not state.enabled:
        yield None
        return
    tid = trace_id if trace_id is not None else new_trace_id()
    token = _ctx.set((tid, parent_span_id, tuple(member_ids)))
    try:
        yield tid
    finally:
        _ctx.reset(token)


def wire_context():
    """Picklable form of the active context for RPC piggyback."""
    if not state.enabled:
        return None
    ctx = _ctx.get()
    if ctx is None:
        return None
    return {
        "trace_id": ctx[0],
        "parent_span_id": ctx[1],
        "member_trace_ids": list(ctx[2]),
    }


@contextlib.contextmanager
def adopt(wire):
    """Install a context received over the wire (no-op for None)."""
    if wire is None or not state.enabled:
        yield
        return
    token = _ctx.set(
        (
            wire["trace_id"],
            wire.get("parent_span_id"),
            tuple(wire.get("member_trace_ids", ())),
        )
    )
    try:
        yield
    finally:
        _ctx.reset(token)


def record_manual_span(
    name: str,
    trace_id: str,
    *,
    start: float,
    duration: float,
    parent_id=None,
    attrs=None,
) -> None:
    """Record a span whose lifetime could not be a ``with`` block
    (e.g. a queued request resolved by a later callback).  Mirrors
    :func:`span`'s record shape and histogram side effect."""
    if not state.enabled:
        return
    _recorder.record(
        {
            "name": name,
            "trace_id": trace_id,
            "span_id": uuid.uuid4().hex[:16],
            "parent_id": parent_id,
            "process": _process_name,
            "start": start,
            "duration": duration,
            "attrs": attrs or {},
        }
    )
    default_registry().histogram("span." + name).observe(duration)


# -- recorder access ------------------------------------------------------


def record_spans(spans) -> None:
    """Merge externally produced span records (e.g. from a worker ack)."""
    _recorder.record_many(spans)


def drain_spans() -> list:
    """Remove and return every recorded span (worker-side piggyback)."""
    return _recorder.drain()


def all_spans() -> list:
    return _recorder.spans()


def trace_spans(trace_id: str) -> list:
    """Spans belonging to ``trace_id``, by primary ID or membership."""
    out = [
        s
        for s in _recorder.spans()
        if s["trace_id"] == trace_id
        or trace_id in s.get("member_trace_ids", ())
    ]
    out.sort(key=lambda s: s["start"])
    return out


def export_trace(trace_id: str) -> dict:
    """JSON-ready cross-process timeline for one trace."""
    return {"trace_id": trace_id, "spans": trace_spans(trace_id)}


def reset_tracing() -> None:
    """Drop all recorded spans (test hygiene)."""
    _recorder.clear()
