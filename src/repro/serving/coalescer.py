"""Asyncio request coalescing: many tiny requests, one kernel batch.

Every layer below this one is vectorized — a 1,000-key
``lookup_batch`` costs barely more than a 10-key one, because the
per-call overhead (Python dispatch, model root evaluation, bloom hash
setup) amortizes across the batch.  A serving front end that forwards
each client request individually throws that away: 16 concurrent
clients issue 16 single-key store calls per round trip.

:class:`CoalescingIndexServer` fixes the impedance mismatch.  Requests
arriving while the event loop is busy queue up; one flush callback on
the next event-loop tick drains the queue, packs every pending request
into a single ``lookup_batch`` and a single ``range_query_batch``, and
scatters the results back to each request's future.  Under
concurrency the batch size grows with the arrival rate, so throughput
scales with load instead of collapsing under per-request overhead —
the classic group-commit bargain, priced in microseconds of queueing
delay.

A one-key :meth:`~CoalescingIndexServer.lookup` rides the tick as a
Python int and meets NumPy only there: the tick builds one int64 array
from all of its one-key requests, packs it ahead of the multi-key
requests' arrays, and hands each one-key request its answer from one
``tolist()`` of the results — a Python ``int`` or ``None``.  Per
request the front end pays for a future and a queue slot, not for a
one-element array, two result slices and two NumPy scalars.

The server takes only the store: there is no wait window and no batch
cap.  A multi-key request is never split across store calls.

Error isolation: a failing batch falls back to per-request execution,
so one poisoned request rejects only its own future while the rest of
the batch still resolves.  Cancelled requests (client timeouts) are
skipped at flush time; a flush whose every request was cancelled
touches the store not at all.  :class:`CoalescerStats` counts ticks,
store calls, keys and ranges sent, fallbacks and cancellations.

Key contract: the scalars follow the store's
(:func:`~repro.util.as_int64_key`): a non-integer key is a
``TypeError`` and a key outside int64 an ``OverflowError``, raised
before anything queues.  Unlike a store,
:meth:`CoalescingIndexServer.range_query` refuses a float endpoint
too, like its batch form, since a tick packs every range into one
int64 array.
"""

from __future__ import annotations

import asyncio
import time
from itertools import accumulate

import numpy as np

from ..obs import MetricsRegistry, StatsView, counter_field, tracing
from ..obs import state as obs_state
from ..range_scan import RangeScanResult
from ..util import as_int64_key, as_int64_keys

__all__ = ["CoalescingIndexServer", "CoalescerStats"]


def _flat(arrays: list) -> np.ndarray:
    """The tick's per-request arrays as one batch (a lone array as is)."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _bounds(arrays: list, start: int = 0) -> list:
    """Python-int slice bounds of each array in :func:`_flat` order,
    from ``start``: array ``i`` owns ``[bounds[i], bounds[i + 1])``."""
    return list(accumulate((a.size for a in arrays), initial=start))


class CoalescerStats(StatsView):
    """Flush-side accounting (read it to see the coalescing happen).

    A thin view over a :class:`repro.obs.MetricsRegistry` — every
    counter doubles as ``serving.coalescer.<name>`` for the exporters,
    and none grows with the number of ticks.
    """

    _FIELDS = (
        "ticks",
        "empty_ticks",
        "store_calls",
        "point_calls",
        "point_keys",
        "range_calls",
        "ranges",
        "requests_served",
        "requests_cancelled",
        "fallback_requests",
    )
    _PREFIX = "serving.coalescer."

    ticks = counter_field(
        "ticks", "Flush callbacks that ran (one per scheduled tick)."
    )
    empty_ticks = counter_field(
        "empty_ticks", "Flushes where every pending request was cancelled."
    )
    store_calls = counter_field(
        "store_calls", "Store batch calls issued (point and range together)."
    )
    point_calls = counter_field(
        "point_calls", "Coalesced point store calls (one per tick at most)."
    )
    point_keys = counter_field(
        "point_keys", "Keys sent in the coalesced point store calls."
    )
    range_calls = counter_field(
        "range_calls", "Coalesced range store calls (one per tick at most)."
    )
    ranges = counter_field(
        "ranges", "Ranges sent in the coalesced range store calls."
    )
    requests_served = counter_field(
        "requests_served", "Requests resolved through a coalesced batch."
    )
    requests_cancelled = counter_field(
        "requests_cancelled", "Requests skipped: future already cancelled."
    )
    fallback_requests = counter_field(
        "fallback_requests", "Requests re-run solo after a batch failure."
    )

    def mean_point_batch(self) -> float:
        """Keys per coalesced point store call (0.0 before the first)."""
        calls = self.point_calls
        return self.point_keys / calls if calls else 0.0


class _Pending:
    """One queued request: its query and the future awaiting it.

    ``query`` is a Python int (a one-key :meth:`lookup`), an int64
    array (a :meth:`lookup_batch`) or a ``(lows, highs)`` pair of int64
    arrays (a range request).  ``trace_id`` stamps the request the
    moment it is submitted (the caller's active trace if any, else a
    fresh ID) so the whole pipeline below — tick, store call, shard
    fanout, worker-side spans — can be joined back to it.
    """

    __slots__ = ("query", "future", "size", "trace_id", "start", "t0")

    def __init__(
        self,
        query,
        future: asyncio.Future,
        size: int,
        trace_id=None,
        start: float = 0.0,
        t0: float = 0.0,
    ):
        self.query = query
        self.future = future
        self.size = size
        self.trace_id = trace_id
        self.start = start
        self.t0 = t0


class CoalescingIndexServer:
    """Coalesces concurrent reads against one store into kernel batches.

    Parameters
    ----------
    store:
        Anything with ``lookup_batch(keys) -> (values, found)`` and
        ``range_query_batch(lows, highs) -> RangeScanResult`` — a
        learned index, an LSM store, a sharded store, or a snapshot.

    Every request flushes on the next event-loop tick — no added
    latency beyond the loop's own scheduling, yet everything that
    arrived in the same tick coalesces into one store call per kind.
    All methods must be awaited on the owning event loop; the store
    call itself runs inline on the loop (the kernels release no GIL
    worth exploiting here, and inline keeps result arrays zero-copy).
    """

    def __init__(self, store):
        self.store = store
        self.registry = MetricsRegistry()
        self.stats = CoalescerStats(self.registry)
        self._points: list[_Pending] = []  # one-key ints and key arrays
        self._ranges: list[_Pending] = []
        self._flush_handle: asyncio.Handle | None = None

    # -- public request surface ------------------------------------------------

    async def lookup(self, key: int):
        """Single-key read; resolves to the value (a Python int) or
        ``None``.  The key is checked here and queued as a Python int."""
        return await self._enqueue(self._points, as_int64_key(key), 1)

    async def lookup_batch(self, keys):
        """(values, found) for this request's keys, served from a
        coalesced store call shared with concurrent requests.  A
        non-integer key array is a ``TypeError``, not a truncation."""
        queries = as_int64_keys(keys)
        return await self._enqueue(self._points, queries, queries.size)

    async def range_query(self, low: int, high: int) -> np.ndarray:
        """Live keys in the closed range ``[low, high]`` — the batch
        form's contract: a float endpoint is a ``TypeError``."""
        result = await self.range_query_batch([low], [high])
        return np.asarray(result[0], dtype=np.int64)

    async def range_query_batch(self, lows, highs) -> RangeScanResult:
        """Live keys per closed range.  Endpoints ride one packed
        int64 array per tick, so a float endpoint is a ``TypeError``."""
        lows = as_int64_keys(lows)
        highs = as_int64_keys(highs)
        if lows.size != highs.size:
            raise ValueError("lows and highs must have the same length")
        return await self._enqueue(self._ranges, (lows, highs), lows.size)

    # -- queueing & flush scheduling -------------------------------------------

    def _enqueue(self, queue: list, query, size: int) -> asyncio.Future:
        """Queue one request; its future resolves at the next tick."""
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        if obs_state.enabled:
            # Stamp the request: adopt the caller's trace if one is
            # active, otherwise this request starts its own.
            trace_id = tracing.current_trace_id() or tracing.new_trace_id()
            pending = _Pending(
                query, future, size, trace_id, time.time(),
                time.perf_counter(),
            )
        else:
            pending = _Pending(query, future, size)
        queue.append(pending)
        if self._flush_handle is None:
            self._flush_handle = loop.call_soon(self._flush)
        return future

    def _flush(self) -> None:
        self._flush_handle = None
        points, self._points = self._points, []
        ranges, self._ranges = self._ranges, []
        self.stats.add(ticks=1)
        points = self._drop_cancelled(points)
        ranges = self._drop_cancelled(ranges)
        if not points and not ranges:
            self.stats.add(empty_ticks=1)
            return
        if obs_state.enabled:
            # The tick serves many requests at once: it runs as its own
            # trace carrying every member request's ID, so exporting
            # any one request's trace picks up the shared tick, store
            # calls, and worker-side spans it rode in.
            members = [r.trace_id for r in points + ranges]
            with tracing.trace_scope(member_ids=members):
                with tracing.span(
                    "coalesce.tick", points=len(points), ranges=len(ranges)
                ):
                    self._run_flush(points, ranges, traced=True)
        else:
            self._run_flush(points, ranges, traced=False)

    def _run_flush(self, points: list, ranges: list, traced: bool) -> None:
        if points:
            self._run_batch(points, self._point_call, "point", traced)
        if ranges:
            self._run_batch(ranges, self._range_call, "range", traced)

    def _drop_cancelled(self, pending: list) -> list:
        kept = [req for req in pending if not req.future.cancelled()]
        if len(kept) < len(pending):
            self.stats.add(requests_cancelled=len(pending) - len(kept))
        return kept

    # -- batch execution -------------------------------------------------------

    def _point_call(self, requests: list) -> tuple[list, list]:
        """One store call for the tick's point requests: the one-key
        requests' ints as one array ahead of the key arrays.  Returns
        the requests in that order beside their answers."""
        scalars = [r for r in requests if isinstance(r.query, int)]
        batches = [r for r in requests if not isinstance(r.query, int)]
        ns = len(scalars)
        arrays = [r.query for r in batches]
        bounds = _bounds(arrays, ns)
        if ns:
            arrays.insert(
                0, np.array([r.query for r in scalars], dtype=np.int64)
            )
        flat = _flat(arrays)
        self.stats.add(store_calls=1, point_calls=1, point_keys=flat.size)
        with tracing.span(
            "coalesce.store_call", kind="point", keys=int(flat.size)
        ):
            values, found = self.store.lookup_batch(flat)
        values, found = np.asarray(values), np.asarray(found)
        results = [
            value if hit else None
            for value, hit in zip(values[:ns].tolist(), found[:ns].tolist())
        ]
        results += [
            (values[lo:hi], found[lo:hi])
            for lo, hi in zip(bounds, bounds[1:])
        ]
        return scalars + batches, results

    def _range_call(self, requests: list) -> tuple[list, list]:
        """One store call for the tick's range requests, each sliced
        back from one ``tolist()`` of either offsets array."""
        low_arrays = [r.query[0] for r in requests]
        lows = _flat(low_arrays)
        highs = _flat([r.query[1] for r in requests])
        self.stats.add(store_calls=1, range_calls=1, ranges=lows.size)
        with tracing.span(
            "coalesce.store_call", kind="range", ranges=int(lows.size)
        ):
            scan = self.store.range_query_batch(lows, highs)
        values = np.asarray(scan.values)
        csr = np.asarray(scan.offsets)
        starts = csr.tolist()
        bounds = _bounds(low_arrays)
        return requests, [
            RangeScanResult(
                values=values[starts[first]:starts[last]],
                offsets=np.asarray(
                    csr[first:last + 1] - starts[first], dtype=np.int64
                ),
            )
            for first, last in zip(bounds, bounds[1:])
        ]

    def _run_batch(self, requests: list, call, kind: str, traced: bool):
        try:
            requests, results = call(requests)
        except Exception:
            self._fallback(requests, kind, traced)
            return
        served = 0
        for req, result in zip(requests, results):
            if req.future.cancelled():
                continue
            req.future.set_result(result)
            served += 1
            if traced:
                self._finish_request(req, kind)
        self.stats.add(
            requests_served=served,
            requests_cancelled=len(requests) - served,
        )

    def _finish_request(self, req: _Pending, kind: str) -> None:
        """Close the request-level span stamped at submit time."""
        if req.trace_id is None:
            return
        tracing.record_manual_span(
            "serving.request",
            req.trace_id,
            start=req.start,
            duration=time.perf_counter() - req.t0,
            attrs={"kind": kind, "size": req.size},
        )

    def _solo(self, query):
        """One request's answer from a store call of its own."""
        if isinstance(query, tuple):
            return self.store.range_query_batch(*query)
        if isinstance(query, int):
            values, found = self.store.lookup_batch(
                np.array([query], dtype=np.int64)
            )
            return int(values[0]) if found[0] else None
        return self.store.lookup_batch(query)

    def _fallback(self, requests: list, kind: str, traced: bool) -> None:
        """Batch failed — re-run each request alone so only the
        poisoned one(s) reject."""
        cancelled = served = 0
        for req in requests:
            if req.future.cancelled():
                cancelled += 1
                continue
            try:
                result = self._solo(req.query)
            except Exception as exc:  # noqa: BLE001 — per-request verdict
                req.future.set_exception(exc)
            else:
                req.future.set_result(result)
                served += 1
                if traced:
                    self._finish_request(req, kind)
        self.stats.add(
            requests_cancelled=cancelled,
            fallback_requests=len(requests) - cancelled,
            store_calls=served,
            requests_served=served,
        )
