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

The server takes only the store: there is no wait window and no batch
cap.  A multi-key request is never split across store calls.

Error isolation: a failing batch falls back to per-request execution,
so one poisoned request rejects only its own future while the rest of
the batch still resolves.  Cancelled requests (client timeouts) are
skipped at flush time; a flush whose every request was cancelled
touches the store not at all.  :class:`CoalescerStats` counts ticks,
store calls, batch sizes, fallbacks and cancellations.

Key contract: the scalars follow the store's
(:func:`~repro.util.as_int64_key`): a non-integer key is a
``TypeError`` and a key outside int64 an ``OverflowError``.  Unlike a
store, :meth:`CoalescingIndexServer.range_query` refuses a float
endpoint too, like its batch form, since a tick packs every range into
one int64 array.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from ..obs import MetricsRegistry, StatsView, counter_field, tracing
from ..obs import state as obs_state
from ..range_scan import RangeScanResult
from ..util import as_int64_key, as_int64_keys

__all__ = ["CoalescingIndexServer", "CoalescerStats"]


def pack_requests(arrays: list) -> tuple[np.ndarray, np.ndarray]:
    """Per-request query arrays as one flat batch plus int64 offsets:
    request ``i`` owns ``flat[offsets[i]:offsets[i + 1]]``."""
    if not arrays:
        return np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64)
    offsets = np.zeros(len(arrays) + 1, dtype=np.int64)
    np.cumsum([a.size for a in arrays], out=offsets[1:])
    if len(arrays) == 1:
        return np.asarray(arrays[0]).ravel(), offsets
    return np.concatenate(arrays), offsets


def unpack_results(flat: np.ndarray, offsets: np.ndarray) -> list:
    """The inverse of :func:`pack_requests`: each request's slice of a
    flat batch result (views — copy to outlive the batch)."""
    bounds = offsets.tolist()
    return [flat[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


class CoalescerStats(StatsView):
    """Flush-side accounting (read it to see the coalescing happen).

    A thin view over a :class:`repro.obs.MetricsRegistry` — every
    counter doubles as ``serving.coalescer.<name>`` for the exporters;
    the per-call batch-size lists stay plain lists (they are samples,
    not counters).
    """

    _FIELDS = (
        "ticks",
        "empty_ticks",
        "store_calls",
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
    requests_served = counter_field(
        "requests_served", "Requests resolved through a coalesced batch."
    )
    requests_cancelled = counter_field(
        "requests_cancelled", "Requests skipped: future already cancelled."
    )
    fallback_requests = counter_field(
        "fallback_requests", "Requests re-run solo after a batch failure."
    )

    def __init__(self, registry=None) -> None:
        super().__init__(registry)
        #: Keys (or ranges) per point/range store call, most recent last.
        self.point_batch_sizes: list = []
        self.range_batch_sizes: list = []

    def reset(self) -> None:
        super().reset()
        self.point_batch_sizes.clear()
        self.range_batch_sizes.clear()

    def mean_point_batch(self) -> float:
        sizes = self.point_batch_sizes
        return float(np.mean(sizes)) if sizes else 0.0


class _Pending:
    """One queued request: its arrays and the future awaiting them.

    ``trace_id`` stamps the request the moment it is submitted (the
    caller's active trace if any, else a fresh ID) so the whole
    pipeline below — tick, store call, shard fanout, worker-side spans
    — can be joined back to it.
    """

    __slots__ = ("args", "future", "size", "trace_id", "start", "t0")

    def __init__(
        self,
        args: tuple,
        future: asyncio.Future,
        size: int,
        trace_id=None,
        start: float = 0.0,
        t0: float = 0.0,
    ):
        self.args = args
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
        self._points: list[_Pending] = []
        self._ranges: list[_Pending] = []
        self._flush_handle: asyncio.Handle | None = None

    # -- public request surface ------------------------------------------------

    async def lookup(self, key: int):
        """Single-key read; resolves to the value or ``None``."""
        values, found = await self.lookup_batch([as_int64_key(key)])
        return int(values[0]) if found[0] else None

    async def lookup_batch(self, keys):
        """(values, found) for this request's keys, served from a
        coalesced store call shared with concurrent requests.  A
        non-integer key array is a ``TypeError``, not a truncation."""
        queries = as_int64_keys(keys)
        return await self._submit(self._points, (queries,), queries.size)

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
        return await self._submit(
            self._ranges, (lows, highs), lows.size
        )

    # -- queueing & flush scheduling -------------------------------------------

    async def _submit(self, queue: list, args: tuple, size: int):
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        if obs_state.enabled:
            # Stamp the request: adopt the caller's trace if one is
            # active, otherwise this request starts its own.
            trace_id = tracing.current_trace_id() or tracing.new_trace_id()
            pending = _Pending(
                args, future, size, trace_id, time.time(),
                time.perf_counter(),
            )
        else:
            pending = _Pending(args, future, size)
        queue.append(pending)
        if self._flush_handle is None:
            self._flush_handle = loop.call_soon(self._flush)
        return await future

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
                    self._run_flush(points, ranges)
        else:
            self._run_flush(points, ranges)

    def _run_flush(self, points: list, ranges: list) -> None:
        if points:
            self._run_batch(points, self._point_call, kind="point")
        if ranges:
            self._run_batch(ranges, self._range_call, kind="range")

    def _drop_cancelled(self, pending: list) -> list:
        kept = [req for req in pending if not req.future.cancelled()]
        if len(kept) < len(pending):
            self.stats.add(requests_cancelled=len(pending) - len(kept))
        return kept

    # -- batch execution -------------------------------------------------------

    def _point_call(self, requests: list[_Pending]) -> list:
        flat, offsets = pack_requests([r.args[0] for r in requests])
        self.stats.add(store_calls=1)
        self.stats.point_batch_sizes.append(int(flat.size))
        with tracing.span(
            "coalesce.store_call", kind="point", keys=int(flat.size)
        ):
            values, found = self.store.lookup_batch(flat)
        return [
            (v, f)
            for v, f in zip(
                unpack_results(np.asarray(values), offsets),
                unpack_results(np.asarray(found), offsets),
            )
        ]

    def _range_call(self, requests: list[_Pending]) -> list:
        lows, offsets = pack_requests([r.args[0] for r in requests])
        highs, _ = pack_requests([r.args[1] for r in requests])
        self.stats.add(store_calls=1)
        self.stats.range_batch_sizes.append(int(lows.size))
        with tracing.span(
            "coalesce.store_call", kind="range", ranges=int(lows.size)
        ):
            scan = self.store.range_query_batch(lows, highs)
        values = np.asarray(scan.values)
        csr = np.asarray(scan.offsets)
        out = []
        for i in range(len(requests)):
            first, last = int(offsets[i]), int(offsets[i + 1])
            sub_offsets = csr[first:last + 1] - csr[first]
            out.append(RangeScanResult(
                values=values[int(csr[first]):int(csr[last])],
                offsets=np.asarray(sub_offsets, dtype=np.int64),
            ))
        return out

    def _run_batch(self, requests: list, call, *, kind: str) -> None:
        try:
            results = call(requests)
        except Exception:
            self._fallback(requests, kind)
            return
        served = 0
        for req, result in zip(requests, results):
            if req.future.cancelled():
                continue
            req.future.set_result(result)
            served += 1
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

    def _fallback(self, requests: list, kind: str) -> None:
        """Batch failed — re-run each request alone so only the
        poisoned one(s) reject."""
        cancelled = served = 0
        for req in requests:
            if req.future.cancelled():
                cancelled += 1
                continue
            try:
                if kind == "point":
                    result = self.store.lookup_batch(req.args[0])
                else:
                    result = self.store.range_query_batch(*req.args)
            except Exception as exc:  # noqa: BLE001 — per-request verdict
                req.future.set_exception(exc)
            else:
                req.future.set_result(result)
                served += 1
                self._finish_request(req, kind)
        self.stats.add(
            requests_cancelled=cancelled,
            fallback_requests=len(requests) - cancelled,
            store_calls=served,
            requests_served=served,
        )
