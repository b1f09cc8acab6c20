"""Key-range-sharded LSM store: every shard is served by its own worker.

:class:`ShardedLSMStore` partitions the key space with a
:class:`~repro.serving.splitter.CDFSplitter` (N-1 interior boundaries
from a sorted key sample — the learned CDF as a router;
``shards_overlapping`` routes range batches) across N
:class:`~repro.lsm.store.LearnedLSMStore` shards.  Each shard lives in
a spawned worker *process* (real parallelism — each worker's kernel
loops run on its own interpreter), built with ``background=False`` so
every structural change rides a command ack.

Every read and every write is one :meth:`ShardedLSMStore._fanout`:
the per-shard sub-batches go out over the command pipes before any
ack is read, so the shards work concurrently, and each worker answers
through its own store — that is, through
:class:`~repro.lsm.store.ReadView`, the one piece of code that reads
an LSM state.  Point answers scatter back into batch order; range
answers stitch by a stable argsort on range ids.

Surface: the store is a :class:`~repro.lsm.store.KVSurface`.  It
defines the three batch reads and one ``_write(kind, keys, values)``
— a stable ``_split`` of the record by owning shard, then one fan-out
of ``insert_batch`` / ``delete_batch`` sub-batches — and inherits
every scalar and write entry point.  The key contract is therefore
the single store's: a non-integer key or value is a ``TypeError`` and
a key outside int64 (Python int or uint64 array) an ``OverflowError``,
raised client-side before any shard sees the call; float *range
endpoints* still bound the range where they say.

Wire form: every message in both directions — command, ack, error
ack, the start-up ``open`` frame and its ack — is one frame, sent with
one ``Connection.send_bytes``.  A frame is a fixed 16-byte header (op
code, array count, tail length, per-shard sequence number), one 16-byte
``(dtype char, length)`` entry per array, the arrays' raw buffers (each
padded to 8 bytes, so decoded views are aligned), then an optional
tail, pickled with the connection's own pickler, for everything that is
not an array: snapshot number, trace context, obs payload, error text,
``backup`` destination, ``stats`` dict.  With telemetry off, reads
outside a snapshot and writes carry no tail either way, so the client
pickles nothing for them; the receiver decodes each array as a
read-only ``np.frombuffer`` view of the frame, which the worker's store
takes as it is.

Failure contract: an ack echoes its command's sequence number.  A
closed or broken pipe, or an ack whose number is not its command's,
raises :class:`ShardUnavailable` and fails the store closed — at
start-up too, as a worker reads its bulk ``(keys, values)`` from its
first frame (op ``open``), not from its spawn payload, which
``Process.start`` would block on writing to a dead worker.  An
exception inside a worker is relayed as a plain ``RuntimeError`` and
the store stays usable.  :meth:`ShardedLSMStore.close` gives the
workers :data:`CLOSE_GRACE_S` seconds in all to ack and exit, then
kills the rest, so a hung worker cannot block it; any other call still
waits on a hung worker without a deadline.

Snapshots: :meth:`ShardedLSMStore.snapshot` is the single store's
epoch-read contract across the shard boundary, held inside the
workers.  The client picks a number and sends op ``snapshot`` to every
shard; each worker keeps a
:meth:`~repro.lsm.store.LearnedLSMStore.snapshot` under it.  A
:class:`ShardedSnapshot` read carries ``{"snapshot": n}`` in its frame
tail and is answered from that pinned view, so it stays stable while
later writes, flushes and compactions land.  The runs it pins are
deleted once :meth:`ShardedSnapshot.release` sends op ``release``; a
worker's ``close`` releases whatever snapshot is still held.

Threading: one thread drives the store (the asyncio event loop, in the
serving stack) — the per-shard sequence numbers assume commands do not
interleave.

Gates (the CI ``serving`` lane runs ``tests/test_serving.py`` and
``tests/test_sharded.py`` under ``PYTHONDEVMODE=1``, then the
benchmark's ``uniform_mixed`` smoke run): every read matches a single
:class:`~repro.lsm.store.LearnedLSMStore` oracle, through a history
that interleaves reads and snapshot reads with writes, flushes and
compactions; ``TestReadHolderConformance`` holds the single store, its
snapshot, this store, its snapshot and the coalescer over either store
to one dict replay for all three reads; every call the key contract refuses leaves
each holder usable and equal to that replay; and structural pins keep
this module free of a read implementation of its own and every
``repro`` module free of shared memory.
"""

from __future__ import annotations

import itertools
import os
import struct
import time
from dataclasses import dataclass, field
from multiprocessing import get_context
from multiprocessing.reduction import ForkingPickler

import numpy as np

from ..lsm.store import KVSurface, LearnedLSMStore
from ..lsm.wal import RECORD_PUT
from ..obs import (
    MetricsRegistry,
    RegistrySnapshot,
    default_registry,
    set_enabled,
    tracing,
)
from ..obs import state as obs_state
from ..range_scan import RangeScanResult
from ..util import as_int64_keys, as_int64_pairs, range_endpoints
from .splitter import CDFSplitter

__all__ = [
    "ShardedLSMStore",
    "ShardedSnapshot",
    "ShardedMetrics",
    "ShardUnavailable",
]

#: Seconds :meth:`ShardedLSMStore.close` waits, for all workers
#: together, for close acks and exits before it kills the workers left.
CLOSE_GRACE_S = 10.0

_EMPTY_I64 = np.empty(0, dtype=np.int64)

#: Frame op names; a name's index is its code on the wire.
_OPS = (
    "ack", "error", "close", "insert_batch", "delete_batch", "flush",
    "compact", "lookup_batch", "range_query_batch", "range_items_batch",
    "backup", "stats", "snapshot", "release", "open",
)
_OP_CODES = {op: code for code, op in enumerate(_OPS)}
#: Op code, array count, tail length, per-shard sequence number.
_HEADER = struct.Struct("<HHIQ")
#: One per array: dtype char, element count.
_ENTRY = struct.Struct("<c7xQ")
_PAD = tuple(bytes(n) for n in range(8))


class ShardUnavailable(RuntimeError):
    """A shard worker stopped answering: its pipe closed or broke, or
    an ack arrived that is not its command's.  The store fails closed —
    every later call raises this too — since a command may still be in
    flight whose ack a later call would read as its own.  An exception
    inside a worker is relayed as a plain ``RuntimeError`` instead, and
    the store stays usable."""


def _encode(op: str, seq: int, arrays=(), tail: dict | None = None) -> bytes:
    """One frame (see the module docstring): header, array entries,
    the raw buffers 8-aligned, then ``tail`` pickled unless empty."""
    arrays = [np.ascontiguousarray(a) for a in arrays]
    tail = ForkingPickler.dumps(tail) if tail else b""
    parts = [_HEADER.pack(_OP_CODES[op], len(arrays), len(tail), seq)]
    parts += [_ENTRY.pack(a.dtype.char.encode(), a.size) for a in arrays]
    for a in arrays:
        parts += (a, _PAD[-a.nbytes % 8])
    parts.append(tail)
    return b"".join(parts)


def _decode(frame: bytes) -> tuple[str, int, list, dict]:
    """``(op, seq, arrays, tail)`` of one frame; every array is a
    read-only view of ``frame``, and an absent tail reads as ``{}``."""
    code, count, tail_len, seq = _HEADER.unpack_from(frame)
    offset = _HEADER.size + count * _ENTRY.size
    arrays = []
    for entry in range(count):
        char, size = _ENTRY.unpack_from(
            frame, _HEADER.size + entry * _ENTRY.size
        )
        array = np.frombuffer(frame, char, size, offset)
        arrays.append(array)
        offset += array.nbytes + -array.nbytes % 8
    tail = ForkingPickler.loads(frame[offset:]) if tail_len else {}
    return _OPS[code], seq, arrays, tail


def _concat(pieces: list) -> np.ndarray:
    return np.concatenate(pieces) if pieces else _EMPTY_I64


def _shard_worker(
    conn, shard_id: int, store_kwargs: dict, obs_enabled: bool = False
) -> None:
    """Worker-process main loop: own one shard and answer commands,
    holding the client's snapshots by number.

    Telemetry protocol (PR 9): the client forwards its obs flag at
    spawn time (a spawned interpreter re-imports ``repro.obs.state``,
    so a runtime ``set_enabled`` would otherwise not propagate).  When
    on, each command executes under the client's adopted trace context
    inside a ``worker.<op>`` span, and the ack's tail piggybacks
    ``"obs": {"spans": [...], "metrics": delta}`` — the finished span
    records plus the registry delta since the previous ack.  Workers
    are purely command-driven (``background=False``), so ack-time
    deltas are complete: merging every delta reconstructs the worker's
    registry exactly.
    """
    if obs_enabled:
        set_enabled(True)
    tracing.set_process_name(f"shard-{shard_id}")
    # The ``open`` frame: the bulk ``(keys, values)``, if any.
    _, seq, bulk, _ = _decode(conn.recv_bytes())
    store = LearnedLSMStore(
        **dict(zip(("keys", "values"), bulk)), **store_kwargs
    )
    del bulk  # views of the frame; the store keeps its own copies
    snapshots = {}
    obs_prev = RegistrySnapshot()

    def obs_payload() -> dict:
        nonlocal obs_prev
        current = default_registry().snapshot()
        current.merge(store.registry.snapshot())
        delta = current.diff(obs_prev)
        obs_prev = current
        return {"spans": tracing.drain_spans(), "metrics": delta}

    try:
        conn.send_bytes(_encode("ack", seq))
        while True:
            op, seq, arrays, tail = _decode(conn.recv_bytes())
            if op == "close":
                conn.send_bytes(_encode("ack", seq))
                return
            kind, result, reply = "ack", (), {}
            try:
                with tracing.adopt(tail.get("trace")), tracing.span(
                    "worker." + op, shard=shard_id
                ):
                    view = store
                    if "snapshot" in tail and op != "snapshot":
                        view = snapshots[tail["snapshot"]]
                    if op == "insert_batch":
                        store.insert_batch(*arrays)
                    elif op == "delete_batch":
                        store.delete_batch(*arrays)
                    elif op == "flush":
                        store.flush()
                    elif op == "compact":
                        store.compact()
                    elif op == "lookup_batch":
                        result = view.lookup_batch(*arrays)
                    elif op == "range_query_batch":
                        scan = view.range_query_batch(*arrays)
                        result = scan.values, scan.offsets
                    elif op == "range_items_batch":
                        scan, payloads = view.range_items_batch(*arrays)
                        result = scan.values, scan.offsets, payloads
                    elif op == "snapshot":
                        snapshots[tail["snapshot"]] = store.snapshot()
                    elif op == "release":
                        del snapshots[tail["snapshot"]]
                        view.release()
                        # This process is its store's only writer, so
                        # it may delete the runs the snapshot held.
                        store._drain_retired()
                    elif op == "backup":
                        store.backup(
                            os.path.join(tail["dest"], f"shard-{shard_id}")
                        )
                    elif op == "stats":
                        reply["stats"] = {
                            "num_runs": store.num_runs,
                            "live_keys": int(len(store)),
                            "seals": store.write_stats.seals,
                            "compactions": store.write_stats.compactions,
                            "memtable": len(store.memtable),
                        }
                    else:
                        raise ValueError(f"unknown op {op!r}")
            except Exception as exc:  # noqa: BLE001 — relayed to client
                kind, result = "error", ()
                reply = {"error": f"{type(exc).__name__}: {exc}"}
            if obs_state.enabled:
                # Ship (and clear) telemetry on failures too, so a
                # failed command's spans don't leak into the next
                # ack's trace.
                reply["obs"] = obs_payload()
            conn.send_bytes(_encode(kind, seq, result, reply))
    finally:
        for snap in snapshots.values():
            snap.release()
        store.close()
        conn.close()


@dataclass
class ShardedMetrics:
    """Cross-process metrics view returned by
    :meth:`ShardedLSMStore.metrics`.

    ``per_shard[i]`` is the exact accumulation of every delta shard
    ``i`` piggybacked on its acks; ``merged`` folds all shards plus
    the client-side registry into one registry snapshot (exact, since
    histogram merge is a vector add).
    """

    client: RegistrySnapshot
    per_shard: list = field(default_factory=list)
    merged: RegistrySnapshot = field(default_factory=RegistrySnapshot)

    def to_dict(self) -> dict:
        return {
            "client": self.client.to_dict(),
            "per_shard": [s.to_dict() for s in self.per_shard],
            "merged": self.merged.to_dict(),
        }


class ShardedSnapshot:
    """A cross-shard epoch pinned inside the workers: every read
    answers from the exact per-shard states current at construction,
    no matter what the store does afterwards.  Release when done
    (context manager); closing the store releases it too."""

    def __init__(self, store: "ShardedLSMStore", number: int):
        self._store = store
        self._tail = {"snapshot": number}
        self._released = False

    def lookup_batch(self, keys) -> tuple[np.ndarray, np.ndarray]:
        self._ensure_live()
        return self._store._points(keys, self._tail)

    def range_query_batch(self, lows, highs) -> RangeScanResult:
        self._ensure_live()
        return self._store._ranges(lows, highs, False, self._tail)

    def range_items_batch(self, lows, highs):
        self._ensure_live()
        return self._store._ranges(lows, highs, True, self._tail)

    def _ensure_live(self) -> None:
        if self._released:
            raise ValueError("snapshot has been released")

    def release(self) -> None:
        """Let every worker drop its pinned view (idempotent; a no-op
        once the store is closed or failed, whose workers hold
        nothing)."""
        if self._released:
            return
        self._released = True
        store = self._store
        if not store._closed and store._failed is None:
            store._fanout("release", store._every_shard(), self._tail)

    def __enter__(self) -> "ShardedSnapshot":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()


class ShardedLSMStore(KVSurface):
    """N worker-owned LSM shards behind one batch read/write surface
    (the scalar and write entry points are :class:`KVSurface`'s).

    Parameters
    ----------
    num_shards:
        Worker process count (= key-range partitions).
    keys / values:
        Optional bulk load, routed by the splitter and sent to each
        worker in its start-up ``open`` frame, which it loads as the
        single store's bulk path does (no write amplification).
    sample_keys:
        Training sample for the CDF splitter; defaults to the bulk
        ``keys``, or a uniform int64 split when neither is given.
    splitter:
        Explicit :class:`CDFSplitter` (overrides ``sample_keys``).
    path:
        Durable root; shard ``i`` lives at ``path/shard-<i>``.
    store_kwargs:
        Extra :class:`LearnedLSMStore` keyword arguments applied to
        every shard (``memtable_capacity``, ``wal_fsync``, ...).
    read_via:
        Kept for callers that name the read path; its one value is
        ``"worker"``, anything else is a ``ValueError``.
    """

    def __init__(
        self,
        num_shards: int,
        keys=None,
        values=None,
        *,
        sample_keys=None,
        splitter: CDFSplitter | None = None,
        path: str | None = None,
        store_kwargs: dict | None = None,
        read_via: str = "worker",
    ):
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if read_via != "worker":
            raise ValueError(f"read_via must be 'worker', not {read_via!r}")
        self.num_shards = int(num_shards)
        #: Client-side registry (fanout accounting); worker-side
        #: metrics accumulate per shard from the ack piggyback.
        self.registry = MetricsRegistry()
        self._shard_metrics = [
            RegistrySnapshot() for _ in range(self.num_shards)
        ]
        if splitter is not None:
            if splitter.num_shards != self.num_shards:
                raise ValueError("splitter shard count mismatch")
            self.splitter = splitter
        else:
            sample = sample_keys if sample_keys is not None else keys
            self.splitter = (
                CDFSplitter.fit(sample, self.num_shards)
                if sample is not None
                else CDFSplitter.uniform(self.num_shards)
            )
        bulk = {}
        if keys is not None:
            keys, values = as_int64_pairs(keys, values)
            bulk = {
                shard: (keys[idx], values[idx])
                for shard, idx in self._split(keys).items()
            }
        base_kwargs = dict(store_kwargs or {})
        # Workers compact synchronously so every structural change
        # rides a command ack.
        base_kwargs["background"] = False
        ctx = get_context("spawn")
        self._procs = []
        self._conns = []
        #: Sequence number of the last command sent, per shard.
        self._seq = [0] * self.num_shards
        self._snapshot_numbers = itertools.count(1)
        #: Why the store failed closed (see :class:`ShardUnavailable`).
        self._failed: str | None = None
        self._closed = False
        try:
            for shard in range(self.num_shards):
                kwargs = dict(base_kwargs)
                if path is not None:
                    kwargs["path"] = os.path.join(path, f"shard-{shard}")
                parent, child = ctx.Pipe()
                proc = ctx.Process(
                    target=_shard_worker,
                    args=(child, shard, kwargs, obs_state.enabled),
                    daemon=True,
                )
                proc.start()
                child.close()
                self._procs.append(proc)
                self._conns.append(parent)
            for shard in range(self.num_shards):
                self._send(shard, "open", bulk.get(shard, ()), None)
            for shard in range(self.num_shards):
                self._recv(shard)
        except BaseException:
            self.close()
            raise

    # -- protocol plumbing -----------------------------------------------------

    def _unavailable(self, shard: int, reason: str) -> ShardUnavailable:
        """Fail the store closed and return the error to raise."""
        self._failed = f"shard {shard} unavailable: {reason}"
        return ShardUnavailable(self._failed)

    def _send(self, shard: int, op: str, arrays, tail) -> None:
        self._seq[shard] += 1
        frame = _encode(op, self._seq[shard], arrays, tail)
        try:
            self._conns[shard].send_bytes(frame)
        except ConnectionError as exc:
            raise self._unavailable(shard, repr(exc)) from exc

    def _recv(self, shard: int) -> tuple[list, dict]:
        """The ack to ``shard``'s last command as ``(arrays, tail)``,
        its telemetry absorbed.  A relayed worker exception raises
        ``RuntimeError``; a lost shard, or an ack left unread by an
        interrupted call, :class:`ShardUnavailable`."""
        try:
            frame = self._conns[shard].recv_bytes()
        except (EOFError, ConnectionError) as exc:
            raise self._unavailable(shard, repr(exc)) from exc
        kind, seq, arrays, tail = _decode(frame)
        if seq != self._seq[shard]:
            raise self._unavailable(
                shard, f"ack {seq} to command {self._seq[shard]}"
            )
        payload = tail.get("obs")
        if payload is not None:
            # Absorb telemetry before the error check so a failing
            # command still lands its spans and metric deltas.
            self._shard_metrics[shard].merge(payload["metrics"])
            tracing.record_spans(payload["spans"])
        if kind == "error":
            raise RuntimeError(f"shard {shard}: {tail['error']}")
        return arrays, tail

    def _fanout(
        self, op: str, commands: dict[int, tuple], tail: dict | None = None
    ) -> dict[int, tuple[list, dict]]:
        """Send ``op`` to every shard in ``commands`` (shard -> its
        arrays; ``tail`` goes to each), then collect ``(arrays, tail)``
        acks — the workers execute concurrently between the two loops.

        With obs enabled the whole exchange runs inside a
        ``sharded.fanout`` span, and each command carries the trace
        context captured *inside* that span, so worker-side spans
        parent onto the fanout in the exported timeline.
        """
        if obs_state.enabled and commands:
            with tracing.span("sharded.fanout", op=op, shards=len(commands)):
                wire = tracing.wire_context()
                if wire is not None:
                    tail = {**(tail or {}), "trace": wire}
                return self._exchange(op, commands, tail)
        return self._exchange(op, commands, tail)

    def _exchange(
        self, op: str, commands: dict[int, tuple], tail: dict | None
    ) -> dict[int, tuple[list, dict]]:
        for shard, arrays in commands.items():
            self._send(shard, op, arrays, tail)
        acks = {}
        errors = []
        for shard in commands:
            try:
                acks[shard] = self._recv(shard)
            except ShardUnavailable:
                raise
            except RuntimeError as exc:
                errors.append(exc)
        if errors:
            raise errors[0]
        return acks

    # -- write path ------------------------------------------------------------

    def _split(self, keys: np.ndarray) -> dict[int, np.ndarray]:
        """``{shard: batch positions}`` for every shard that owns some
        of ``keys`` — the one scatter the bulk load, writes and point
        reads share; stable, so per-shard order is batch order and
        last-wins on duplicates survives the split."""
        shards = self.splitter.shard_of_batch(keys)
        order = np.argsort(shards, kind="stable")
        counts = np.bincount(shards, minlength=self.num_shards)
        bounds = [0, *np.cumsum(counts).tolist()]
        return {
            shard: order[bounds[shard]:bounds[shard + 1]]
            for shard in range(self.num_shards)
            if bounds[shard + 1] > bounds[shard]
        }

    def _write(self, kind: int, keys: np.ndarray, values) -> None:
        """Route the record to its owning shards: one concurrent
        sub-batch write per shard."""
        self._ensure_open()
        op = "insert_batch" if kind == RECORD_PUT else "delete_batch"
        self._fanout(op, {
            shard: (keys[idx],) if values is None else (keys[idx], values[idx])
            for shard, idx in self._split(keys).items()
        })

    def _every_shard(self) -> dict[int, tuple]:
        return dict.fromkeys(range(self.num_shards), ())

    def flush(self) -> None:
        self._ensure_open()
        self._fanout("flush", self._every_shard())

    def compact(self) -> None:
        self._ensure_open()
        self._fanout("compact", self._every_shard())

    def backup(self, dest: str) -> None:
        """Per-shard backups under ``dest/shard-<i>`` (hard-link
        snapshots — see :meth:`LearnedLSMStore.backup`)."""
        self._ensure_open()
        self._fanout("backup", self._every_shard(), {"dest": dest})

    # -- read path -------------------------------------------------------------

    def lookup_batch(self, keys) -> tuple[np.ndarray, np.ndarray]:
        """(values, found) across all shards — same contract as
        :meth:`LearnedLSMStore.lookup_batch`."""
        return self._points(keys)

    def range_query_batch(self, lows, highs) -> RangeScanResult:
        """Live keys per closed range, stitched across shards (shard
        intervals are ordered, so per-shard sorted results concatenate
        sorted)."""
        return self._ranges(lows, highs, False)

    def range_items_batch(
        self, lows, highs
    ) -> tuple[RangeScanResult, np.ndarray]:
        return self._ranges(lows, highs, True)

    def snapshot(self) -> ShardedSnapshot:
        """Pin the current cross-shard epoch, inside every worker, for
        consistent reads."""
        self._ensure_open()
        number = next(self._snapshot_numbers)
        self._fanout("snapshot", self._every_shard(), {"snapshot": number})
        return ShardedSnapshot(self, number)

    def _points(self, keys, tail=None) -> tuple[np.ndarray, np.ndarray]:
        """Scatter the batch by shard, answer every sub-batch with one
        worker fanout (from a snapshot when ``tail`` names one) and
        gather into batch order."""
        self._ensure_open()
        queries = as_int64_keys(keys)
        parts = self._split(queries)
        # Client-observed worker read load: every lookup command issued
        # is answered by exactly one worker.lookup_batch span, so the
        # merged per-shard span histogram count equals this counter.
        self.registry.counter("serving.sharded.lookup.worker_batches").inc(
            len(parts)
        )
        self.registry.counter("serving.sharded.lookup.worker_keys").inc(
            int(queries.size)
        )
        acks = self._fanout("lookup_batch", {
            shard: (queries[idx],) for shard, idx in parts.items()
        }, tail)
        values = np.zeros(queries.size, dtype=np.int64)
        found = np.zeros(queries.size, dtype=bool)
        for shard, idx in parts.items():
            values[idx], found[idx] = acks[shard][0]
        return values, found

    def _ranges(self, lows, highs, with_values, tail=None):
        """Route each range to the shards it overlaps, answer every
        shard's sub-batch with one worker fanout (``tail`` as in
        :meth:`_points`) and stitch the per-shard CSR results into one
        per-range CSR.

        Routing truncates float endpoints (conservative: it can only
        add a shard whose answer comes back empty); the shards see the
        native-dtype endpoints, like a single store's runs do.
        """
        self._ensure_open()
        lows, highs = range_endpoints(lows, highs)
        overlap = self.splitter.shards_overlapping(lows, highs)
        parts = {
            shard: sel
            for shard in range(self.num_shards)
            if (sel := np.nonzero(overlap[shard])[0]).size
        }
        op = "range_items_batch" if with_values else "range_query_batch"
        acks = self._fanout(op, {
            shard: (lows[sel], highs[sel]) for shard, sel in parts.items()
        }, tail)
        answers = {shard: arrays for shard, (arrays, _) in acks.items()}
        # Pieces concatenate in ascending shard order; a stable sort by
        # range id then keeps shard order within each range, and shard
        # intervals ascend, so each range's keys come out sorted.
        range_rep = _concat([
            np.repeat(sel, np.diff(answers[shard][1]))
            for shard, sel in parts.items()
        ])
        order = np.argsort(range_rep, kind="stable")
        offsets = np.zeros(lows.size + 1, dtype=np.int64)
        np.cumsum(np.bincount(range_rep, minlength=lows.size), out=offsets[1:])
        result = RangeScanResult(
            values=_concat([answers[s][0] for s in parts])[order],
            offsets=offsets,
        )
        if not with_values:
            return result
        return result, _concat([answers[s][2] for s in parts])[order]

    # -- accounting / lifecycle ------------------------------------------------

    def shard_stats(self) -> list[dict]:
        """Per-shard store statistics, straight from the workers."""
        self._ensure_open()
        acks = self._fanout("stats", self._every_shard())
        return [acks[s][1]["stats"] for s in range(self.num_shards)]

    def metrics(self) -> ShardedMetrics:
        """One merged cross-process registry + per-shard breakdown.

        Worker metrics arrive as deltas piggybacked on every command
        ack (see :func:`_shard_worker`); because workers only do work
        in response to commands, the accumulated per-shard snapshots
        are exact as of each shard's last ack — no sampling, no race
        with in-flight work.  ``merged`` additionally folds in the
        client-side registry (fanout accounting).
        """
        per_shard = [snap.copy() for snap in self._shard_metrics]
        merged = RegistrySnapshot.merged(per_shard)
        merged.merge(self.registry.snapshot())
        return ShardedMetrics(
            client=self.registry.snapshot(),
            per_shard=per_shard,
            merged=merged,
        )

    def _ensure_open(self) -> None:
        super()._ensure_open()
        if self._failed is not None:
            raise ShardUnavailable(f"store failed closed: {self._failed}")

    def close(self) -> None:
        """Stop every worker; idempotent.  Outstanding snapshots are
        released.  Workers get :data:`CLOSE_GRACE_S` seconds in all to
        ack and exit; any still running after that is killed."""
        if self._closed:
            return
        self._closed = True
        deadline = time.monotonic() + CLOSE_GRACE_S
        close = _encode("close", 0)
        for conn in self._conns:
            try:
                conn.send_bytes(close)
            except (OSError, ValueError):
                pass
        for conn in self._conns:
            try:
                if conn.poll(max(deadline - time.monotonic(), 0)):
                    conn.recv_bytes()
            except (EOFError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=max(deadline - time.monotonic(), 0))
            if proc.is_alive():
                proc.kill()
                proc.join()
        for conn in self._conns:
            conn.close()

    def __repr__(self) -> str:
        return (
            f"ShardedLSMStore(num_shards={self.num_shards}, "
            f"closed={self._closed})"
        )
