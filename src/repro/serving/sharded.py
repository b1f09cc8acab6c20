"""Key-range-sharded LSM store with zero-copy cross-process reads.

:class:`ShardedLSMStore` partitions the key space across N
:class:`~repro.lsm.store.LearnedLSMStore` shards, each owned by a
worker *process* (real parallelism — each worker's kernel loops run on
its own interpreter).  Writes route through a learned-CDF-balanced
:class:`~repro.serving.splitter.CDFSplitter`; reads come in two
flavours:

* ``via="local"`` — the client answers point/range batches itself,
  through one :class:`~repro.lsm.store.ReadView` per shard over the
  workers' shared-memory segments (:mod:`repro.serving.shm`).  Zero
  IPC, zero copy: the client's probes touch the same physical pages
  the workers sealed.  This is the low-latency path for the small
  batches a coalescing front end produces.
* ``via="worker"`` — per-shard sub-batches fan out over the command
  pipes and resolve inside the worker processes concurrently.  This is
  the throughput path for large batches: N shards bring N cores to one
  batch, which is what the 1 → 4 shard scaling gate measures.

``via="auto"`` (default) picks by per-shard sub-batch size; a worker
answers its sub-batch through the same ``ReadView`` code in its store.

Wire form: every message in both directions — command, ack, error
ack, the spawn-time ack — is one frame, sent with one
``Connection.send_bytes``.  A frame is a fixed 16-byte header (op code,
array count, tail length, per-shard sequence number), one 16-byte
``(dtype char, length)`` entry per array, the arrays' raw buffers (each
padded to 8 bytes, so decoded views are aligned), then an optional
tail, pickled with the connection's own pickler, for everything that is
not an array: epoch descriptor, trace context, obs payload, error text,
``backup`` destination, ``stats`` dict.  Reads carry no tail unless
telemetry is on, so a read round trip pickles nothing; the receiver
decodes each array as a read-only ``np.frombuffer`` view of the frame.
An ack echoes its command's sequence number.  A closed or broken pipe,
or an ack whose number is not its command's, raises
:class:`ShardUnavailable` and fails the store closed.

Consistency: each worker ack carries the shard's current epoch (run
set + memtable view triple) and the client adopts it before issuing
another command, so a client that writes then reads always sees its
own write.  :meth:`ShardedLSMStore.snapshot` pins every shard's
current epoch into a :class:`ShardedSnapshot` — the PR 7 epoch-read
contract across the shard boundary: the snapshot answers from exactly
that cross-shard state while workers keep sealing, compacting, and
unlinking superseded segments (Linux keeps pinned mappings valid).

Threading contract mirrors the underlying store: one thread drives
writes and epoch adoption (the asyncio event loop, in the serving
stack); local reads and snapshot reads may not run concurrently with
that thread's epoch adoption — in practice everything lives on the
loop thread, where the contract holds by construction.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from multiprocessing import get_context
from multiprocessing.reduction import ForkingPickler

import numpy as np

from ..core.engine import GroupScatter
from ..lsm.store import (
    KVSurface,
    LearnedLSMStore,
    ReadView,
    as_int64_keys,
    as_int64_pairs,
    range_endpoints,
)
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
from .shm import (
    RunPublisher,
    attach_memtable,
    attach_run,
    default_prefix,
    segment_names,
    unlink_segments,
)
from .splitter import CDFSplitter

__all__ = [
    "ShardedLSMStore",
    "ShardedSnapshot",
    "ShardedMetrics",
    "ShardUnavailable",
]

#: ``via="auto"`` fans a read out to the workers once the *per-shard*
#: sub-batch reaches this size; below it, the pipe round-trip costs
#: more than the local zero-copy resolve saves.
WORKER_BATCH_THRESHOLD = 2_048

_EMPTY_I64 = np.empty(0, dtype=np.int64)

#: Frame op names; a name's index is its code on the wire.
_OPS = (
    "ack", "error", "close", "insert_batch", "delete_batch", "flush",
    "compact", "lookup_batch", "range_query_batch", "range_items_batch",
    "backup", "stats",
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


def _try_close(shm) -> bool:
    """Close a mapping unless numpy views still export its buffer (a
    caller may briefly hold a result view); deferred retries catch it
    once the exports die."""
    try:
        shm.close()
        return True
    except BufferError:
        return False


def _concat(pieces: list) -> np.ndarray:
    return np.concatenate(pieces) if pieces else _EMPTY_I64


def _range_answer(view, lows, highs, with_values: bool) -> tuple:
    """One shard's range answer in wire form, ``(values, offsets[,
    payloads])``, from a worker's store or a client epoch alike."""
    if with_values:
        scan, payloads = view.range_items_batch(lows, highs)
        return scan.values, scan.offsets, payloads
    scan = view.range_query_batch(lows, highs)
    return scan.values, scan.offsets


def _shard_worker(
    conn, shard_id: int, store_kwargs: dict, obs_enabled: bool = False
) -> None:
    """Worker-process main loop: own one shard, answer commands, and
    publish every post-write epoch through shared memory.

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
    store = LearnedLSMStore(**store_kwargs)
    publisher = RunPublisher(default_prefix(shard_id))
    obs_prev = RegistrySnapshot()

    def obs_payload() -> dict:
        nonlocal obs_prev
        current = default_registry().snapshot()
        current.merge(store.registry.snapshot())
        delta = current.diff(obs_prev)
        obs_prev = current
        return {"spans": tracing.drain_spans(), "metrics": delta}

    def publish():
        with tracing.span("shm.publish", shard=shard_id):
            return publisher.publish(store)

    try:
        conn.send_bytes(
            _encode("ack", 0, tail={"epoch": publisher.publish(store)})
        )
        while True:
            op, seq, arrays, tail = _decode(conn.recv_bytes())
            # A new command proves the client processed the previous
            # ack (it adopts epochs before sending again), so every
            # segment that ack superseded is now unreferenced.
            publisher.unlink_retired()
            if op == "close":
                conn.send_bytes(_encode("ack", seq))
                return
            kind, result, reply = "ack", (), {}
            try:
                with tracing.adopt(tail.get("trace")), tracing.span(
                    "worker." + op, shard=shard_id
                ):
                    if op == "insert_batch":
                        store.insert_batch(*arrays)
                        reply["epoch"] = publish()
                    elif op == "delete_batch":
                        store.delete_batch(*arrays)
                        reply["epoch"] = publish()
                    elif op == "flush":
                        store.flush()
                        reply["epoch"] = publish()
                    elif op == "compact":
                        store.compact()
                        reply["epoch"] = publish()
                    elif op == "lookup_batch":
                        result = store.lookup_batch(*arrays)
                    elif op in ("range_query_batch", "range_items_batch"):
                        result = _range_answer(
                            store, *arrays, op == "range_items_batch"
                        )
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
        publisher.close()
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


class _ClientEpoch(ReadView):
    """One shard's published state, mapped into the client process: a
    :class:`~repro.lsm.store.ReadView` whose runs and memtable view
    triple alias the worker's shared pages."""

    __slots__ = ("names", "_mem_shm", "pins")

    def __init__(self, desc: dict, cache: dict):
        self.names = segment_names(desc)
        runs = []
        for run_desc in desc["runs"]:
            entry = cache.get(run_desc["name"])
            if entry is None:
                entry = attach_run(run_desc)
                cache[run_desc["name"]] = entry
            runs.append(entry[1])
        self._mem_shm, mem = None, (_EMPTY_I64,) * 3
        if desc.get("memtable") is not None:
            self._mem_shm, mem = attach_memtable(desc["memtable"])
        super().__init__(mem, runs)
        self.pins = 0

    def drop_mappings(self) -> list:
        """Release every reference into shared pages (the memtable
        mapping closes here; run mappings belong to the cache).
        Returns any mapping that could not close yet (live exports)."""
        self.runs = []
        self.mem = None
        shm, self._mem_shm = self._mem_shm, None
        if shm is not None and not _try_close(shm):
            return [shm]
        return []


class ShardedSnapshot:
    """A pinned cross-shard epoch: every read answers from the exact
    per-shard states current at construction, no matter what the
    workers do afterwards.  Release when done (context manager)."""

    def __init__(self, store: "ShardedLSMStore"):
        self._store = store
        self._epochs = list(store._epochs)
        for epoch in self._epochs:
            epoch.pins += 1
        self._released = False

    def lookup_batch(self, keys) -> tuple[np.ndarray, np.ndarray]:
        self._ensure_live()
        return self._store._points(keys, epochs=self._epochs)

    def range_query_batch(self, lows, highs) -> RangeScanResult:
        self._ensure_live()
        return self._store._ranges(lows, highs, False, epochs=self._epochs)

    def range_items_batch(self, lows, highs):
        self._ensure_live()
        return self._store._ranges(lows, highs, True, epochs=self._epochs)

    def _ensure_live(self) -> None:
        if self._released:
            raise ValueError("snapshot has been released")

    def release(self) -> None:
        if self._released:
            return
        self._released = True
        for shard, epoch in enumerate(self._epochs):
            epoch.pins -= 1
            self._store._sweep_epochs(shard)

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
        Optional bulk load, routed by the splitter and loaded inside
        each worker at startup (no write amplification, like the
        single store's bulk path).
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
        Default routing for reads issued without an explicit ``via``
        (``"auto"``/``"local"``/``"worker"``) — lets a front end that
        never sees the ``via`` kwarg (e.g. the coalescer) pin its
        reads to the worker path.
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
        read_via: str = "auto",
    ):
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if read_via not in ("auto", "local", "worker"):
            raise ValueError(
                f"read_via must be auto/local/worker, not {read_via!r}"
            )
        self.num_shards = int(num_shards)
        self.read_via = read_via
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
                shard: {"keys": keys[idx], "values": values[idx]}
                for shard, idx in self._split(keys).items()
            }
        base_kwargs = dict(store_kwargs or {})
        # Workers compact synchronously so every structural change
        # rides a command ack — the epoch protocol's invariant.
        base_kwargs["background"] = False
        ctx = get_context("spawn")
        self._procs = []
        self._conns = []
        #: Sequence number of the last command sent, per shard (the
        #: spawn-time ack answers 0).
        self._seq = [0] * self.num_shards
        #: Why the store failed closed (see :class:`ShardUnavailable`).
        self._failed: str | None = None
        self._closed = False
        self._caches: list[dict] = [{} for _ in range(self.num_shards)]
        #: Superseded-but-pinned epochs per shard.
        self._pinned: list[list[_ClientEpoch]] = [
            [] for _ in range(self.num_shards)
        ]
        #: Mappings awaiting close (BufferError-deferred) per shard.
        self._deferred: list[list] = [[] for _ in range(self.num_shards)]
        self._epochs: list[_ClientEpoch | None] = [None] * self.num_shards
        try:
            for shard in range(self.num_shards):
                kwargs = dict(base_kwargs)
                if path is not None:
                    kwargs["path"] = os.path.join(path, f"shard-{shard}")
                kwargs.update(bulk.get(shard, {}))
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
        its telemetry absorbed and its epoch adopted.  A relayed worker
        exception raises ``RuntimeError``; a lost shard, or an ack left
        unread by an interrupted call, :class:`ShardUnavailable`."""
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
        if tail.get("epoch") is not None:
            self._adopt(shard, tail["epoch"])
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

    # -- epoch adoption --------------------------------------------------------

    def _adopt(self, shard: int, desc: dict) -> None:
        old = self._epochs[shard]
        self._epochs[shard] = _ClientEpoch(desc, self._caches[shard])
        if old is not None:
            if old.pins > 0:
                self._pinned[shard].append(old)
            else:
                self._deferred[shard] += old.drop_mappings()
        self._sweep_epochs(shard)

    def _sweep_epochs(self, shard: int) -> None:
        """Drop released superseded epochs, then close run segments no
        live epoch references (current + still-pinned)."""
        pinned = [e for e in self._pinned[shard] if e.pins > 0]
        deferred = []
        for epoch in self._pinned[shard]:
            if epoch.pins == 0:
                deferred += epoch.drop_mappings()
        self._pinned[shard] = pinned
        live_epochs = pinned + (
            [self._epochs[shard]] if self._epochs[shard] else []
        )
        referenced = set().union(*(e.names for e in live_epochs), set())
        cache = self._caches[shard]
        for name in [n for n in cache if n not in referenced]:
            shm = cache[name][0]
            # Drop the cache's run reference before closing — the run's
            # arrays are views into this very mapping.
            del cache[name]
            if not _try_close(shm):
                deferred.append(shm)
        deferred += [s for s in self._deferred[shard] if not _try_close(s)]
        self._deferred[shard] = deferred

    # -- write path ------------------------------------------------------------

    def _split(self, keys: np.ndarray) -> dict[int, np.ndarray]:
        """``{shard: batch positions}`` for every shard that owns some
        of ``keys`` — the one scatter the bulk load, writes and point
        reads share; stable, so per-shard order is batch order and
        last-wins on duplicates survives the split."""
        route = GroupScatter(
            self.splitter.shard_of_batch(keys), self.num_shards
        )
        return {
            shard: idx
            for shard in range(self.num_shards)
            if (idx := route.indices(shard)).size
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

    def lookup_batch(
        self, keys, *, via: str | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """(values, found) across all shards — same contract as
        :meth:`LearnedLSMStore.lookup_batch`.  ``via=None`` falls back
        to the store's ``read_via`` default."""
        self._ensure_open()
        return self._points(keys, via=via)

    def range_query_batch(
        self, lows, highs, *, via: str | None = None
    ) -> RangeScanResult:
        """Live keys per closed range, stitched across shards (shard
        intervals are ordered, so per-shard sorted results concatenate
        sorted)."""
        self._ensure_open()
        return self._ranges(lows, highs, False, via=via)

    def range_items_batch(
        self, lows, highs, *, via: str | None = None
    ) -> tuple[RangeScanResult, np.ndarray]:
        self._ensure_open()
        return self._ranges(lows, highs, True, via=via)

    def snapshot(self) -> ShardedSnapshot:
        """Pin the current cross-shard epoch for consistent reads."""
        self._ensure_open()
        return ShardedSnapshot(self)

    def _use_workers(self, batch_size: int, via: str | None) -> bool:
        via = via or self.read_via
        if via == "local":
            return False
        if via == "worker":
            return True
        if via != "auto":
            raise ValueError(f"via must be auto/local/worker, not {via!r}")
        return (
            self.num_shards > 1
            and batch_size >= WORKER_BATCH_THRESHOLD * self.num_shards
        )

    def _points(
        self, keys, *, via=None, epochs=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Scatter the batch by shard, answer each sub-batch — from
        its shard's view in ``epochs`` (a snapshot's pinned ones;
        default: the current ones unless ``via`` picks the workers),
        or with one worker fanout — and gather into batch order."""
        queries = as_int64_keys(keys)
        if epochs is None and not self._use_workers(queries.size, via):
            epochs = self._epochs
        values = np.zeros(queries.size, dtype=np.int64)
        found = np.zeros(queries.size, dtype=bool)
        parts = self._split(queries)
        if epochs is not None:
            answers = {
                shard: epochs[shard].lookup_batch(queries[idx])
                for shard, idx in parts.items()
            }
        else:
            # Client-observed worker read load: every lookup command
            # issued is answered by exactly one worker.lookup_batch
            # span, so the merged per-shard span histogram count
            # equals this counter.
            self.registry.counter(
                "serving.sharded.lookup.worker_batches"
            ).inc(len(parts))
            self.registry.counter("serving.sharded.lookup.worker_keys").inc(
                int(queries.size)
            )
            acks = self._fanout("lookup_batch", {
                shard: (queries[idx],) for shard, idx in parts.items()
            })
            answers = {shard: arrays for shard, (arrays, _) in acks.items()}
        for shard, idx in parts.items():
            values[idx], found[idx] = answers[shard]
        return values, found

    def _ranges(self, lows, highs, with_values, *, via=None, epochs=None):
        """Route each range to the shards it overlaps, answer each
        shard's sub-batch (``via`` / ``epochs`` as in :meth:`_points`)
        and stitch the per-shard CSR results into one per-range CSR.

        Routing truncates float endpoints (conservative: it can only
        add a shard whose answer comes back empty); the shards see the
        native-dtype endpoints, like a single store's runs do.
        """
        lows, highs = range_endpoints(lows, highs)
        if epochs is None and not self._use_workers(lows.size, via):
            epochs = self._epochs
        overlap = self.splitter.shards_overlapping(lows, highs)
        parts = {
            shard: sel
            for shard in range(self.num_shards)
            if (sel := np.nonzero(overlap[shard])[0]).size
        }
        if epochs is not None:
            answers = {
                shard: _range_answer(
                    epochs[shard], lows[sel], highs[sel], with_values
                )
                for shard, sel in parts.items()
            }
        else:
            op = "range_items_batch" if with_values else "range_query_batch"
            acks = self._fanout(op, {
                shard: (lows[sel], highs[sel]) for shard, sel in parts.items()
            })
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
        """Stop every worker and release every mapping; idempotent.
        Outstanding snapshots become invalid.  Segments a killed worker
        never unlinked are unlinked here."""
        if self._closed:
            return
        self._closed = True
        close = _encode("close", 0)
        for conn in self._conns:
            try:
                conn.send_bytes(close)
            except (OSError, ValueError):
                pass
        for conn in self._conns:
            try:
                conn.recv_bytes()
            except (EOFError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join(timeout=5)
        for shard, proc in enumerate(self._procs):
            unlink_segments(default_prefix(shard, proc.pid))
        for conn in self._conns:
            conn.close()
        for shard in range(self.num_shards):
            epoch = self._epochs[shard]
            if epoch is not None:
                self._deferred[shard] += epoch.drop_mappings()
            self._epochs[shard] = None
            for pinned in self._pinned[shard]:
                self._deferred[shard] += pinned.drop_mappings()
            self._pinned[shard] = []
            cache = self._caches[shard]
            for name in list(cache):
                shm = cache[name][0]
                del cache[name]
                if not _try_close(shm):
                    self._deferred[shard].append(shm)
            self._deferred[shard] = [
                s for s in self._deferred[shard] if not _try_close(s)
            ]

    def __repr__(self) -> str:
        return (
            f"ShardedLSMStore(num_shards={self.num_shards}, "
            f"closed={self._closed})"
        )
