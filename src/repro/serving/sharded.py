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
from dataclasses import dataclass, field
from multiprocessing import get_context

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
)
from .splitter import CDFSplitter

__all__ = ["ShardedLSMStore", "ShardedSnapshot", "ShardedMetrics"]

#: ``via="auto"`` fans a read out to the workers once the *per-shard*
#: sub-batch reaches this size; below it, the pipe round-trip costs
#: more than the local zero-copy resolve saves.
WORKER_BATCH_THRESHOLD = 2_048

_EMPTY_I64 = np.empty(0, dtype=np.int64)


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
    inside a ``worker.<op>`` span, and the ack piggybacks ``{"obs":
    {"spans": [...], "metrics": delta}}`` — the finished span records
    plus the registry delta since the previous ack.  Workers are
    purely command-driven (``background=False``), so ack-time deltas
    are complete: merging every delta reconstructs the worker's
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
        conn.send({"ok": True, "epoch": publisher.publish(store)})
        while True:
            cmd = conn.recv()
            # A new command proves the client processed the previous
            # ack (it adopts epochs before sending again), so every
            # segment that ack superseded is now unreferenced.
            publisher.unlink_retired()
            op = cmd["op"]
            if op == "close":
                conn.send({"ok": True, "result": None, "epoch": None})
                return
            try:
                result = None
                epoch = None
                with tracing.adopt(cmd.get("trace")), tracing.span(
                    "worker." + op, shard=shard_id
                ):
                    if op == "insert_batch":
                        store.insert_batch(cmd["keys"], cmd["values"])
                        epoch = publish()
                    elif op == "delete_batch":
                        store.delete_batch(cmd["keys"])
                        epoch = publish()
                    elif op == "flush":
                        store.flush()
                        epoch = publish()
                    elif op == "compact":
                        store.compact()
                        epoch = publish()
                    elif op == "lookup_batch":
                        result = store.lookup_batch(cmd["keys"])
                    elif op in ("range_query_batch", "range_items_batch"):
                        result = _range_answer(
                            store, cmd["lows"], cmd["highs"],
                            op == "range_items_batch",
                        )
                    elif op == "backup":
                        store.backup(cmd["dest"])
                    elif op == "stats":
                        result = {
                            "num_runs": store.num_runs,
                            "live_keys": int(len(store)),
                            "seals": store.write_stats.seals,
                            "compactions": store.write_stats.compactions,
                            "memtable": len(store.memtable),
                        }
                    else:
                        raise ValueError(f"unknown op {op!r}")
                ack = {"ok": True, "result": result, "epoch": epoch}
                if obs_state.enabled:
                    ack["obs"] = obs_payload()
                conn.send(ack)
            except Exception as exc:  # noqa: BLE001 — relayed to client
                err_ack = {
                    "ok": False,
                    "error": f"{type(exc).__name__}: {exc}",
                }
                if obs_state.enabled:
                    # Ship (and clear) telemetry on failures too, so a
                    # failed command's spans don't leak into the next
                    # ack's trace.
                    err_ack["obs"] = obs_payload()
                conn.send(err_ack)
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
                ack = self._recv(shard)
                self._adopt(shard, ack["epoch"])
        except BaseException:
            self.close()
            raise

    # -- protocol plumbing -----------------------------------------------------

    def _recv(self, shard: int) -> dict:
        try:
            ack = self._conns[shard].recv()
        except EOFError:
            raise RuntimeError(f"shard {shard} worker died") from None
        payload = ack.pop("obs", None)
        if payload is not None:
            # Absorb telemetry before the ok-check so a failing
            # command still lands its spans and metric deltas.
            self._shard_metrics[shard].merge(payload["metrics"])
            tracing.record_spans(payload["spans"])
        if not ack.get("ok"):
            raise RuntimeError(
                f"shard {shard}: {ack.get('error', 'unknown error')}"
            )
        return ack

    def _fanout(self, commands: dict[int, dict]) -> dict[int, dict]:
        """Send one command per shard, then collect acks — the workers
        execute concurrently between the two loops.

        With obs enabled the whole exchange runs inside a
        ``sharded.fanout`` span, and each command carries the trace
        context captured *inside* that span, so worker-side spans
        parent onto the fanout in the exported timeline.
        """
        if obs_state.enabled and commands:
            op = next(iter(commands.values()))["op"]
            with tracing.span("sharded.fanout", op=op, shards=len(commands)):
                wire = tracing.wire_context()
                if wire is not None:
                    for cmd in commands.values():
                        cmd["trace"] = wire
                return self._fanout_inner(commands)
        return self._fanout_inner(commands)

    def _fanout_inner(self, commands: dict[int, dict]) -> dict[int, dict]:
        for shard, cmd in commands.items():
            self._conns[shard].send(cmd)
        acks: dict[int, dict] = {}
        errors = []
        for shard in commands:
            try:
                ack = self._recv(shard)
            except RuntimeError as exc:
                errors.append(exc)
                continue
            if ack.get("epoch") is not None:
                self._adopt(shard, ack["epoch"])
            acks[shard] = ack
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
        self._fanout({
            shard: {
                "op": op,
                "keys": keys[idx],
                "values": values if values is None else values[idx],
            }
            for shard, idx in self._split(keys).items()
        })

    def flush(self) -> None:
        self._ensure_open()
        self._fanout({s: {"op": "flush"} for s in range(self.num_shards)})

    def compact(self) -> None:
        self._ensure_open()
        self._fanout({s: {"op": "compact"} for s in range(self.num_shards)})

    def backup(self, dest: str) -> None:
        """Per-shard backups under ``dest/shard-<i>`` (hard-link
        snapshots — see :meth:`LearnedLSMStore.backup`)."""
        self._ensure_open()
        self._fanout({
            s: {"op": "backup", "dest": os.path.join(dest, f"shard-{s}")}
            for s in range(self.num_shards)
        })

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
            acks = self._fanout({
                shard: {"op": "lookup_batch", "keys": queries[idx]}
                for shard, idx in parts.items()
            })
            answers = {shard: ack["result"] for shard, ack in acks.items()}
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
            acks = self._fanout({
                shard: {"op": op, "lows": lows[sel], "highs": highs[sel]}
                for shard, sel in parts.items()
            })
            answers = {shard: ack["result"] for shard, ack in acks.items()}
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
        acks = self._fanout(
            {s: {"op": "stats"} for s in range(self.num_shards)}
        )
        return [acks[s]["result"] for s in range(self.num_shards)]

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

    def close(self) -> None:
        """Stop every worker and release every mapping; idempotent.
        Outstanding snapshots become invalid."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send({"op": "close"})
            except (OSError, ValueError):
                pass
        for conn in self._conns:
            try:
                conn.recv()
            except (EOFError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join(timeout=5)
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
