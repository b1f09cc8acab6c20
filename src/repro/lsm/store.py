"""LearnedLSMStore — tiered runs of learned indexes (Appendix D.1).

The paper: "all inserts are kept in buffer and from time to time
merged ... already widely used, for example in Bigtable."  This module
is that design at system scale: a :class:`~repro.lsm.memtable.Memtable`
absorbs writes in O(1), seals into immutable sorted runs
(:class:`~repro.lsm.run.SortedRun`, each indexed by a vectorized RMI
and guarded by a bloom filter), and
:class:`~repro.lsm.compaction.SizeTieredCompaction` bounds the run
count in the background of the write path.  The result is the
trade-off triangle the single-run
:class:`~repro.core.writable.WritableLearnedIndex` cannot express:

* **write amplification** — a write is rewritten once per tier it
  passes through (policy-controlled), never O(N) per merge;
* **read amplification** — point reads fan out newest-first across
  runs, with per-run bloom filters short-circuiting the runs that
  cannot hold the key (:attr:`LSMReadStats` meters exactly how many
  negative probes the guards eliminate).  A batch read
  (:meth:`ReadView.lookup_batch`) walks the memtable and then each run
  with the keys still open: it hashes them, and derives each key's
  filter word and mask, once for every filter it asks, and from
  :data:`~repro.dispatch.ORDERED_SEARCH_MIN_KEYS` keys over a
  non-empty memtable it sorts them once, so every source is
  searched with ascending needles, and puts the answers back in the
  caller's order at the end;
* **retrain cost** — every seal/compaction builds its run's RMI with
  the PR 3 segmented least-squares pass, so model maintenance rides
  the merge's array math.

Point reads return *values* (the store maps int64 keys to int64
payloads; key-only callers let values default to the keys); range
reads return live keys, k-way merged across memtable + runs with
newest-wins dedup and tombstone shadowing via
:func:`repro.range_scan.merge_scan_results`, and
:meth:`LearnedLSMStore.range_items_batch` returns live (key, value)
pairs through the same merge.  All reads — point and range — resolve
through the exact int64 query core (ISSUE 5), so 64-bit keys beyond
2^53 never alias.

Durability (PR 6)
-----------------
Passing ``path=`` turns the store into a crash-safe database rooted at
that directory.  The moving parts:

* **The write funnel** — every write call reaches
  ``LearnedLSMStore._write(kind, keys, values)`` with its keys and
  values already int64 under the key contract (:class:`KVSurface`), so
  a call the contract refuses — a ``TypeError`` for a non-integer key
  or value, an ``OverflowError`` outside int64 — appends nothing.
  ``_write`` appends one WAL record, which is fsynced before the call
  returns (``wal_fsync=False`` defers the sync to the next seal or
  ``close``), then lands the same ``(kind, keys, values)`` in the
  memtable through :meth:`Memtable.apply
  <repro.lsm.memtable.Memtable.apply>`, the call WAL replay makes too.
  Scalar ``insert`` / ``delete`` are its two measured overrides and
  share its ``_log`` step.
* **WAL** (:mod:`repro.lsm.wal`) — every write call appends one
  checksummed record and (by default) fsyncs before returning, so a
  write that was acknowledged is a write that survives.  The memtable
  is a cache of the current WAL generation.
* **Run files** (:meth:`repro.lsm.run.SortedRun.save`) — seals and
  compactions publish each new run as one atomic checksummed section
  file; reopening maps it lazily in O(metadata).
* **Manifest** (:mod:`repro.lsm.manifest`) — the run set, current WAL
  generation, and id counters, swapped atomically on every structural
  change.  Files a new state needs are durable *before* the swap;
  files only the old state needed are deleted *after* it, so a crash
  at any intermediate point leaves either the old state or the new
  state plus harmless orphans.
* **Recovery** (``LearnedLSMStore(path=...)`` on an existing
  directory) — load the manifest, lazily open its runs,
  garbage-collect orphans, replay the WAL into the memtable
  (truncating at the first torn/corrupt record), and resume.  Recovery
  is idempotent: crashing *during* recovery and recovering again
  reaches the same state.

The one compaction policy is
:class:`~repro.lsm.compaction.SizeTieredCompaction`: ``compaction=``
takes an instance of it (the crash and concurrency tests shape run
layouts through its ``min_runs`` / ``max_runs``), and anything else
is a ``TypeError``.  The fsync-per-batch ack barrier
also reframes the PR 4 compaction sharp edge: a seal used to cascade
synchronous merges indefinitely while the caller's acknowledged batch
waited.  Durable stores therefore run one merge window per seal; the
policy's remaining debt drains one window per subsequent seal, and
:meth:`compact` still folds everything.
Memory-only stores keep the unbounded cascade (their seals never hold
an fsynced ack hostage, and layout-sensitive callers rely on it).

The guarantees are tested, not argued: ``tests/test_crash_recovery.py``
kills the store at every write / fsync / rename / remove / truncate
site of a deterministic ``FaultInjectingFilesystem`` sweep (the
harness is ``tests/fault_injection.py``), under both the "lose" and the
"keep + torn" loss models, and checks the recovered state against a
dict oracle — acknowledged writes survive, batches stay atomic,
tombstones never resurrect, and recovering twice reaches the same
state (``REPRO_CRASH_FUZZ_STRIDE`` subsamples the sweep).
``tests/test_durability.py`` holds the per-section corruption matrix
(a flipped bit is a :class:`~repro.lsm.format.CorruptRunError`, never
a wrong answer or a silent fall-back to a stale state) and the store's
lifecycle; ``tests/test_kv_history.py``'s state machine holds every
holder of a read state to a ``dict`` model through any history.

Background compaction + snapshot reads (ISSUE 7)
------------------------------------------------
``background=True`` (or ``REPRO_LSM_BACKGROUND=1``) moves every
policy-selected merge off the write path onto one daemon worker
thread: a seal only *kicks* the worker, so the acking write batch
never waits on a merge at all — the remaining write-path pauses are
the seals themselves, and :attr:`LSMWriteStats.write_stalls` meters
exactly the merges that did run inline (zero in background mode, the
property the bench gates).

Threading contract: **one writer, any number of readers**.  Write
calls (`insert*` / `delete*` / `flush` / `compact`) must come from a
single thread; reads (`lookup*`, `range_*`, `live_keys`) may race the
writer and the compactor freely.  The machinery:

* **Snapshot reads.**  Every batch read answers from one
  :class:`ReadView` — an immutable ``(memtable entries, run-set)``
  pair, the single class that reads an LSM state: the memtable's
  cached run-layout triple is grabbed *first*, then the run list is
  copied and each run's pin count incremented under the state lock.
  Memtable-first ordering is the loss-free direction — a seal that
  lands between the two grabs moves data *into* the run set, so the
  reader sees it twice (newest-wins dedup resolves the duplicate)
  rather than never.
* **Atomic swap.**  The worker merges its window from a snapshot
  without holding any structural lock, then swaps ``runs[start:stop]
  = [merged]`` + commits the manifest under the structure lock.
  Seals only ever *prepend*, so the window is relocated by identity
  and its is-oldest (tombstone-GC eligibility) property is stable.
* **Deferred deletion.**  Superseded runs are retired, and closed +
  unlinked only once their pin count returns to zero — a reader
  mid-probe never loses its memmap.  The drain runs after structural
  transitions, never on a reader thread, so reads stay IO-free; in
  synchronous single-threaded use every pin is already zero when it
  runs, so the filesystem-op sequence (and the crash sweep's
  injection-site schedule) is what it was before snapshots existed.
  Retired files a crash strands are manifest-unreferenced orphans the
  next recovery sweeps.

Lock order (outermost first): merge lock (serializes the worker
against explicit :meth:`compact`) → structure lock (serializes
manifest-committing transitions: seal vs merge swap) → state lock
(run-list reads/swaps, pins, retirement, id/sequence counters).  The
WAL has its own internal lock.  The fault harness counts injection
sites thread-safely and makes each simulated filesystem primitive
atomic, so a crash rollback never undoes an operation a real kernel
had already made durable.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np

from ..bloom.blocked import BlockedBloomFilter
from ..core.engine import SortedKeyColumn
from ..dispatch import (
    ORDERED_SEARCH_MIN_KEYS,
    UNGUARDED_PROBE_KEYS,
    column_answers,
)
from ..obs import MetricsRegistry, StatsView, counter_field
from ..obs import span as obs_span
from ..range_scan import RangeScanResult, batch_range_scan, merge_scan_results
from ..util import (
    as_int64_key, as_int64_keys, as_int64_pairs, newest_entries,
    newest_per_key, range_endpoints, sorted_order,
)
from .compaction import SizeTieredCompaction, merge_runs
from .faultfs import RealFileSystem
from .format import CorruptRunError
from .manifest import MANIFEST_NAME, commit_manifest, load_manifest
from .memtable import Memtable
from .run import SortedRun, probe_at, scan_entries
from .wal import RECORD_DELETE, RECORD_PUT, WriteAheadLog
from .wal import replay as wal_replay

__all__ = [
    "KVSurface",
    "LearnedLSMStore",
    "LSMReadStats",
    "LSMWriteStats",
    "ReadView",
    "StoreSnapshot",
]

#: Incremental-fsync bound for merged-run saves in background mode
#: (RocksDB's ``bytes_per_sync``): caps how much dirty run-file data a
#: concurrent foreground WAL fsync can get queued behind.
_MERGE_SAVE_FSYNC_BYTES = 1 << 20


class ReadView:
    """One immutable LSM read state — and the only code that reads one.

    ``mem`` is the memtable's cached ``(keys, values, tombstone
    mask)`` triple (:meth:`Memtable.entries`) — the run layout, read
    as the newest source — and ``runs`` iterates newest-first.  A
    read is a pure function of that pair, so every holder of one
    answers through this class and all are bit-identical because
    they are the same code: :class:`LearnedLSMStore` builds a view
    per call (pin → read → unpin) and :class:`StoreSnapshot` *is* one
    that stays pinned.  The sharded store's workers answer through
    their own stores and snapshots, so its reads are this code too.
    """

    __slots__ = ("mem", "runs")

    def __init__(self, mem, runs):
        self.mem = mem
        self.runs = runs

    def lookup_batch(
        self, keys, stats: "LSMReadStats | None" = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """(values, found) for a whole key batch — the newest-first
        walk :meth:`LearnedLSMStore.lookup_batch` documents: the
        memtable (one ``searchsorted`` of its sorted keys), then per
        run bloom filter → probe over the queries still open — the
        probe alone where the filter would cost more than it
        (:data:`~repro.dispatch.UNGUARDED_PROBE_KEYS`).

        From :data:`~repro.dispatch.ORDERED_SEARCH_MIN_KEYS` queries
        over a non-empty memtable the walk orders the batch once,
        keeps that order through every run — so each run's probe gets
        ascending needles (``SortedRun.probe_batch(ascending=True)``)
        — and scatters ``(values, found)`` back at the end.  The open
        keys are hashed and masked once, at the first run whose filter
        is asked: each key's ``(word hash, mask)`` pair
        (:meth:`~repro.bloom.BlockedBloomFilter.probe_keys`) is the
        same for every run's filter whatever its size, follows the
        needles as runs answer them, and each later filter checks it
        with one gather, one AND and one compare
        (:meth:`~repro.bloom.BlockedBloomFilter.contains_probes`).
        ``stats`` receives the read-amplification counters when
        provided."""
        queries = as_int64_keys(keys)
        mem_keys, mem_values, mem_dead = self.mem
        m = queries.size
        values = np.zeros(m, dtype=np.int64)
        found = np.zeros(m, dtype=bool)
        if m == 0:
            return values, found
        order = None
        # The open queries: ``needles`` (ascending once ordered), their
        # positions in the batch (None while that is every position)
        # and, once a filter is asked, their ``(word hash, mask)``.
        open_idx = probe = None
        memtable_hits = 0
        if mem_keys.size:
            if m >= ORDERED_SEARCH_MIN_KEYS:
                queries, order = sorted_order(queries)
            hit, dead, vals = probe_at(
                mem_keys, mem_values, mem_dead, queries,
                np.searchsorted(mem_keys, queries),
            )
            np.logical_and(hit, ~dead, out=found)
            np.copyto(values, vals, where=found)
            memtable_hits = int(np.count_nonzero(hit))
            if memtable_hits:
                open_idx = np.flatnonzero(~hit)
        needles = queries if open_idx is None else queries[open_idx]
        rejects = probes = misses = unguarded = 0
        last = len(self.runs) - 1
        for i, run in enumerate(self.runs):
            if needles.size == 0:
                break
            guarded = not column_answers(
                needles.size, len(run), UNGUARDED_PROBE_KEYS
            )
            cand, sel = needles, None  # sel: the candidates' needle positions
            if guarded:
                if probe is None:
                    probe = BlockedBloomFilter.probe_keys(needles)
                passed = run.bloom.contains_probes(*probe)
                passing = int(np.count_nonzero(passed))
                rejects += needles.size - passing
                if passing == 0:
                    continue
                if passing < needles.size:
                    sel = np.flatnonzero(passed)
                    cand = needles[sel]
            hit, dead, vals = run.probe_batch(
                cand, ascending=order is not None
            )
            probes += cand.size
            at = np.flatnonzero(hit)
            if guarded:
                misses += cand.size - at.size
            else:
                unguarded += cand.size
            if at.size == 0:
                continue
            live = ~dead[at]
            vals = np.where(live, vals[at], 0)
            if sel is not None:
                at = sel[at]  # the needles this run answers
            dest = at if open_idx is None else open_idx[at]
            values[dest] = vals
            found[dest] = live
            if i < last:
                keep = np.ones(needles.size, dtype=bool)
                keep[at] = False
                keep = np.flatnonzero(keep)
                needles = needles[keep]
                open_idx = keep if open_idx is None else open_idx[keep]
                if probe is not None:
                    probe = (probe[0][keep], probe[1][keep])
        if stats is not None:
            stats.add(
                lookups=m,
                memtable_hits=memtable_hits,
                run_probes=probes,
                probe_misses=misses,
                bloom_rejects=rejects,
                unguarded_probes=unguarded,
            )
        if order is None:
            return values, found
        out_values = np.empty(m, dtype=np.int64)
        out_found = np.empty(m, dtype=bool)
        out_values[order] = values
        out_found[order] = found
        return out_values, out_found

    def range_query_batch(self, lows, highs) -> RangeScanResult:
        """Live keys in each closed range ``[lows[i], highs[i]]``."""
        return self._range_walk(lows, highs, with_values=False)[0]

    def range_items_batch(
        self, lows, highs
    ) -> tuple[RangeScanResult, np.ndarray]:
        """Live ``(key, value)`` pairs in each closed range, as
        ``(result, values)`` with ``values`` parallel to
        ``result.values``."""
        return self._range_walk(lows, highs, with_values=True)

    def _range_walk(self, lows, highs, *, with_values: bool):
        """``(merged result, payloads or None)`` over every source.

        Each run's vectorized scan, oldest run first, then the
        memtable (the newest source, its tombstone mask the drop mask)
        contribute their entries; one
        :func:`~repro.range_scan.merge_scan_results` pass resolves
        them, the last source holding a key winning it.  Inverted
        ranges come out empty in every source: each source's scan is a
        :func:`~repro.range_scan.batch_range_scan`, which pins them
        (closed-interval semantics shared with the whole repo).
        """
        lows, highs = range_endpoints(lows, highs)
        parts = [
            run.range_scan_batch(lows, highs, with_values=with_values)
            for run in reversed(self.runs)
        ]
        keys, stored, dead = self.mem
        if keys.size:
            # The memtable is scanned the way a run is, with a key
            # column's exact lower bounds standing in for the run's
            # RMI — a raw searchsorted would promote the int64 keys to
            # float64 under float endpoints, making memtable-resident
            # data answer differently from run-resident data beyond
            # 2^53.
            column = SortedKeyColumn(keys)
            parts.append(scan_entries(
                batch_range_scan(
                    keys, lows, highs, column.lower_bounds, column=column
                ),
                dead,
                stored if with_values else None,
            ))
        if not parts:
            empty = np.empty(0, dtype=np.int64)
            offsets = np.zeros(lows.size + 1, dtype=np.int64)
            return RangeScanResult(values=empty, offsets=offsets), empty
        sources, masks, *payloads = map(list, zip(*parts))
        if with_values:
            merged, carried = merge_scan_results(
                sources, drop_masks=masks, payloads=payloads[0]
            )
            values = np.asarray(carried, dtype=np.int64)
        else:
            merged = merge_scan_results(sources, drop_masks=masks)
            values = None
        return (
            RangeScanResult(
                values=np.asarray(merged.values, dtype=np.int64),
                offsets=merged.offsets,
            ),
            values,
        )


class StoreSnapshot(ReadView):
    """A pinned point-in-time read view of a :class:`LearnedLSMStore`.

    Captures the memtable's run-layout triple and a pinned run set in the
    loss-free order (memtable first — see the module docstring), then
    answers ``lookup_batch`` / ``range_query_batch`` /
    ``range_items_batch`` from exactly that state no matter how many
    writes, seals, or compactions land afterwards.  This is the PR 7
    epoch-read contract as a first-class object — a sharded snapshot
    is one of these held in every shard's worker.

    Use as a context manager, or call :meth:`release` explicitly
    (idempotent); an unreleased snapshot blocks deletion of every run
    it pins.
    """

    __slots__ = ("_store", "_released")

    def __init__(self, store: "LearnedLSMStore"):
        self._store = store
        mem = store.memtable.entries()
        super().__init__(mem, store._pin_runs())
        self._released = False

    def lookup_batch(self, keys) -> tuple[np.ndarray, np.ndarray]:
        """(values, found) against the pinned state — same contract as
        :meth:`LearnedLSMStore.lookup_batch`, counted into the store's
        ``read_stats``."""
        self._ensure_live()
        return super().lookup_batch(keys, self._store.read_stats)

    def _range_walk(self, lows, highs, *, with_values: bool):
        self._ensure_live()
        return super()._range_walk(lows, highs, with_values=with_values)

    def _ensure_live(self) -> None:
        if self._released:
            raise ValueError("snapshot has been released")

    def release(self) -> None:
        """Unpin every run (idempotent).  Deferred deletions the
        snapshot was blocking proceed at the store's next sweep."""
        if self._released:
            return
        self._released = True
        self._store._unpin_runs(self.runs)

    def __enter__(self) -> "StoreSnapshot":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()


class KVSurface:
    """The store surface, written once.  A key-value holder implements
    ``lookup_batch``, ``range_query_batch`` (+ ``range_items_batch``),
    ``close`` and one write primitive ``_write(kind, keys, values)`` —
    a WAL record kind and parallel int64 arrays already under the key
    contract (``values`` is ``None`` for deletes) — and inherits every
    other entry point.  Caller input becomes keys and values only
    here, through :func:`as_int64_keys` / :func:`as_int64_key` /
    :func:`as_int64_pairs`, so a key means the same thing on every
    entry point of every holder: a non-integer is a ``TypeError``, a
    key outside int64 an ``OverflowError``, and a refused call writes
    nothing.  (Float *range endpoints* are not keys; they bound the
    range where they say.)
    """

    def insert(self, key: int, value: int | None = None) -> None:
        """Write ``key -> value`` (value defaults to the key)."""
        value = None if value is None else [as_int64_key(value)]
        self.insert_batch([as_int64_key(key)], value)

    def insert_batch(self, keys, values=None) -> None:
        """Bulk insert: one write record (one WAL record + one
        memtable update, at most one seal after).

        Duplicate keys within the batch resolve last-wins, matching a
        put loop.  The whole batch is atomic at WAL-record granularity:
        after a crash, either every entry of the batch survives or none
        does.  Raises ``TypeError`` on non-integer key or value arrays.
        """
        self._write(RECORD_PUT, *as_int64_pairs(keys, values))

    def delete(self, key: int) -> None:
        """Blind delete: a tombstone shadows every older version.

        No read is performed (the LSM discipline — presence is resolved
        at read/compaction time), so unlike
        ``WritableLearnedIndex.delete`` there is no return value.
        """
        self.delete_batch([as_int64_key(key)])

    def delete_batch(self, keys) -> None:
        """Bulk blind delete: one write record.  Same atomicity and
        integer-dtype contract as :meth:`insert_batch`."""
        self._write(RECORD_DELETE, as_int64_keys(keys), None)

    def lookup(self, key: int):
        """The live value for ``key``, or None."""
        values, found = self.lookup_batch([as_int64_key(key)])
        return int(values[0]) if found[0] else None

    def contains(self, key: int) -> bool:
        """Does a live (non-tombstoned) entry exist for ``key``?"""
        return self.lookup(key) is not None

    def contains_batch(self, keys) -> np.ndarray:
        """One bool per key: does a live (non-tombstoned) entry exist?"""
        return self.lookup_batch(keys)[1]

    def range_query(self, low, high) -> np.ndarray:
        """Scalar range read: all live keys in ``[low, high]``."""
        result = self.range_query_batch([low], [high])
        return np.asarray(result[0], dtype=np.int64)

    def _ensure_open(self) -> None:
        if self._closed:
            raise ValueError("store is closed")

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class LSMReadStats(StatsView):
    """Read-amplification instrumentation.

    A *run probe* is one (query, run) RMI lookup actually executed; a
    *bloom reject* is a (query, run) pair the filter short-circuited
    before the model ran.  ``probe_misses`` counts executed probes that
    the filter passed and that found no entry — i.e. bloom false
    positives.  The fraction of negative-run probes the guards
    eliminate is ``bloom_rejects / (bloom_rejects + probe_misses)``:
    ~0.98 for the runs' blocked filters, whose stated false-positive
    rate is :data:`~repro.lsm.run.BLOOM_FPR` (1.7%).  Which keys a
    filter passes moves a count between ``bloom_rejects`` and
    ``probe_misses``, never their sum.
    ``unguarded_probes`` are the run probes executed without asking
    the filter (sub-batches cheaper to probe than to filter); hit or
    miss, they appear in neither of the filter's two counters, so both
    ratios keep describing the filter.
    """

    _FIELDS = (
        "lookups",
        "memtable_hits",
        "run_probes",
        "probe_misses",
        "bloom_rejects",
        "unguarded_probes",
    )
    _PREFIX = "lsm.read."

    lookups = counter_field("lookups")
    memtable_hits = counter_field("memtable_hits")
    run_probes = counter_field("run_probes")
    probe_misses = counter_field("probe_misses")
    bloom_rejects = counter_field("bloom_rejects")
    unguarded_probes = counter_field("unguarded_probes")

    @property
    def negative_probes_eliminated(self) -> float:
        total = self.bloom_rejects + self.probe_misses
        return self.bloom_rejects / total if total else 0.0


class LSMWriteStats(StatsView):
    """Write-amplification instrumentation.

    ``keys_written`` counts every entry landed in the memtable;
    ``entries_sealed`` / ``entries_compacted`` count entries rewritten
    into runs, so ``write_amplification`` is (sealed + compacted) /
    written — the LSM's defining cost curve.  ``write_stalls`` counts
    merge windows executed *inline on the write path* (a seal whose
    caller waited for the merge) and ``stall_seconds`` their summed
    wall time; with background compaction both stay zero — the axis
    the tail-latency bench gates.
    """

    _FIELDS = (
        "keys_written",
        "seals",
        "entries_sealed",
        "compactions",
        "entries_compacted",
        "write_stalls",
        "stall_seconds",
    )
    _PREFIX = "lsm.write."

    keys_written = counter_field("keys_written")
    seals = counter_field("seals")
    entries_sealed = counter_field("entries_sealed")
    compactions = counter_field("compactions")
    entries_compacted = counter_field("entries_compacted")
    write_stalls = counter_field("write_stalls")
    stall_seconds = counter_field("stall_seconds")

    @property
    def write_amplification(self) -> float:
        if not self.keys_written:
            return 0.0
        return (self.entries_sealed + self.entries_compacted) / (
            self.keys_written
        )


class _BackgroundCompactor:
    """One daemon thread owning every policy-selected merge.

    The write path :meth:`kick`\\ s after each seal and returns
    immediately; the worker drains merge windows until the policy goes
    quiet, then sleeps on its condition.  A failure (e.g. a simulated
    crash from the fault harness) is captured and re-raised from the
    next :meth:`drain` — the worker never takes the process down.
    """

    def __init__(self, store: "LearnedLSMStore"):
        self._store = store
        self._cond = threading.Condition()
        self._pending = False
        self._idle = True
        self._stopped = False
        self.error: BaseException | None = None
        self._thread = threading.Thread(
            target=self._loop, name="lsm-compactor", daemon=True
        )
        self._thread.start()

    def kick(self) -> None:
        """Schedule a drain pass (cheap, non-blocking)."""
        with self._cond:
            self._pending = True
            self._cond.notify_all()

    def _loop(self) -> None:
        while True:
            with self._cond:
                while not self._pending and not self._stopped:
                    self._cond.wait()
                if self._stopped:
                    return
                self._pending = False
                self._idle = False
            try:
                while self._store._background_merge_once():
                    pass
            except BaseException as exc:  # noqa: BLE001 — surfaced via drain
                with self._cond:
                    self.error = exc
                    self._idle = True
                    self._cond.notify_all()
                return
            with self._cond:
                self._idle = True
                self._cond.notify_all()

    def drain(self) -> None:
        """Block until no merge is running or pending; re-raise the
        worker's error (sticky — every drain after a failure reports
        it, like a poisoned queue)."""
        with self._cond:
            while (
                self.error is None
                and not self._stopped
                and self._thread.is_alive()
                and (self._pending or not self._idle)
            ):
                # Timed wait: immune to a notify lost to an unlucky
                # interleaving of kick / burst-end.
                self._cond.wait(timeout=0.05)
            if self.error is not None:
                raise self.error

    def stop(self) -> None:
        """Finish the in-flight window, then join the worker."""
        with self._cond:
            self._stopped = True
            self._cond.notify_all()
        self._thread.join()


class LearnedLSMStore(KVSurface):
    """Tiered LSM key-value store whose every run is RMI-indexed.

    Parameters
    ----------
    keys / values:
        Optional bulk load; keys are deduplicated (last value wins) and
        sealed directly into a single bottom run — no write
        amplification for the initial load.  Only valid when the target
        directory holds no existing store.
    memtable_capacity:
        Buffered entries (puts + tombstones) per seal.
    compaction:
        A :class:`~repro.lsm.compaction.SizeTieredCompaction` (default:
        a fresh ``SizeTieredCompaction()``); anything else is a
        ``TypeError``.
    path:
        Directory for durable operation.  ``None`` (default) keeps the
        store memory-only; a directory with an existing ``MANIFEST``
        recovers the persisted state (crash-safe), an empty or fresh
        directory initializes a new durable store.
    filesystem:
        File-layer override (the fault-injection harness); defaults to
        :class:`~repro.lsm.faultfs.RealFileSystem`.  Requires ``path``.
    wal_fsync:
        ``True`` (default) fsyncs every WAL append before the write
        call returns — the durability ack barrier.  ``False`` defers
        syncing to seals/``close`` (group-commit throughput, weaker
        guarantee).
    background:
        ``True`` runs compaction on a daemon worker thread — seals
        kick it and return, reads serve pinned snapshots, and
        superseded runs are deleted only when unpinned (see the module
        docstring).  ``None`` (default) reads the
        ``REPRO_LSM_BACKGROUND`` env var (the CI stress lane's knob);
        ``False`` pins the classic synchronous mode regardless of the
        env.  Threading contract either way: one writer thread, any
        number of reader threads.
    wal_group_commit_bytes / wal_group_commit_interval:
        Group-commit bounds for ``wal_fsync=False``: auto-fsync once
        the unsynced WAL tail exceeds the byte budget, or once the
        interval (seconds) since the last sync elapses — turning "may
        lose everything since the last seal" into a bounded loss
        window.  ``None`` disables each bound.

    The store is a context manager; :meth:`close` is idempotent,
    stops the background worker, flushes + fsyncs pending WAL bytes
    (also on the exception exit path — an error inside the ``with``
    block cannot drop acknowledged writes), and releases all run
    memmaps.
    """

    def __init__(
        self,
        keys=None,
        values=None,
        *,
        memtable_capacity: int = 8_192,
        compaction: SizeTieredCompaction | None = None,
        path: str | None = None,
        filesystem=None,
        wal_fsync: bool = True,
        background: bool | None = None,
        wal_group_commit_bytes: int | None = None,
        wal_group_commit_interval: float | None = None,
    ):
        if memtable_capacity < 1:
            raise ValueError("memtable_capacity must be >= 1")
        if compaction is None:
            compaction = SizeTieredCompaction()
        elif not isinstance(compaction, SizeTieredCompaction):
            raise TypeError(
                "compaction must be a SizeTieredCompaction, not "
                f"{type(compaction).__name__}"
            )
        self.policy = compaction
        self.memtable_capacity = int(memtable_capacity)
        self.memtable = Memtable()
        self.runs: list[SortedRun] = []
        self._sequence = 0
        self._file_id = 0
        self._closed = False
        self._wal: WriteAheadLog | None = None
        self._wal_name: str | None = None
        self._wal_fsync = bool(wal_fsync)
        self._wal_group = dict(
            group_commit_bytes=wal_group_commit_bytes,
            group_commit_interval=wal_group_commit_interval,
        )
        self.path = None if path is None else str(path)
        self.recovered_wal_records = 0
        # Lock order (outer → inner): _merge_lock → _structure_lock →
        # _state_lock.  See the module docstring.
        self._merge_lock = threading.RLock()
        self._structure_lock = threading.RLock()
        self._state_lock = threading.RLock()
        #: Superseded runs awaiting deferred deletion (pins > 0).
        self._retired: list[SortedRun] = []
        if background is None:
            background = os.environ.get(
                "REPRO_LSM_BACKGROUND", ""
            ).strip() not in ("", "0")
        self._background = bool(background)
        #: Created at the end of __init__ so recovery-time seals stay
        #: synchronous (deterministic for the crash-fuzz sweep).
        self._compactor: _BackgroundCompactor | None = None
        #: Per-store metrics registry; the public stats objects are
        #: views over it, so ``registry.snapshot()`` exports the same
        #: counters and ``ShardedLSMStore`` can merge them per shard.
        self.registry = MetricsRegistry()
        self.read_stats = LSMReadStats(self.registry)
        self.write_stats = LSMWriteStats(self.registry)

        bulk = None
        if keys is not None:
            keys, vals = as_int64_pairs(keys, values)
            if keys.size:
                # Last value wins on duplicate keys, like a put loop.
                pick = newest_per_key(keys)
                bulk = (keys[pick], vals[pick])

        if self.path is None:
            if filesystem is not None:
                raise ValueError("filesystem requires path")
            self._fs = None
            if bulk is not None:
                self.runs.append(self._bulk_run(*bulk))
        else:
            self._fs = (
                filesystem if filesystem is not None else RealFileSystem()
            )
            self._fs.makedirs(self.path)
            try:
                if self._fs.exists(os.path.join(self.path, MANIFEST_NAME)):
                    if bulk is not None:
                        raise ValueError(
                            "cannot bulk-load into an existing store "
                            "directory; open it plain and insert instead"
                        )
                    self._recover()
                else:
                    self._init_fresh(bulk)
            except BaseException:
                # Failed bootstrap (corrupt manifest, injected crash):
                # the caller never receives the store, so release every
                # handle opened so far before propagating.
                try:
                    self.close()
                except Exception:
                    pass
                raise
        if self._background:
            self._compactor = _BackgroundCompactor(self)

    # -- durable bootstrap -----------------------------------------------------

    def _bulk_run(self, uniq: np.ndarray, vals: np.ndarray) -> SortedRun:
        return SortedRun(uniq, vals, sequence=self._next_sequence())

    def _file_path(self, name: str) -> str:
        return os.path.join(self.path, name)

    def _new_file_id(self) -> int:
        with self._state_lock:
            self._file_id += 1
            return self._file_id

    def _new_run_name(self) -> str:
        return f"run-{self._new_file_id():08d}.run"

    def _new_wal_name(self) -> str:
        return f"wal-{self._new_file_id():08d}.log"

    def _init_fresh(self, bulk) -> None:
        """Initialize a durable store in a directory with no manifest.

        Nothing is live until the first manifest commit, so a crash
        anywhere in here leaves only orphans the next open sweeps away
        — which is also why the sweep runs first: *this* open may be
        that next open.
        """
        self._gc_directory(live=frozenset())
        if bulk is not None:
            run = self._bulk_run(*bulk)
            run.save(self._fs, self._file_path(self._new_run_name()))
            self.runs.append(run)
        self._wal_name = self._new_wal_name()
        WriteAheadLog.create(self._fs, self._file_path(self._wal_name))
        self._commit_manifest()
        self._open_wal()

    def _open_wal(self) -> None:
        """Open the current WAL generation for appends."""
        self._wal = WriteAheadLog(
            self._fs,
            self._file_path(self._wal_name),
            fsync=self._wal_fsync,
            **self._wal_group,
        )

    def _recover(self) -> None:
        """Rebuild from ``MANIFEST`` + WAL after a clean or dirty stop.

        Invariants this restores: (1) every acknowledged write is in a
        manifest-referenced run or the replayed WAL prefix; (2) no
        file outside the manifest's reference set survives; (3) a
        crash *during* recovery re-runs it to the same state, because
        recovery only deletes orphans and truncates the torn WAL tail
        — both idempotent.
        """
        fs = self._fs
        state = load_manifest(fs, self.path)
        self._file_id = int(state["next_file_id"])
        self._sequence = int(state["next_sequence"])
        self._wal_name = str(state["wal"])
        runs: list[SortedRun] = []
        for entry in state["runs"]:
            run_path = self._file_path(entry["file"])
            if not fs.exists(run_path):
                raise CorruptRunError(
                    f"{run_path}: manifest references a missing run file"
                )
            runs.append(SortedRun.load(fs, run_path, expect=entry))
        self.runs = runs
        live = {entry["file"] for entry in state["runs"]}
        live.add(self._wal_name)
        self._gc_directory(live=live)
        wal_path = self._file_path(self._wal_name)
        if not fs.exists(wal_path):
            raise CorruptRunError(
                f"{wal_path}: manifest references a missing WAL file"
            )
        records, valid_size, file_size = wal_replay(fs, wal_path)
        if valid_size < file_size:
            # Torn or corrupt tail: cut back to the last intact record
            # boundary before appending anything new.
            fs.truncate(wal_path, valid_size)
        for record in records:
            self.memtable.apply(record.kind, record.keys, record.values)
        self.recovered_wal_records = len(records)
        self._open_wal()
        # A replayed memtable can be at or past capacity (the crash hit
        # mid-seal): finish the seal now, under the same crash-safe
        # protocol.
        self._maybe_seal()

    def _gc_directory(self, live: frozenset | set) -> None:
        """Delete orphans: tmp files and run/WAL files the manifest
        does not reference.  Only files matching the store's own naming
        is touched — foreign files in the directory survive."""
        fs = self._fs
        for name in fs.listdir(self.path):
            if name in live or name == MANIFEST_NAME:
                continue
            ours = (
                name.endswith(".tmp")
                or (name.startswith("run-") and name.endswith(".run"))
                or (name.startswith("wal-") and name.endswith(".log"))
            )
            if ours:
                fs.remove(self._file_path(name))

    def _commit_manifest(self) -> None:
        state = {
            "next_file_id": self._file_id,
            "next_sequence": self._sequence,
            "wal": self._wal_name,
            "runs": [
                {
                    "file": os.path.basename(run.path),
                    "sequence": run.sequence,
                    "n": len(run),
                    "tombstones": run.num_tombstones,
                }
                for run in self.runs
            ],
        }
        commit_manifest(self._fs, self.path, state)

    def _rotate_wal_begin(self) -> str:
        """Close the live WAL and durably create its successor; the
        manifest commit that follows flips the reference.  Returns the
        old generation's name for post-commit deletion."""
        old_name = self._wal_name
        self._wal.close()
        self._wal = None
        self._wal_name = self._new_wal_name()
        WriteAheadLog.create(self._fs, self._file_path(self._wal_name))
        return old_name

    def _rotate_wal_finish(self, old_name: str) -> None:
        self._fs.remove(self._file_path(old_name))
        self._open_wal()

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Release the WAL handle and every run's memmaps; idempotent.

        The background worker (if any) finishes its in-flight window
        and joins first; then pending WAL bytes are fsynced (only
        relevant under ``wal_fsync=False`` — the default path is
        already durable per batch).  `__exit__` funnels here even when
        the ``with`` block raised, so an exception-path exit flushes
        acknowledged-but-unsynced writes instead of dropping them; run
        memmaps are released even if that flush itself fails.  The
        memtable is *not* flushed to a run: its contents live in the
        WAL and replay on the next open.
        """
        if self._closed:
            return
        self._closed = True
        compactor, self._compactor = self._compactor, None
        if compactor is not None:
            compactor.stop()
        wal, self._wal = self._wal, None
        try:
            if wal is not None:
                wal.close()
        finally:
            with self._state_lock:
                retired, self._retired = self._retired, []
                runs = list(self.runs)
            for run in retired + runs:
                run.close()

    def _next_sequence(self) -> int:
        with self._state_lock:
            self._sequence += 1
            return self._sequence

    # -- write path ------------------------------------------------------------

    def _write(self, kind: int, keys: np.ndarray, values) -> None:
        """The store's one write primitive: one WAL record + one
        memtable update, at most one seal after."""
        self._ensure_open()
        if keys.size == 0:
            return
        if self._wal is not None:
            self._log(kind, keys, values)
        self.memtable.apply(kind, keys, values)
        self.write_stats.add(keys_written=keys.size)
        self._maybe_seal()

    def _log(self, kind: int, keys: np.ndarray, values) -> None:
        with obs_span("lsm.wal.append", records=keys.size, kind=kind):
            self._wal.append(kind, keys, values)

    # ``insert`` / ``delete`` override the inherited one-element batch,
    # a measured fork: a scalar insert is 1.5-2.4 us against 5.2-7.1 for
    # ``insert_batch([k])`` memory-only, 7.5-9.5 against 11-13 durable
    # unsynced (medians of 7 passes of 2 000 keys into a 200k-key store,
    # three processes; 2-vCPU Xeon, Python 3.11, NumPy 2.4).  It also
    # lands in the memtable's dict, so a scalar read after it builds
    # nothing, where a one-key batch record makes that read sort.

    def insert(self, key: int, value: int | None = None) -> None:
        """Write ``key -> value`` (value defaults to the key)."""
        self._ensure_open()
        key = as_int64_key(key)
        value = key if value is None else as_int64_key(value)
        if self._wal is not None:
            pair = np.array([key, value], dtype=np.int64)
            self._log(RECORD_PUT, pair[:1], pair[1:])
        self.memtable.put(key, value)
        self.write_stats.add(keys_written=1)
        self._maybe_seal()

    def delete(self, key: int) -> None:
        """Blind delete — see :meth:`KVSurface.delete`."""
        self._ensure_open()
        key = as_int64_key(key)
        if self._wal is not None:
            self._log(RECORD_DELETE, np.array([key], dtype=np.int64), None)
        self.memtable.delete(key)
        self.write_stats.add(keys_written=1)
        self._maybe_seal()

    def _maybe_seal(self) -> None:
        # The bound costs nothing; the exact count builds the layout,
        # which only a write that may fill the memtable pays.
        memtable, capacity = self.memtable, self.memtable_capacity
        if memtable.len_bound() >= capacity and len(memtable) >= capacity:
            self.flush()

    def flush(self) -> None:
        """Seal the memtable into a fresh newest run, then hand the policy
        its merge debt — to the background worker when one exists,
        inline (one window per seal in durable mode) otherwise.

        Durable seal protocol, in crash-safe order: write + fsync the
        run file → create + fsync the next WAL generation → commit the
        manifest (new run in, new WAL referenced) → delete the old WAL.
        A crash before the commit recovers through the *old* manifest +
        old WAL (the half-written run and fresh WAL are orphans); a
        crash after it recovers through the new run (the old WAL is the
        orphan).  Acknowledged writes survive either way.

        Concurrent readers: the sealed run enters the run list *before*
        the memtable clears, so a reader that misses the entries in the
        memtable finds them in its run snapshot — the same data may be
        visible in both for an instant, which newest-wins dedup
        resolves; it is never visible in neither.
        """
        self._ensure_open()
        with self._structure_lock:
            keys, values, dead = self.memtable.entries()
            if keys.size == 0:
                return
            if not self.runs and dead.any():
                # Nothing older to shadow: garbage-collect immediately.
                live = ~dead
                keys, values, dead = keys[live], values[live], dead[live]
                if keys.size == 0:
                    # Every buffered entry was an unshadowed tombstone.
                    # Still rotate the WAL in durable mode, or replay
                    # would keep resurrecting (and re-discarding) them
                    # forever.
                    if self._wal is not None:
                        old_wal = self._rotate_wal_begin()
                        self._commit_manifest()
                        self._rotate_wal_finish(old_wal)
                    self.memtable.clear()
                    return
            with obs_span("lsm.seal") as seal_attrs:
                run = SortedRun.from_arrays(
                    keys, values, dead, sequence=self._next_sequence()
                )
                if self._wal is not None:
                    run.save(self._fs, self._file_path(self._new_run_name()))
                    old_wal = self._rotate_wal_begin()
                    with self._state_lock:
                        self.runs.insert(0, run)
                    self.memtable.clear()
                    self._commit_manifest()
                    self._rotate_wal_finish(old_wal)
                else:
                    with self._state_lock:
                        self.runs.insert(0, run)
                    self.memtable.clear()
                self.write_stats.add(seals=1, entries_sealed=len(run))
                if seal_attrs is not None:
                    seal_attrs["entries"] = len(run)
                    seal_attrs["durable"] = self._wal is not None
        if self._compactor is not None:
            self._compactor.kick()
        else:
            # One window per seal when durable, so an fsynced ack is
            # never hostage to a cascade; memory-only seals cascade.
            self._compact(1 if self.path is not None else None)

    def _plan_merge(self):
        """The policy's next window over a snapshot of the run list,
        as ``(window, at_end)``, or None when the layout is stable."""
        with self._state_lock:
            runs = list(self.runs)
        selection = self.policy.select(runs)
        if selection is None:
            return None
        start, stop = selection
        # Tombstone GC is safe exactly when the window reaches the end
        # of the (newest-first) list; seals only prepend, so the
        # property decided on this snapshot holds through the commit.
        return runs[start:stop], stop == len(runs)

    def _commit_merge(self, window: list[SortedRun], merged: SortedRun) -> None:
        """Swap ``window`` → ``merged`` atomically; retire the inputs.

        Durable merge protocol: write + fsync the merged run file →
        swap + commit the manifest with the window replaced → delete
        the input run files (deferred until unpinned).  A crash before
        the commit leaves the old manifest (merged file is an orphan);
        after it, the inputs are orphans — no intermediate point can
        lose a key or resurrect a tombstoned one, because inputs
        outlive the commit that supersedes them.

        The window is relocated by identity: seals prepend while a
        background merge runs, shifting indices but never breaking the
        window's contiguity (only merges remove runs, and merges are
        serialized by the merge lock).
        """
        # Durability is keyed on ``self.path`` here, not ``self._wal``:
        # flush() parks ``_wal`` at None mid-rotation, and this check
        # runs outside the structure lock — reading ``_wal`` raced that
        # window and skipped the save entirely.
        if self.path is not None:
            # Saved before any lock: the file is an orphan until the
            # manifest commit below, so seals and readers proceed
            # through this (potentially long) I/O instead of queueing
            # on the structure lock.  In background mode the save also
            # fsyncs incrementally so the writer's per-batch WAL
            # fsyncs never land behind one multi-megabyte flush; the
            # synchronous path keeps the single trailing fsync so the
            # crash fuzz's injection-site sequence stays deterministic.
            merged.save(
                self._fs,
                self._file_path(self._new_run_name()),
                fsync_every=_MERGE_SAVE_FSYNC_BYTES
                if self._background
                else None,
            )
        with self._structure_lock:
            with self._state_lock:
                start = self.runs.index(window[0])
                assert self.runs[start:start + len(window)] == window
                self.runs[start:start + len(window)] = [merged]
                self._retired.extend(window)
            if self.path is not None:
                self._commit_manifest()
        self._drain_retired()

    def _drain_retired(self) -> None:
        """Close + unlink retired runs nobody pins anymore.

        Called after structural transitions, never from reader threads
        (readers just unpin — they stay IO-free).  In synchronous
        single-threaded use every pin count is already zero here, so
        inputs are deleted at exactly the point the pre-snapshot code
        deleted them — the crash-fuzz site sequence is unchanged.
        """
        with self._state_lock:
            free = [r for r in self._retired if r.pins == 0]
            if not free:
                return
            self._retired = [r for r in self._retired if r.pins > 0]
        for run in free:
            run.close()
            if self._fs is not None and run.path is not None:
                self._fs.remove(run.path)

    def _execute_merge(
        self, window: list[SortedRun], drop_tombstones: bool,
        *, background: bool,
    ) -> None:
        """Run one planned window: merge → commit → count.

        The expensive part — :func:`merge_runs` + the RMI rebuild —
        needs no structural lock (callers hold only the merge lock),
        so the writer keeps sealing and readers keep serving their
        pinned snapshots; only :meth:`_commit_merge`'s swap
        synchronizes.
        """
        with obs_span(
            "lsm.compact.window", background=background, runs=len(window)
        ) as attrs:
            merged = merge_runs(window, drop_tombstones=drop_tombstones)
            self._commit_merge(window, merged)
            if attrs is not None:
                attrs["entries"] = len(merged)
        self.write_stats.add(compactions=1, entries_compacted=len(merged))

    def _background_merge_once(self) -> bool:
        """One policy-selected window, executed on the worker thread;
        True if merged."""
        with self._merge_lock:
            if self._closed:
                return False
            plan = self._plan_merge()
            if plan is None:
                return False
            self._execute_merge(*plan, background=True)
        return True

    def _compact(self, budget: int | None = None) -> None:
        """Inline (write-path) compaction: at most ``budget`` windows.

        Every window executed here stalled the caller's write batch,
        which is exactly what :attr:`LSMWriteStats.write_stalls` /
        ``stall_seconds`` meter — the counters the tail-latency bench
        asserts stay zero in background mode.
        """
        merges = 0
        with self._merge_lock:
            while budget is None or merges < budget:
                plan = self._plan_merge()
                if plan is None:
                    break
                began = time.perf_counter()
                self._execute_merge(*plan, background=False)
                self.write_stats.add(
                    write_stalls=1, stall_seconds=time.perf_counter() - began
                )
                merges += 1

    def compact(self) -> None:
        """Force a full compaction: flush, then fold everything into
        one bottom run with tombstones garbage-collected (ignores the
        one-window-per-seal bound — this is the explicit maintenance call,
        so its merge time is not metered as a write stall)."""
        self.flush()
        with self._merge_lock:
            with self._state_lock:
                window = list(self.runs)
            if len(window) > 1:
                self._execute_merge(
                    window, drop_tombstones=True, background=False
                )

    def wait_for_compaction(self) -> None:
        """Block until the background worker has drained its merge
        debt, then sweep unpinned retired runs; re-raises any error
        the worker hit.  No-op (beyond the sweep) in synchronous mode
        — the write path already ran every merge inline.
        """
        if self._compactor is not None:
            self._compactor.drain()
        self._drain_retired()

    # -- snapshot machinery ----------------------------------------------------

    def _pin_runs(self) -> tuple[SortedRun, ...]:
        """An immutable run-set snapshot, each run pinned against
        deferred deletion.  Callers MUST pair with :meth:`_unpin_runs`
        (try/finally).  Grab the memtable's entries *before* calling this —
        that ordering is what makes snapshots loss-free under a
        concurrent seal (see the module docstring)."""
        with self._state_lock:
            runs = tuple(self.runs)
            for run in runs:
                run.pins += 1
        return runs

    def _unpin_runs(self, runs: tuple[SortedRun, ...]) -> None:
        with self._state_lock:
            for run in runs:
                run.pins -= 1

    def snapshot(self) -> StoreSnapshot:
        """A pinned point-in-time read view (see :class:`StoreSnapshot`).

        Safe from any reader thread; release it (context manager or
        :meth:`StoreSnapshot.release`) when done — it holds every run
        of its epoch against deletion until then.
        """
        self._ensure_open()
        return StoreSnapshot(self)

    # -- backup ----------------------------------------------------------------

    def backup(self, dest: str) -> None:
        """Snapshot the durable state into directory ``dest``.

        Runs and the manifest are immutable rename-published inodes, so
        the backup hard-links them — O(runs) metadata operations, no
        data copy no matter how large the store (the reason LSM stores
        back up this way in practice).  Only the WAL, which is appended
        in place, is copied byte-for-byte; it is synced first so the
        copy contains every acknowledged write.  The result is a
        directory ``LearnedLSMStore(path=dest)`` opens like any other
        store, holding exactly the state at the backup point.

        Counts as a write-path call under the threading contract (it
        reads the live WAL); holds the structure lock, so it excludes
        seals and merge commits but not in-flight merge I/O.  The
        manifest is linked *last* and the directory fsynced after, so
        a crash mid-backup leaves a manifest-less directory that can
        never be mistaken for a valid store.
        """
        self._ensure_open()
        if self.path is None:
            raise ValueError("backup requires a durable store (path=...)")
        dest = str(dest)
        if os.path.abspath(dest) == os.path.abspath(self.path):
            raise ValueError("backup destination is the store directory")
        fs = self._fs
        with self._structure_lock:
            fs.makedirs(dest)
            if fs.listdir(dest):
                raise ValueError(f"backup destination {dest!r} not empty")
            if self._wal is not None:
                self._wal.sync()
            with self._state_lock:
                runs = list(self.runs)
            for run in runs:
                name = os.path.basename(run.path)
                fs.link(run.path, os.path.join(dest, name))
            wal_src = self._file_path(self._wal_name)
            wal_dst = os.path.join(dest, self._wal_name)
            handle = fs.open_write(wal_dst)
            try:
                fs.write(handle, fs.read_bytes(wal_src))
                fs.fsync(handle)
            finally:
                fs.close(handle)
            fs.link(
                self._file_path(MANIFEST_NAME),
                os.path.join(dest, MANIFEST_NAME),
            )
            fs.fsync_dir(dest)

    # -- point reads -----------------------------------------------------------

    def lookup(self, key: int):
        """The live value for ``key``, or None — scalar read path.

        Memtable first (one lock-free :meth:`Memtable.probe`), then a
        pinned run snapshot newest-first; each run's bloom filter is
        consulted before its RMI runs.  Overrides the inherited
        one-element ``lookup_batch``, a measured fork: 9.1 us here
        against 24.6 us for ``lookup_batch([key])`` (median of 6
        processes, each the best of 5 passes over 2 000 present keys,
        on a memory-only store of two runs holding 450k keys with
        2 000 entries buffered; 2-vCPU Xeon, Python 3.11, NumPy 2.4).
        """
        self._ensure_open()
        key = as_int64_key(key)
        hit, dead, value = self.memtable.probe(key)
        if hit:
            self.read_stats.add(lookups=1, memtable_hits=1)
            return None if dead else value
        rejects = probes = misses = 0
        result = None
        runs = self._pin_runs()
        try:
            for run in runs:
                if key not in run.bloom:
                    rejects += 1
                    continue
                probes += 1
                hit, dead, value = run.probe(key)
                if hit:
                    result = None if dead else value
                    break
                misses += 1
        finally:
            self._unpin_runs(runs)
        self.read_stats.add(
            lookups=1,
            run_probes=probes,
            probe_misses=misses,
            bloom_rejects=rejects,
        )
        return result

    def _read(self, read, *args):
        """Answer ``read`` (a :class:`ReadView` method) from the live
        state: memtable triple first, *then* the run pin — the
        loss-free order under a concurrent seal — and unpin after."""
        self._ensure_open()
        mem = self.memtable.entries()
        runs = self._pin_runs()
        try:
            return read(ReadView(mem, runs), *args)
        finally:
            self._unpin_runs(runs)

    def lookup_batch(self, keys) -> tuple[np.ndarray, np.ndarray]:
        """(values, found) for a whole key batch.

        One ``lookup_batch`` fans newest-first across runs: each run
        sees only the queries still unresolved, its bloom filter drops
        the ones it cannot hold, and its RMI (or, for few ascending
        needles, its key column) probes the survivors — the batch
        analogue of the scalar walk, with identical results.
        ``values[i]`` is 0 wherever ``found[i]`` is False.  The whole
        batch answers from one pinned (memtable entries, run-set)
        snapshot, so a concurrent seal or background merge can neither
        hide an entry nor unmap a run mid-probe.  Raises ``TypeError``
        on non-integer key arrays, like the write path.
        """
        return self._read(ReadView.lookup_batch, keys, self.read_stats)

    # -- range reads -----------------------------------------------------------

    def range_query_batch(self, lows, highs) -> RangeScanResult:
        """Live keys in each closed range ``[lows[i], highs[i]]``.

        Every source — each run's vectorized range scan plus the
        memtable's entries — contributes its entries; one
        :func:`~repro.range_scan.merge_scan_results` pass interleaves
        them, oldest source first, deduplicates to the newest version
        per key, and drops keys whose newest version is a tombstone.
        """
        return self._read(ReadView.range_query_batch, lows, highs)

    def range_items_batch(
        self, lows, highs
    ) -> tuple[RangeScanResult, np.ndarray]:
        """Live ``(key, value)`` pairs in each closed range.

        Same newest-wins / tombstone-shadowing merge as
        :meth:`range_query_batch`, with every source gathering its
        stored payloads through the identical slice plan and
        :func:`~repro.range_scan.merge_scan_results` carrying them
        through the merge (its ``payloads`` parameter — the PR 4
        follow-up).  Returns ``(result, values)`` where ``values`` is
        parallel to ``result.values``: the live value for
        ``result.values[j]`` is ``values[j]``.
        """
        return self._read(ReadView.range_items_batch, lows, highs)

    # -- accounting ------------------------------------------------------------

    def live_keys(self) -> np.ndarray:
        """All live keys, merged and deduplicated — O(N log N): the
        runs oldest first, then the memtable, through
        :func:`~repro.util.newest_entries`, less the tombstones."""
        self._ensure_open()
        mem_keys, _mem_values, mem_dead = self.memtable.entries()
        runs = self._pin_runs()
        try:
            parts = [(r.keys, 0, r.tombstones) for r in reversed(runs)]
            keys, _, dead = newest_entries(
                parts + [(mem_keys, 0, mem_dead)], "stable"
            )
        finally:
            self._unpin_runs(runs)
        return keys[~dead]

    def __len__(self) -> int:
        """Exact live key count (O(N log N) — see :meth:`live_keys`)."""
        return int(self.live_keys().size)

    @property
    def num_runs(self) -> int:
        return len(self.runs)

    def size_bytes(self) -> int:
        runs = self._pin_runs()
        try:
            return self.memtable.size_bytes() + sum(
                r.size_bytes() for r in runs
            )
        finally:
            self._unpin_runs(runs)

    def __repr__(self) -> str:
        where = f", path={self.path!r}" if self.path is not None else ""
        return (
            f"LearnedLSMStore(runs={len(self.runs)}, "
            f"memtable={len(self.memtable)}, "
            f"seals={self.write_stats.seals}, "
            f"compactions={self.write_stats.compactions}{where})"
        )
