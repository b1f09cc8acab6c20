"""Zero-copy run publication over ``multiprocessing.shared_memory``.

The sharded store's workers own their LSM shards; clients in other
processes still want the kernel layer's read speed without copying
megabytes of run data over a pipe per epoch.  Immutability makes that
cheap: a sealed run's arrays never change, so the worker writes each
run's flat state — key/value/tombstone arrays, the RMI's compiled
tables, the bloom filter's wire bytes — into one shared-memory segment
*once*, and every subsequent epoch that still contains the run ships
only the segment's name.  The client maps the segment and rebuilds a
:class:`~repro.lsm.run.SortedRun` via
:meth:`~repro.lsm.run.SortedRun.from_arrays` whose arrays alias the
shared pages — bit-identical probes, zero copies, O(leaves) rebuild.

The memtable is the one mutable source, so each published epoch
carries a fresh (small, bounded by the memtable capacity) segment
holding its cached view triple (put keys, put values, tombstone keys)
— the ``mem`` of a :class:`~repro.lsm.store.ReadView`, read as mapped.

Lifecycle protocol (the cross-process half of the PR 7 epoch
contract):

* The worker publishes an epoch descriptor in every command ack; the
  client attaches all new segments *while processing the ack*, before
  it sends another command.
* A segment superseded while publishing epoch E is therefore safe to
  unlink as soon as the *next* command arrives (its arrival proves the
  client processed E's ack).  Linux keeps existing mappings valid
  after unlink, so a client epoch pinned by a long-lived snapshot
  keeps reading the (now anonymous) pages.
* The client closes its mapping of a segment only when no live epoch
  — current or snapshot-pinned — references it.

Attaching never registers with the resource tracker (only creation
does, on this platform), so worker-side ``unlink`` plus client-side
``close`` is a complete cleanup story with no release RPC.
"""

from __future__ import annotations

import os
import re
from multiprocessing import shared_memory

import numpy as np

from ..lsm.format import CorruptRunError
from ..lsm.run import SortedRun, _bloom_from_wire

__all__ = [
    "RunPublisher",
    "attach_run",
    "attach_memtable",
    "segment_names",
    "unlink_segments",
]

_ALIGN = 8

#: Where POSIX shared-memory segments live as files on Linux.
_SHM_DIR = "/dev/shm"

#: Section names of a published memtable view triple, in order.
_MEM_SECTIONS = ("put_keys", "put_values", "tomb_keys")


def _create_segment(name: str, sections: list) -> tuple:
    """Create segment ``name`` holding ``[(section, array-or-bytes)]``
    8-aligned in order.  Returns ``(shm, table)`` with ``table`` =
    section -> ``[offset, nbytes, dtype]``, which :func:`_attach`
    maps back into read-only views."""
    arrays = {
        section: np.frombuffer(data, dtype=np.uint8)
        if isinstance(data, bytes)
        else np.ascontiguousarray(data)
        for section, data in sections
    }
    table = {}
    offset = 0
    for section, arr in arrays.items():
        offset += -offset % _ALIGN
        table[section] = [offset, arr.nbytes, arr.dtype.str]
        offset += arr.nbytes
    shm = shared_memory.SharedMemory(
        name=name, create=True, size=max(offset, 1)
    )
    for section, arr in arrays.items():
        np.ndarray(
            arr.shape, arr.dtype, buffer=shm.buf, offset=table[section][0]
        )[...] = arr
    return shm, table


def _attach(desc: dict) -> tuple[shared_memory.SharedMemory, dict]:
    """Map a published segment: ``(mapping, section -> read-only
    array aliasing it)``.  The caller owns the mapping's ``close()``."""
    shm = shared_memory.SharedMemory(name=desc["name"])
    views = {}
    for section, (offset, nbytes, dtype) in desc["sections"].items():
        dtype = np.dtype(dtype)
        arr = np.frombuffer(
            shm.buf, dtype=dtype, count=nbytes // dtype.itemsize,
            offset=offset,
        )
        arr.flags.writeable = False
        views[section] = arr
    return shm, views


class RunPublisher:
    """Worker-side segment registry: one segment per live run, one per
    epoch for the memtable view triple, retirement deferred until the
    client has provably seen the superseding epoch.

    Keyed by run *identity*, not sequence number — merged runs inherit
    ``sequence=max(inputs)``, so sequences repeat across a shard's
    lifetime while ``id(run)`` is unique for as long as the publisher
    holds its strong reference (which it does, in the entry itself).
    """

    def __init__(self, prefix: str):
        self._prefix = prefix
        #: id(run) -> (name, shm, desc, run) for every published run.
        self._segments: dict[int, tuple] = {}
        #: Segments superseded in the latest publish; unlinkable once
        #: the next command arrives.
        self._retired: list[tuple] = []
        self._mem_current: tuple | None = None
        self._counter = 0

    def _new_name(self, tag: str) -> str:
        """``prefix`` + ``r`` (run) or ``m`` (memtable) + a counter —
        the names :func:`unlink_segments` matches."""
        self._counter += 1
        return f"{self._prefix}{tag}{self._counter:06d}"

    def _create_run_segment(self, run: SortedRun) -> tuple:
        meta, sections = run.wire_form()
        name = self._new_name("r")
        shm, table = _create_segment(name, sections)
        return name, shm, {**meta, "name": name, "sections": table}, run

    def _publish_memtable(self, mem) -> dict | None:
        if self._mem_current is not None:
            self._retired.append(self._mem_current[:2])
            self._mem_current = None
        if not (mem[0].size or mem[2].size):
            return None
        name = self._new_name("m")
        shm, table = _create_segment(name, list(zip(_MEM_SECTIONS, mem)))
        desc = {"name": name, "sections": table}
        self._mem_current = (name, shm, desc)
        return desc

    def publish(self, store) -> dict:
        """Current epoch as a descriptor of segment names + metadata.

        Pins a :meth:`~repro.lsm.store.LearnedLSMStore.snapshot` for
        the duration, so the run set and memtable view triple are one
        consistent epoch even if the store's background machinery were
        active; fills segments only for runs not yet published.
        """
        with store.snapshot() as snap:
            live_ids = set()
            run_descs = []
            for run in snap.runs:
                rid = id(run)
                live_ids.add(rid)
                entry = self._segments.get(rid)
                if entry is None:
                    entry = self._create_run_segment(run)
                    self._segments[rid] = entry
                run_descs.append(entry[2])
            for rid in [r for r in self._segments if r not in live_ids]:
                name, shm, _desc, _run = self._segments.pop(rid)
                self._retired.append((name, shm))
            mem_desc = self._publish_memtable(snap.mem)
        return {"runs": run_descs, "memtable": mem_desc}

    def unlink_retired(self) -> None:
        """Unlink segments superseded by an epoch the client has seen.

        Call on receipt of a new command: the client processes acks
        before sending again, so everything retired by the previous
        publish is now unreferenced by any epoch it could still adopt.
        """
        retired, self._retired = self._retired, []
        for _name, shm in retired:
            shm.close()
            shm.unlink()

    def close(self) -> None:
        """Unlink everything (worker shutdown)."""
        self.unlink_retired()
        segments, self._segments = self._segments, {}
        for _name, shm, _desc, _run in segments.values():
            shm.close()
            shm.unlink()
        if self._mem_current is not None:
            self._mem_current[1].close()
            self._mem_current[1].unlink()
            self._mem_current = None


def attach_run(desc: dict) -> tuple[shared_memory.SharedMemory, SortedRun]:
    """Map a published run segment into this process.

    Returns the mapping (the caller owns its ``close()``) and a
    :class:`SortedRun` whose arrays alias it — every probe
    bit-identical to the worker's own run, per the
    :meth:`~repro.lsm.run.SortedRun.from_arrays` contract.  A
    descriptor whose ``bloom_kind`` is not the standard filter's is a
    :class:`~repro.lsm.format.CorruptRunError`, and the mapping is
    closed before it propagates.
    """
    shm, views = _attach(desc)
    try:
        bloom = _bloom_from_wire(desc, views["bloom"], f"shm:{desc['name']}")
    except CorruptRunError as exc:
        # The arrays export the mapping's buffer, and so do the frames
        # the traceback (and the chained ValueError's) holds.
        exc.__traceback__ = exc.__context__ = None
        del views
        shm.close()
        raise
    run = SortedRun.from_arrays(
        views["keys"],
        views["values"],
        views["tombstones"].view(np.bool_),
        compiled_state={**desc, **views},
        bloom=bloom,
        sequence=desc["sequence"],
        level=desc["level"],
    )
    return shm, run


def attach_memtable(desc: dict) -> tuple[shared_memory.SharedMemory, tuple]:
    """Map a published memtable view triple — the ``mem`` of a
    :class:`~repro.lsm.store.ReadView`."""
    shm, views = _attach(desc)
    return shm, tuple(views[section] for section in _MEM_SECTIONS)


def segment_names(epoch_desc: dict) -> set[str]:
    """Every segment name an epoch descriptor references."""
    names = {run["name"] for run in epoch_desc["runs"]}
    if epoch_desc.get("memtable"):
        names.add(epoch_desc["memtable"]["name"])
    return names


def default_prefix(shard: int, pid: int | None = None) -> str:
    """A segment-name prefix unique per (process, shard): this
    process's, or that of process ``pid``."""
    return f"rsv{os.getpid() if pid is None else pid}s{shard}"


def unlink_segments(prefix: str) -> None:
    """Unlink every segment a :class:`RunPublisher` with ``prefix``
    left behind — all of them, when its process was killed before
    :meth:`RunPublisher.close` ran.  Mappings stay valid."""
    if not os.path.isdir(_SHM_DIR):
        return
    published = re.compile(re.escape(prefix) + r"[rm]\d+")
    for name in os.listdir(_SHM_DIR):
        if not published.fullmatch(name):
            continue
        # Attach rather than os.unlink: SharedMemory.unlink also drops
        # the name from the resource tracker, which would otherwise
        # report it leaked at exit.
        try:
            shm = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            continue
        shm.unlink()
        shm.close()
