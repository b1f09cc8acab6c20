"""Binary write-ahead log for the LSM memtable.

The durability contract of :class:`repro.lsm.LearnedLSMStore` is
*fsync-before-ack*: a write call returns only after its record is
appended to the WAL and fsynced, so everything an application has been
told about survives a crash.  The memtable is then just a cache of the
WAL's suffix — recovery replays the log into a fresh memtable.

Record framing is length-prefixed and checksummed::

    [crc u32][payload_len u32][payload]
    payload = [kind u8][count u32][keys int64 * count]([values int64 * count])

with ``kind`` 1 for puts (keys + values) and 2 for deletes (keys
only).  One *batch* call produces one record, which makes the batch
atomic at record granularity: replay either sees the whole batch or —
when the crash tore the tail — none of it, never half.  Replay
(:func:`replay`) walks records until the first one whose length or
checksum fails and reports the byte offset of that boundary; the store
truncates the file there, which is simultaneously the torn-tail repair
and the recover-to-last-consistent-state behavior for a bit flip in
the middle of the log (records after a corrupt one are unordered
against it, so they must be dropped too).

Logs rotate at every seal: the sealed run absorbs the memtable, a
fresh generation file is created and fsynced, the manifest commits the
new generation, and only then is the old log deleted — the log
referenced by the manifest always covers exactly the memtable's
contents.
"""

from __future__ import annotations

import struct
import time

import numpy as np

from .format import checksum

__all__ = ["WriteAheadLog", "WALRecord", "replay"]

RECORD_PUT = 1
RECORD_DELETE = 2

_FRAME = struct.Struct("<II")
_KIND = struct.Struct("<BI")


class WALRecord:
    """One replayed record: ``kind`` plus parallel key/value arrays
    (``values is None`` for deletes)."""

    __slots__ = ("kind", "keys", "values")

    def __init__(self, kind: int, keys: np.ndarray, values):
        self.kind = kind
        self.keys = keys
        self.values = values


def _encode(kind: int, keys: np.ndarray, values=None) -> bytes:
    head = _KIND.pack(kind, keys.size)
    body = keys.astype(np.int64, copy=False).tobytes()
    if values is not None:
        body += values.astype(np.int64, copy=False).tobytes()
    return head + body


def _decode(payload: bytes):
    if len(payload) < _KIND.size:
        return None
    kind, count = _KIND.unpack_from(payload)
    nbytes = count * 8
    if kind == RECORD_PUT:
        expected = _KIND.size + 2 * nbytes
    elif kind == RECORD_DELETE:
        expected = _KIND.size + nbytes
    else:
        return None
    if len(payload) != expected:
        return None
    keys = np.frombuffer(payload, dtype=np.int64, count=count,
                         offset=_KIND.size)
    values = None
    if kind == RECORD_PUT:
        values = np.frombuffer(payload, dtype=np.int64, count=count,
                               offset=_KIND.size + nbytes)
    return WALRecord(kind, keys, values)


class WriteAheadLog:
    """Append-side handle over one WAL generation file.

    ``fsync=True`` (the default) makes every append durable before it
    returns — the store's ack barrier.  ``fsync=False`` trades the
    crash guarantee for throughput (group-commit style); ``close``
    still flushes whatever is pending, and the two group-commit knobs
    bound how much "pending" can ever be:

    * ``group_commit_bytes`` — auto-fsync once the unsynced tail
      reaches this many bytes;
    * ``group_commit_interval`` — auto-fsync once this many seconds
      have passed since the last sync (checked at append time, so an
      idle log syncs on its next append — or at ``close``).

    With either bound set, a machine crash under ``fsync=False`` loses
    at most the configured window of acknowledged writes instead of
    everything since the last seal.  ``clock`` is injectable for
    deterministic interval tests.  Both knobs are ignored under
    ``fsync=True`` (every record is already durable).
    """

    def __init__(
        self,
        fs,
        path: str,
        *,
        fsync: bool = True,
        group_commit_bytes: int | None = None,
        group_commit_interval: float | None = None,
        clock=time.monotonic,
    ):
        if group_commit_bytes is not None and int(group_commit_bytes) < 1:
            raise ValueError("group_commit_bytes must be >= 1")
        if (
            group_commit_interval is not None
            and float(group_commit_interval) <= 0
        ):
            raise ValueError("group_commit_interval must be > 0")
        self._fs = fs
        self.path = path
        self._fsync = bool(fsync)
        self._group_bytes = (
            None if group_commit_bytes is None else int(group_commit_bytes)
        )
        self._group_interval = (
            None
            if group_commit_interval is None
            else float(group_commit_interval)
        )
        self._clock = clock
        self._handle = fs.open_append(path)
        self._dirty = False
        self._pending_bytes = 0
        self._last_sync = clock()
        self.records_appended = 0
        #: Records known durable (fsynced); the loss window under
        #: ``fsync=False`` is ``records_appended - synced_records``.
        self.synced_records = 0

    @classmethod
    def create(cls, fs, path: str) -> None:
        """Create an empty generation file and make its existence
        durable (the manifest is about to point at it)."""
        handle = fs.open_write(path)
        try:
            fs.fsync(handle)
        finally:
            fs.close(handle)
        import os

        fs.fsync_dir(os.path.dirname(path) or ".")

    def append(self, kind: int, keys: np.ndarray, values=None) -> None:
        """Append one ``(kind, keys, values)`` record — the shape a
        write has from the store's public call to replay (``values``
        is ``None`` for deletes) — and apply the fsync discipline."""
        payload = _encode(kind, keys, values)
        frame = _FRAME.pack(checksum(payload), len(payload)) + payload
        fs = self._fs
        fs.write(self._handle, frame)
        self.records_appended += 1
        if self._fsync:
            fs.fsync(self._handle)
            self.synced_records = self.records_appended
            return
        self._dirty = True
        self._pending_bytes += len(frame)
        if self._group_due():
            self.sync()

    def _group_due(self) -> bool:
        if (
            self._group_bytes is not None
            and self._pending_bytes >= self._group_bytes
        ):
            return True
        return (
            self._group_interval is not None
            and self._clock() - self._last_sync >= self._group_interval
        )

    def append_puts(self, keys: np.ndarray, values: np.ndarray) -> None:
        self.append(RECORD_PUT, keys, values)

    def append_deletes(self, keys: np.ndarray) -> None:
        self.append(RECORD_DELETE, keys)

    def sync(self) -> None:
        if self._dirty:
            self._fs.fsync(self._handle)
            self._dirty = False
            self.synced_records = self.records_appended
        self._pending_bytes = 0
        self._last_sync = self._clock()

    def close(self) -> None:
        if self._handle is None:
            return
        handle, self._handle = self._handle, None
        try:
            if self._dirty:
                self._fs.fsync(handle)
                self._dirty = False
                self.synced_records = self.records_appended
            self._pending_bytes = 0
        finally:
            # Release the descriptor even when the final flush died
            # (e.g. a simulated crash at the fsync site) — the handle
            # is unusable either way.
            self._fs.close(handle)


def replay(fs, path: str) -> tuple[list[WALRecord], int, int]:
    """Decode ``path`` into records, stopping at the first bad one.

    Returns ``(records, valid_size, file_size)``: ``valid_size`` is the
    byte offset of the first record that is torn, length-implausible,
    or checksum-corrupt — everything before it is intact, everything
    from it on must be discarded (the store truncates the file there
    before reopening it for append).
    """
    data = fs.read_bytes(path)
    size = len(data)
    records: list[WALRecord] = []
    offset = 0
    while offset + _FRAME.size <= size:
        crc, length = _FRAME.unpack_from(data, offset)
        start = offset + _FRAME.size
        if start + length > size:
            break  # torn tail: the record never finished landing
        payload = data[start:start + length]
        if checksum(payload) != crc:
            break
        record = _decode(payload)
        if record is None:
            break
        records.append(record)
        offset = start + length
    return records, offset, size
