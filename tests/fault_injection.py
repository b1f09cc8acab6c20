"""Deterministic fault injection for the durable LSM's crash tests.

:class:`FaultInjectingFilesystem` wraps the store's primitive file
layer (:class:`repro.lsm.faultfs.RealFileSystem`) and

* counts every *mutating* primitive call as an **injection site**;
* at site ``crash_at`` refuses to perform the operation (optionally
  landing a torn prefix of an in-flight write), then simulates the
  machine dying: with ``mode="lose"`` every byte written since a
  file's last fsync is rolled back (the page cache never reached the
  platter), with ``mode="keep"`` everything issued before the crash
  persists (an orderly kernel flush) — real crashes land between the
  two, so recovery must cope with both extremes;
* raises :class:`SimulatedCrash` from the crashed call and from every
  call after it, so the in-process store object cannot limp on.

Modeling notes: ``rename`` is treated as atomic *and* immediately
durable.  POSIX only guarantees the former — a rename can be undone by
a crash before the directory entry reaches disk — but the store always
follows rename with ``fsync_dir`` before depending on it (deleting the
pre-rename WAL or run files), so collapsing the two keeps the harness
simple without hiding a real recovery bug.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from repro.lsm.faultfs import FileHandle, RealFileSystem


class SimulatedCrash(RuntimeError):
    """The fault harness killed the process at an injection site.

    Everything after this is what a real ``kill -9`` leaves behind:
    the recovery path must rebuild a consistent store from the files
    alone.
    """


class FaultInjectingFilesystem(RealFileSystem):
    """Wraps the real primitives with a deterministic crash schedule.

    Parameters
    ----------
    crash_at:
        1-based index of the mutating call that dies (``None`` counts
        sites without crashing — run once to learn the sweep bound,
        exposed as :attr:`ops`).
    mode:
        ``"lose"`` rolls every file back to its last-fsynced length at
        the crash; ``"keep"`` persists everything issued before it.
    torn_fraction:
        When the crashed call is a data write, this fraction of the
        payload lands anyway — the classic torn tail the WAL's record
        checksums must truncate.  (Under ``"lose"`` the torn tail is
        itself unsynced and rolls back unless the file was never
        fsync-tracked — it still exercises short-write handling in
        ``"keep"`` mode.)
    """

    def __init__(
        self,
        *,
        crash_at: int | None = None,
        mode: str = "lose",
        torn_fraction: float = 0.0,
    ):
        if mode not in ("lose", "keep"):
            raise ValueError("mode must be 'lose' or 'keep'")
        self.crash_at = crash_at
        self.mode = mode
        self.torn_fraction = float(torn_fraction)
        self.ops = 0
        self.crashed = False
        #: path -> byte length known durable (fsynced or pre-existing).
        self._synced: dict[str, int] = {}
        #: Site counting must be exact even when the store's writer and
        #: background-compactor threads issue I/O concurrently — a lost
        #: ``ops += 1`` increment would shift every later site index
        #: and break the sweep's determinism contract.
        self._lock = threading.Lock()

    # -- crash machinery -------------------------------------------------------

    def _check_alive(self) -> None:
        if self.crashed:
            raise SimulatedCrash("filesystem already crashed")

    def _enter(self) -> bool:
        """Count one mutating call; True when it must crash.  The
        caller must hold :attr:`_lock`."""
        self._check_alive()
        self.ops += 1
        return self.crash_at is not None and self.ops == self.crash_at

    def _die(self) -> None:
        """Crash.  The caller must hold :attr:`_lock`: each mutating
        primitive is atomic (site check + real op + durability
        bookkeeping) under the lock, because a crash landing *between*
        another thread's rename/fsync and its ``_synced`` update would
        roll back an operation the real kernel had already made durable
        — the harness would then manufacture data loss no physical
        crash can produce."""
        self.crashed = True
        if self.mode == "lose":
            # The unsynced page cache evaporates: roll every
            # tracked file back to its last durable length.
            for path, size in list(self._synced.items()):
                try:
                    if os.path.getsize(path) > size:
                        os.truncate(path, size)
                except FileNotFoundError:
                    pass
        raise SimulatedCrash(f"crash at injection site {self.ops}")

    # -- mutating primitives (each call is one injection site) -----------------

    def open_write(self, handle_path: str) -> FileHandle:
        with self._lock:
            if self._enter():
                self._die()
            self._synced.setdefault(handle_path, 0)
            return super().open_write(handle_path)

    def open_append(self, path: str) -> FileHandle:
        with self._lock:
            if self._enter():
                self._die()
            self._synced.setdefault(
                path, os.path.getsize(path) if os.path.exists(path) else 0
            )
            return super().open_append(path)

    def write(self, handle: FileHandle, data) -> None:
        with self._lock:
            if self._enter():
                torn = int(len(data) * self.torn_fraction)
                if torn:
                    super().write(handle, data[:torn])
                self._die()
            super().write(handle, data)

    def fsync(self, handle: FileHandle) -> None:
        with self._lock:
            if self._enter():
                self._die()
            # No physical fsync: the loss model below is what simulates
            # the missing flush, and skipping thousands of real fsyncs
            # keeps the injection sweep fast.
            self._synced[handle.path] = os.path.getsize(handle.path)

    def close(self, handle: FileHandle) -> None:
        # Not a durability point and not a site: close never syncs.
        # Deliberately allowed after a crash — the kernel closes a dead
        # process's descriptors, and refusing here would only strand
        # handles (ResourceWarning noise under PYTHONDEVMODE) without
        # modeling anything real.
        super().close(handle)

    def rename(self, src: str, dst: str) -> None:
        with self._lock:
            if self._enter():
                self._die()
            super().rename(src, dst)
            self._synced[dst] = self._synced.pop(
                src, os.path.getsize(dst)
            )

    def link(self, src: str, dst: str) -> None:
        with self._lock:
            if self._enter():
                self._die()
            super().link(src, dst)
            # The new name aliases an inode whose durable length is the
            # source's: a backup taken just before a crash loses bytes
            # exactly when the source would have.
            self._synced[dst] = self._synced.get(
                src, os.path.getsize(dst)
            )

    def remove(self, path: str) -> None:
        with self._lock:
            if self._enter():
                self._die()
            super().remove(path)
            self._synced.pop(path, None)

    def truncate(self, path: str, size: int) -> None:
        with self._lock:
            if self._enter():
                self._die()
            super().truncate(path, size)
            self._synced[path] = min(self._synced.get(path, size), size)

    def fsync_dir(self, path: str) -> None:
        with self._lock:
            if self._enter():
                self._die()
            # Directory entries: modeled durable at rename time (see
            # module docstring), so nothing further to record.

    # -- read-only primitives (never sites, but dead after a crash) ------------

    def read_bytes(self, path: str, offset: int = 0, length=None) -> bytes:
        self._check_alive()
        return super().read_bytes(path, offset, length)

    def file_size(self, path: str) -> int:
        self._check_alive()
        return super().file_size(path)

    def exists(self, path: str) -> bool:
        self._check_alive()
        return super().exists(path)

    def listdir(self, path: str) -> list[str]:
        self._check_alive()
        return super().listdir(path)

    def makedirs(self, path: str) -> None:
        self._check_alive()
        super().makedirs(path)

    def memmap(self, path: str, *, dtype, offset: int, shape) -> np.ndarray:
        self._check_alive()
        return super().memmap(path, dtype=dtype, offset=offset, shape=shape)
