"""File layer of the durable LSM, plus corruption injection.

Crash-consistency can only be *tested* if every point where the store
touches stable storage is enumerable and interceptable.  The store
therefore performs all I/O through a tiny primitive interface
(:class:`RealFileSystem`): open/write/append/fsync/close, rename,
remove, truncate, directory fsync, whole-or-ranged reads, and
``np.memmap``.  Production uses this one; the crash-recovery tests wrap
it in a fault-injecting subclass (``tests/fault_injection.py``) that
counts every mutating call as an injection site and dies at a chosen
one.

:func:`flip_byte` is the corruption half of the harness: it XORs one
byte in place so detection tests (and the persistent-store example)
can damage each file section individually.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = [
    "FileHandle",
    "RealFileSystem",
    "flip_byte",
]


class FileHandle:
    """An open file plus the path it mutates (the harness keys its
    dirty-tracking by path)."""

    __slots__ = ("path", "file")

    def __init__(self, path: str, file):
        self.path = path
        self.file = file


class RealFileSystem:
    """The primitive I/O surface the store is written against.

    Writes are unbuffered (``buffering=0``) so a byte handed to
    ``write`` is a byte the OS has — the store's only durability
    boundary is then ``fsync``, exactly like the C systems this
    reproduces.
    """

    def open_write(self, path: str) -> FileHandle:
        return FileHandle(path, open(path, "wb", buffering=0))

    def open_append(self, path: str) -> FileHandle:
        return FileHandle(path, open(path, "ab", buffering=0))

    def write(self, handle: FileHandle, data) -> None:
        handle.file.write(data)

    def fsync(self, handle: FileHandle) -> None:
        os.fsync(handle.file.fileno())

    def close(self, handle: FileHandle) -> None:
        handle.file.close()

    def rename(self, src: str, dst: str) -> None:
        os.replace(src, dst)

    def link(self, src: str, dst: str) -> None:
        os.link(src, dst)

    def remove(self, path: str) -> None:
        os.remove(path)

    def truncate(self, path: str, size: int) -> None:
        os.truncate(path, size)

    def fsync_dir(self, path: str) -> None:
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def read_bytes(self, path: str, offset: int = 0, length=None) -> bytes:
        with open(path, "rb") as f:
            if offset:
                f.seek(offset)
            return f.read(length) if length is not None else f.read()

    def file_size(self, path: str) -> int:
        return os.path.getsize(path)

    def exists(self, path: str) -> bool:
        return os.path.exists(path)

    def listdir(self, path: str) -> list[str]:
        return sorted(os.listdir(path))

    def makedirs(self, path: str) -> None:
        os.makedirs(path, exist_ok=True)

    def memmap(self, path: str, *, dtype, offset: int, shape) -> np.ndarray:
        return np.memmap(
            path, dtype=dtype, mode="r", offset=offset, shape=shape
        )


def flip_byte(path: str, offset: int) -> None:
    """XOR one byte of ``path`` in place (corruption injection)."""
    with open(path, "r+b") as f:
        f.seek(offset)
        byte = f.read(1)
        f.seek(offset)
        f.write(bytes([byte[0] ^ 0xFF]))
