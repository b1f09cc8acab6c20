"""On-disk section-file format shared by runs and the manifest.

Durability (PR 6) rests on one framing discipline: every file the LSM
writes is a *section file* — a fixed header, a checksummed JSON
metadata block, then zero or more raw data sections whose offsets,
byte lengths, dtypes, and checksums are all recorded in the metadata.
The layout is::

    [magic 4s][algo u8][meta_len u32][meta_crc u32]   13-byte header
    [meta: UTF-8 JSON, meta_len bytes]
    [section 0 bytes][section 1 bytes]...

Offsets in the section table are relative to the end of the metadata
block, so the table never has to describe its own length.  The
metadata block is padded (trailing spaces — still valid JSON) and
sections are padded with zero bytes so every section starts 8-byte
aligned in the file: ``np.memmap`` over an unaligned int64 region
exports a non-native buffer format that Python memoryviews cannot
index, and unaligned loads are slower everywhere else too.  Files are
always produced whole via the atomic-publish discipline (write to
``<path>.tmp``, fsync, ``rename``, fsync the directory), so a crash
mid-write leaves only an unreferenced ``.tmp`` orphan — a reader never
sees a partially written section file.

Checksums: the format *records the checksum algorithm* in its header
byte.  Writers use hardware-accelerated ``crc32c`` when the optional
package is importable and ``zlib.crc32`` (also C speed) otherwise.
Readers dispatch on the recorded byte — and a
vendored slice-by-8 software CRC32C (:func:`software_crc32c`,
bit-compatible with the wheel) backs the CRC32C id everywhere, so a
file written on a machine with the wheel always verifies on a machine
without it instead of raising.  The software path is pure Python
(~ms/MB), which is why it is the *fallback* verifier, not the default
writer.

Section reads are *lazy and verified*: :meth:`SectionFile.array` maps
a section with ``np.memmap`` and checks its checksum on first
materialization — reopening a run is O(metadata), and a flipped bit in
any section surfaces as :class:`CorruptRunError` before the data can
answer a query wrong.
"""

from __future__ import annotations

import json
import os
import struct
import zlib

import numpy as np

__all__ = [
    "CorruptRunError",
    "RUN_MAGIC",
    "MANIFEST_MAGIC",
    "ALGO_CRC32",
    "ALGO_CRC32C",
    "checksum",
    "crc32c",
    "software_crc32c",
    "SectionFile",
    "write_section_file",
]

#: Four-byte magics: learned-run v1 and learned-manifest v1.
RUN_MAGIC = b"LRN1"
MANIFEST_MAGIC = b"LMF1"

_HEADER = struct.Struct("<4sBII")

#: Sections start at multiples of this so memmapped int64/float64
#: arrays are naturally aligned (native buffer exports, fast loads).
_ALIGN = 8

#: Checksum algorithm ids recorded in the header's ``algo`` byte.
ALGO_CRC32 = 1
ALGO_CRC32C = 2

try:  # pragma: no cover - exercised only where the wheel exists
    import crc32c as _crc32c_mod

    _HAVE_CRC32C = True
except ImportError:
    _crc32c_mod = None
    _HAVE_CRC32C = False


def _build_crc32c_tables() -> list[list[int]]:
    """Slice-by-8 lookup tables for the Castagnoli polynomial.

    The standard construction (Intel's slicing-by-8, as vendored by
    LevelDB/RocksDB): table 0 is the classic byte-at-a-time table for
    the reflected polynomial 0x82F63B78; table k advances a CRC by one
    byte-position more than table k-1, so eight lookups fold eight
    input bytes at once.
    """
    poly = 0x82F63B78
    tables = [[0] * 256 for _ in range(8)]
    t0 = tables[0]
    for n in range(256):
        c = n
        for _ in range(8):
            c = (c >> 1) ^ poly if c & 1 else c >> 1
        t0[n] = c
    for n in range(256):
        c = t0[n]
        for k in range(1, 8):
            c = t0[c & 0xFF] ^ (c >> 8)
            tables[k][n] = c
    return tables


_CRC32C_TABLES: list[list[int]] | None = None


def software_crc32c(data) -> int:
    """Pure-Python CRC32C (Castagnoli), bit-compatible with the
    ``crc32c`` wheel — RFC 3720 test vector ``b"123456789"`` →
    ``0xE3069283``.

    Slice-by-8 over 8-byte words; roughly three orders of magnitude
    slower than the hardware instruction, so it serves as the
    *verification fallback* for CRC32C-stamped files on machines
    without the wheel.
    """
    global _CRC32C_TABLES
    if _CRC32C_TABLES is None:
        _CRC32C_TABLES = _build_crc32c_tables()
    t0, t1, t2, t3, t4, t5, t6, t7 = _CRC32C_TABLES
    buf = bytes(data)
    n = len(buf)
    crc = 0xFFFFFFFF
    end8 = n & ~7
    for (word,) in struct.iter_unpack("<Q", memoryview(buf)[:end8]):
        lo = crc ^ (word & 0xFFFFFFFF)
        hi = word >> 32
        crc = (
            t7[lo & 0xFF]
            ^ t6[(lo >> 8) & 0xFF]
            ^ t5[(lo >> 16) & 0xFF]
            ^ t4[lo >> 24]
            ^ t3[hi & 0xFF]
            ^ t2[(hi >> 8) & 0xFF]
            ^ t1[(hi >> 16) & 0xFF]
            ^ t0[hi >> 24]
        )
    for byte in buf[end8:]:
        crc = t0[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF


def crc32c(data) -> int:
    """CRC32C via the wheel when importable, software otherwise."""
    if _HAVE_CRC32C:
        return int(_crc32c_mod.crc32c(bytes(data)))
    return software_crc32c(data)


#: What writers stamp: the wheel's CRC32C when it is installed.
_DEFAULT_ALGO = ALGO_CRC32C if _HAVE_CRC32C else ALGO_CRC32


class CorruptRunError(Exception):
    """A durable file failed validation (bad magic, checksum mismatch,
    truncated section, or metadata that contradicts the manifest).

    Raised instead of returning data: a corrupt section must never
    answer a query.  The message always names the file and the failing
    part.
    """


def checksum(data, algo: int = _DEFAULT_ALGO) -> int:
    """Checksum of ``data`` (bytes-like) under the given algorithm id."""
    if algo == ALGO_CRC32:
        return zlib.crc32(data) & 0xFFFFFFFF
    if algo == ALGO_CRC32C:
        return crc32c(data)
    raise CorruptRunError(f"unknown checksum algorithm id {algo}")


def _encode_meta(meta: dict) -> bytes:
    return json.dumps(
        meta, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def write_section_file(
    fs,
    path: str,
    *,
    magic: bytes,
    meta: dict,
    sections: list[tuple[str, np.ndarray | bytes]] = (),
    fsync_every: int | None = None,
) -> None:
    """Atomically publish a section file at ``path``.

    ``meta`` gains a ``"sections"`` table describing every entry of
    ``sections`` (offset / nbytes / dtype / checksum; raw ``bytes``
    payloads record dtype ``"bytes"``).  The file lands via write-tmp +
    fsync + rename + directory fsync, so it either exists complete and
    validated or not at all; each section is its own ``fs.write`` call,
    which is what gives the fault harness one injection site per
    section.

    ``fsync_every`` bounds how many dirty bytes can accumulate before
    an intermediate fsync (writes are also split to that granularity) —
    the RocksDB ``bytes_per_sync`` idea.  Publication stays atomic (the
    rename still gates visibility); the point is to keep one
    multi-megabyte background flush from entangling a concurrent
    foreground fsync (the WAL's) in a single giant journal commit.
    Callers needing a deterministic injection-site count (the crash
    fuzz's synchronous sweeps) must leave it None.
    """
    algo = _DEFAULT_ALGO
    table: dict[str, dict] = {}
    blobs: list = []
    offset = 0
    for name, data in sections:
        if isinstance(data, np.ndarray):
            # Zero-copy view, not ``tobytes()``: the copy is a
            # multi-megabyte memcpy under the GIL, which on the
            # background worker stalls concurrent foreground inserts.
            # ``os.write`` and large-buffer crc32 both release the GIL,
            # so handing the view straight down keeps the save
            # GIL-quiet.
            arr = np.ascontiguousarray(data)
            blob = memoryview(arr).cast("B")
            dtype = arr.dtype.str
        else:
            blob = bytes(data)
            dtype = "bytes"
        pad = -offset % _ALIGN
        if pad:
            blobs.append(b"\x00" * pad)
            offset += pad
        table[name] = {
            "offset": offset,
            "nbytes": len(blob),
            "dtype": dtype,
            "crc": checksum(blob, algo),
        }
        blobs.append(blob)
        offset += len(blob)
    meta = dict(meta)
    meta["sections"] = table
    payload = _encode_meta(meta)
    # Pad the metadata so the data region starts 8-byte aligned
    # (trailing spaces keep the payload valid JSON).
    payload += b" " * (-(_HEADER.size + len(payload)) % _ALIGN)
    header = _HEADER.pack(magic, algo, len(payload), checksum(payload, algo))
    tmp = path + ".tmp"
    handle = fs.open_write(tmp)
    try:
        fs.write(handle, header)
        fs.write(handle, payload)
        pending = len(header) + len(payload)
        for blob in blobs:
            if not blob:
                continue
            if fsync_every is None:
                fs.write(handle, blob)
                continue
            view = memoryview(blob)
            for start in range(0, len(view), fsync_every):
                chunk = view[start:start + fsync_every]
                fs.write(handle, chunk)
                pending += len(chunk)
                if pending >= fsync_every:
                    fs.fsync(handle)
                    pending = 0
        fs.fsync(handle)
    finally:
        fs.close(handle)
    fs.rename(tmp, path)
    fs.fsync_dir(os.path.dirname(path) or ".")


class SectionFile:
    """Validated reader over one section file.

    Construction reads and verifies only the header + metadata block —
    O(metadata) regardless of data size.  Section payloads map lazily
    (:meth:`array` / :meth:`read`) and verify their checksum exactly
    once, on first materialization; every validation failure raises
    :class:`CorruptRunError`.
    """

    def __init__(self, fs, path: str, *, magic: bytes):
        self._fs = fs
        self.path = path
        head = fs.read_bytes(path, 0, _HEADER.size)
        if len(head) < _HEADER.size:
            raise CorruptRunError(f"{path}: truncated header")
        got_magic, algo, meta_len, meta_crc = _HEADER.unpack(head)
        if got_magic != magic:
            raise CorruptRunError(
                f"{path}: bad magic {got_magic!r} (expected {magic!r})"
            )
        self.algo = algo
        payload = fs.read_bytes(path, _HEADER.size, meta_len)
        if len(payload) < meta_len:
            raise CorruptRunError(f"{path}: truncated metadata block")
        if checksum(payload, algo) != meta_crc:
            raise CorruptRunError(f"{path}: metadata checksum mismatch")
        try:
            self.meta = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CorruptRunError(
                f"{path}: undecodable metadata ({exc})"
            ) from None
        self._data_start = _HEADER.size + meta_len
        self._sections = self.meta.get("sections", {})
        self._verified: set[str] = set()

    def _entry(self, name: str) -> dict:
        try:
            return self._sections[name]
        except KeyError:
            raise CorruptRunError(
                f"{self.path}: missing section {name!r}"
            ) from None

    def _verify(self, name: str, view) -> None:
        if name in self._verified:
            return
        entry = self._entry(name)
        if checksum(view, self.algo) != entry["crc"]:
            raise CorruptRunError(
                f"{self.path}: checksum mismatch in section {name!r}"
            )
        self._verified.add(name)

    def array(self, name: str) -> np.ndarray:
        """Section ``name`` as a read-only memmapped array, checksum-
        verified on this first materialization (the verification pass
        is the first time the section's pages are read at all)."""
        entry = self._entry(name)
        dtype = np.dtype(entry["dtype"])
        nbytes = int(entry["nbytes"])
        if nbytes % dtype.itemsize:
            raise CorruptRunError(
                f"{self.path}: section {name!r} length {nbytes} is not "
                f"a multiple of dtype {dtype}"
            )
        count = nbytes // dtype.itemsize
        if count == 0:
            self._verified.add(name)
            return np.empty(0, dtype=dtype)
        offset = self._data_start + int(entry["offset"])
        if offset + nbytes > self.file_size():
            raise CorruptRunError(
                f"{self.path}: section {name!r} extends past end of file"
            )
        arr = self._fs.memmap(
            self.path, dtype=dtype, offset=offset, shape=(count,)
        )
        self._verify(name, memoryview(arr).cast("B"))
        return arr

    def read(self, name: str) -> bytes:
        """Section ``name`` as verified raw bytes (for non-array
        payloads: the bloom filter's bits)."""
        entry = self._entry(name)
        offset = self._data_start + int(entry["offset"])
        blob = self._fs.read_bytes(self.path, offset, int(entry["nbytes"]))
        if len(blob) < int(entry["nbytes"]):
            raise CorruptRunError(
                f"{self.path}: section {name!r} is truncated"
            )
        self._verify(name, blob)
        return blob

    def file_size(self) -> int:
        return self._fs.file_size(self.path)
