"""Versioned manifest: the single source of truth for the run set.

The manifest is the store's durable super-root.  One small section
file (``MANIFEST``, see :mod:`repro.lsm.format`) records everything
needed to reconstruct the store's structure:

* the live run files, newest-first, with per-run sanity metadata
  (sequence, entry count, tombstone count — cross-checked against
  each run file's own header at load; the ``level`` entry older
  manifests carry is ignored);
* the current WAL generation file name;
* the next file id and next run sequence number (so ids never recycle
  across a crash — a half-deleted orphan can never collide with a
  fresh file).

Every structural transition — seal, compaction window, full compact —
builds the new state in memory and commits it with one atomic swap:
write ``MANIFEST.tmp``, fsync, ``rename`` over ``MANIFEST``, fsync the
directory.  A crash at any intermediate point leaves the *old*
manifest in force, and every file the new state would have introduced
is an unreferenced orphan that recovery garbage-collects.  Ordering
discipline around the swap:

* files the **new** state needs (run file, fresh WAL generation) are
  written and fsynced *before* the commit;
* files only the **old** state needs (replaced runs, the previous WAL
  generation) are deleted *after* it — and with background compaction
  (ISSUE 7) "after" stretches further: a replaced run stays on disk
  until the last pinned read snapshot releases it.  That deferral is
  crash-free by construction, because a retired-but-undeleted run is
  exactly a manifest-unreferenced orphan, the category recovery
  already garbage-collects.

Corruption of a committed manifest raises
:class:`~repro.lsm.format.CorruptRunError` rather than silently
falling back to an older state: the old state would be missing
acknowledged writes, and inventing a consistent-looking but stale
store is worse than failing loudly.  (Torn manifests cannot happen
under the rename-atomicity assumption; a detected-corrupt one means
the storage itself lied.)
"""

from __future__ import annotations

import os

from .format import MANIFEST_MAGIC, SectionFile, write_section_file

__all__ = ["MANIFEST_NAME", "load_manifest", "commit_manifest"]

MANIFEST_NAME = "MANIFEST"

#: Manifest schema version (bump on incompatible layout changes).
VERSION = 1


def commit_manifest(fs, directory: str, state: dict) -> None:
    """Atomically publish ``state`` as ``directory/MANIFEST``."""
    meta = dict(state)
    meta["version"] = VERSION
    write_section_file(
        fs,
        os.path.join(directory, MANIFEST_NAME),
        magic=MANIFEST_MAGIC,
        meta=meta,
        sections=[],
    )


def load_manifest(fs, directory: str) -> dict:
    """Read and validate ``directory/MANIFEST``.

    Raises :class:`~repro.lsm.format.CorruptRunError` on any header,
    checksum, or schema failure.
    """
    reader = SectionFile(
        fs, os.path.join(directory, MANIFEST_NAME), magic=MANIFEST_MAGIC
    )
    state = dict(reader.meta)
    state.pop("sections", None)
    from .format import CorruptRunError

    if state.get("version") != VERSION:
        raise CorruptRunError(
            f"{reader.path}: unsupported manifest version "
            f"{state.get('version')!r}"
        )
    for field in ("next_file_id", "next_sequence", "wal", "runs"):
        if field not in state:
            raise CorruptRunError(
                f"{reader.path}: manifest missing field {field!r}"
            )
    return state
