"""Real-I/O paged lookups over sealed run files (ISSUE 8 satellite).

The PR 6 durability work left ROADMAP item 4 open: the paged index of
Appendix D.2 counted *simulated* page reads, while the LSM's runs are
actual on-disk section files.  This module closes the loop:
:func:`paged_index_over_run` builds a
:class:`~repro.core.paged.PagedLearnedIndex` whose page store is a
:class:`~repro.core.paged.FilePageStore` aimed at the run file's
``keys`` section — every page fetch is one ``os.pread`` against the
same bytes the LSM serves, and the store's ``preads`` counter reports
syscalls actually issued.  Dropping the OS page cache between batches
(``FilePageStore.drop_cache``) turns the same workload cold — the
cold/warm experiment ``tests/test_serving.py`` drives.

The pread path deliberately bypasses the fault-injection filesystem:
it measures real I/O, and a simulated crash schedule has no meaning
for read-only accounting.  Checksums still hold — the RMI trains from
the section file's *verified* key array before any pread happens.
"""

from __future__ import annotations

from typing import Sequence

from ..core.paged import FilePageStore, PagedLearnedIndex
from .format import RUN_MAGIC, SectionFile

__all__ = ["paged_index_over_run"]


def paged_index_over_run(
    fs,
    path: str,
    *,
    page_size: int = 256,
    partial_reads: bool = False,
    stage_sizes: Sequence[int] = (1, 100),
    buffer_pages: int = 4,
) -> PagedLearnedIndex:
    """A paged learned index reading pages straight out of a run file.

    Opens the section file at ``path`` (validated: magic, metadata
    checksum, key-section checksum), trains the paged RMI over the
    run's keys, then rebinds all reads to a :class:`FilePageStore`
    over the key section's byte span.  The returned index's
    ``store.preads`` / ``store.bytes_read`` count real syscalls; call
    ``store.drop_cache()`` to make the next batch cold.

    The caller owns the descriptor: close it via
    ``index.store.close()`` (or use ``index.store`` as a context
    manager).
    """
    source = SectionFile(fs, path, magic=RUN_MAGIC)
    keys = source.array("keys")
    byte_offset, nbytes = source.section_span("keys")
    store = FilePageStore(
        path,
        byte_offset=byte_offset,
        count=nbytes // 8,
        page_size=page_size,
        partial_reads=partial_reads,
        buffer_pages=buffer_pages,
    )
    return PagedLearnedIndex(
        keys, stage_sizes=stage_sizes, store=store
    )
