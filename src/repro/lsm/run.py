"""Immutable sorted runs: per-run RMI + bloom guard (Appendix D.1).

"Learned Indexes for a Google-scale Disk-based Database" (Abu-Libdeh
et al.) and "Evaluating Learned Indexes in LSM-tree Systems" (Liu et
al.) converge on the same production shape the paper's Bigtable remark
points at: writes land in a buffer, seals produce *immutable* sorted
runs, and each run carries its own learned index — immutability is
precisely what makes learned indexes practical here, because a run's
model is trained once at seal/compaction time and never invalidated.

A :class:`SortedRun` is that unit: a sorted unique key array (with
parallel values and a tombstone mask), indexed by a two-stage
:class:`~repro.core.rmi.RecursiveModelIndex` of one leaf per
:data:`DEFAULT_LEAF_TARGET` keys — sealing costs one segmented
least-squares pass (PR 3), not ten thousand Python model fits — and
guarded by a register-blocked :class:`~repro.bloom.BlockedBloomFilter`
over its keys, so point probes for keys the run cannot hold skip the
model entirely.  :data:`BLOOM_FPR` is its sizing rule: the filter
takes whole 64-bit words enough for a stated false-positive rate
(``BlockedBloomFilter.expected_fpr``) of at most that, 1.7% at ~10.2
bits a key (each key's bits share one word: one gather a check, not
the seven of a standard filter, which would spend 9.6 bits a key for
1%).

Durability (PR 6): immutability also makes a run the perfect unit of
persistence.  :meth:`SortedRun.save` writes one checksummed section
file (:mod:`repro.lsm.format`) holding the key/value/tombstone arrays,
the RMI's compiled state (origin and root parameters + the four flat
leaf tables), and the filter's ``to_bytes`` wire form;
:meth:`SortedRun.load` reopens it in O(metadata) — every array is a
lazy ``np.memmap`` property, the RMI reconstructs from the stored
arrays via :meth:`RecursiveModelIndex.from_compiled_arrays` (bit-exact
lookups, no retrain), and the filter rehydrates from its exported bits
(no rehashing).  Each section's checksum verifies on first
materialization, so a flipped bit raises
:class:`~repro.lsm.format.CorruptRunError` instead of answering wrong.
The metadata's ``bloom_kind`` names the wire form: ``"blocked"`` is
``BlockedBloomFilter.to_bytes``, what every run is written with;
absent or ``"standard"`` is ``BloomFilter.to_bytes``, what files
written before runs held blocked filters carry.  Such a section is
never read: the run builds its blocked filter over its keys on the
first read that asks it (~14 ms at 500k keys), so every read asks one
kind of filter, and the next merge that takes the run in writes a
blocked one.  Any other kind is a ``CorruptRunError`` — a run's
bytes are only ever parsed, never executed.  A ``leaf_target``
or ``level`` entry (older files record them) is ignored.
"""

from __future__ import annotations

import numpy as np

from ..bloom.blocked import BlockedBloomFilter
from ..core.engine import CompiledPlan
from ..core.rmi import RecursiveModelIndex
from ..dispatch import ORDERED_PROBE_CROSSOVERS, column_answers
from ..range_scan import assemble_slices
from ..util import as_int64_pairs
from .format import RUN_MAGIC, CorruptRunError, SectionFile, write_section_file

__all__ = [
    "SortedRun",
    "DEFAULT_LEAF_TARGET",
    "BLOOM_FPR",
    "probe_at",
    "scan_entries",
]

#: Target keys per RMI leaf when sealing a run; leaves scale with run
#: size so error windows stay page-sized from 4k-key seals to
#: million-key compacted runs.
DEFAULT_LEAF_TARGET = 256

#: Sizing rule of every run's filter: the stated false-positive rate
#: (``BlockedBloomFilter.expected_fpr``) it is built for, ~10.2 bits a
#: key.  The 9.6 bits of a 1% standard filter would state ~2%; 1.7%
#: keeps the rate the runs show under 2% for 0.4% more bytes on disk.
BLOOM_FPR = 0.017


def _train_rmi(keys: np.ndarray) -> RecursiveModelIndex:
    leaves = max(1, -(-keys.size // DEFAULT_LEAF_TARGET))
    return RecursiveModelIndex(keys, stage_sizes=(1, leaves))


def _compiled_rmi(keys: np.ndarray, meta, table) -> RecursiveModelIndex:
    """Rebuild a run's RMI from its wire form, no retrain: origin and
    root parameters from ``meta``, each leaf table from ``table(name)``.
    A run written before the ``origin`` entry existed holds tables
    fitted on raw keys, which is what origin 0 means."""
    return RecursiveModelIndex.from_compiled_arrays(
        keys,
        origin=meta.get("origin", 0),
        root_slope=float(meta["root_slope"]),
        root_intercept=float(meta["root_intercept"]),
        **{name: table(name) for name in CompiledPlan.ARRAY_FIELDS},
    )


def _build_bloom(keys: np.ndarray) -> BlockedBloomFilter:
    bloom = BlockedBloomFilter.for_capacity(max(keys.size, 1), BLOOM_FPR)
    if keys.size:
        bloom.add_batch(keys)
    return bloom


def probe_at(keys, values, tombstones, queries, pos):
    """(entry mask, tombstone mask, values) of a query batch in one
    run-layout triple, given each query's lower bound ``pos`` in
    ``keys`` — the membership test that ends every batch probe, a
    run's and the memtable's."""
    n = keys.size
    if n == 0:
        empty = np.zeros(queries.size, dtype=bool)
        return empty, empty.copy(), np.zeros(queries.size, dtype=np.int64)
    safe = np.minimum(pos, n - 1)
    hit = (pos < n) & (keys[safe] == queries)
    return hit, hit & tombstones[safe], values[safe]


def scan_entries(result, tombstones, values=None):
    """``(result, tombstone flags)`` of a range scan over one
    run-layout source, the flags copied out by the ``[starts, ends)``
    slice plan the scan copied its keys by
    (:func:`~repro.range_scan.assemble_slices`); given ``values``, the
    stored payloads follow as a third element, through the same plan.
    Every range scan of a run and of the memtable ends here."""
    flags, _ = assemble_slices(tombstones, result.starts, result.ends)
    if values is None:
        return result, flags
    payloads, _ = assemble_slices(values, result.starts, result.ends)
    return result, flags, payloads


class SortedRun:
    """One immutable sorted run of an LSM store.

    Parameters
    ----------
    keys:
        Sorted unique int64 keys — both live entries and tombstones —
        under the key contract (:func:`repro.util.as_int64_keys`): a
        non-integer array is a ``TypeError`` and a key outside int64
        an ``OverflowError``, never a cast that changes a key.
    values:
        Parallel int64 payloads (ignored for tombstone entries),
        under the same contract; they default to the keys.
    tombstones:
        Parallel bool mask; True marks a delete marker that shadows any
        older run's version of the key.
    sequence:
        Seal sequence number (larger = newer).

    Constructed runs are eager (arrays in memory, RMI and bloom built
    at init); runs reopened from disk via :meth:`load` are lazy —
    ``keys`` / ``values`` / ``tombstones`` / ``rmi`` / ``bloom`` are
    properties that materialize from the checksummed section file on
    first touch, so reopening a store is O(metadata) per run.
    """

    def __init__(
        self,
        keys: np.ndarray,
        values: np.ndarray | None = None,
        tombstones: np.ndarray | None = None,
        *,
        sequence: int = 0,
    ):
        keys, values = as_int64_pairs(keys, values)
        if keys.size and np.any(keys[1:] <= keys[:-1]):
            raise ValueError("run keys must be sorted and unique")
        if tombstones is None:
            tombstones = np.zeros(keys.size, dtype=bool)
        self._adopt(
            keys,
            values,
            np.asarray(tombstones, dtype=bool),
            _train_rmi(keys),
            _build_bloom(keys),
            sequence=sequence,
        )

    def _adopt(
        self, keys, values, tombstones, rmi, bloom, *, sequence,
        n=None, num_tombstones=None, source=None, path=None,
    ) -> "SortedRun":
        """Assign every field of a run; all three constructors end
        here.  Eager runs pass arrays, index and guard (counts derive
        from them); a lazy :meth:`load` passes None for all five plus
        its ``source`` file and the counts its metadata recorded."""
        if keys is not None and (
            values.size != keys.size or tombstones.size != keys.size
        ):
            raise ValueError("values/tombstones must parallel keys")
        self._keys = keys
        self._values = values
        self._tombstones = tombstones
        self._rmi = rmi
        self._bloom = bloom
        self._n = int(keys.size if n is None else n)
        if num_tombstones is None:
            num_tombstones = np.count_nonzero(tombstones)
        self._num_tombstones = int(num_tombstones)
        self.sequence = int(sequence)
        self._source = source
        self.path = path
        #: Snapshot pin count (ISSUE 7): reads pin every run in their
        #: run-set snapshot so a background merge that supersedes the
        #: run defers closing + deleting it until the count returns to
        #: zero.  Mutated only under the store's state lock.
        self.pins = 0
        return self

    @classmethod
    def from_arrays(
        cls,
        keys: np.ndarray,
        values: np.ndarray,
        tombstones: np.ndarray,
        *,
        sequence: int = 0,
    ) -> "SortedRun":
        """Wrap existing sorted unique arrays as a run without
        copying them or re-checking their order; trains the RMI and
        builds the filter over ``keys``, as the constructor does."""
        keys, values = as_int64_pairs(keys, values)
        return cls.__new__(cls)._adopt(
            keys,
            values,
            np.asarray(tombstones, dtype=bool),
            _train_rmi(keys),
            _build_bloom(keys),
            sequence=sequence,
        )

    # -- persistence -----------------------------------------------------------

    def save(self, fs, path: str, *, fsync_every: int | None = None) -> None:
        """Write this run as one atomic checksummed section file.

        Data (keys/values/tombstones), index (the RMI's compiled
        state), and guard (bloom wire form) all land in a single file;
        see :mod:`repro.lsm.format` for the publish discipline.  Sets
        :attr:`path` on success — the name the manifest will record.
        ``fsync_every`` is the incremental-flush bound for saves that
        run concurrently with foreground WAL fsyncs (see
        :func:`~repro.lsm.format.write_section_file`).
        """
        meta, sections = self.wire_form()
        write_section_file(
            fs, path, magic=RUN_MAGIC, meta=meta, sections=sections,
            fsync_every=fsync_every,
        )
        self.path = path

    def wire_form(self) -> tuple[dict, list]:
        """``(meta, [(section, array-or-bytes), ...])`` — the run's
        flat state, as :meth:`save` writes it into a section file."""
        state = self.rmi.compiled_state()
        meta = {
            "kind": "run",
            "n": self._n,
            "sequence": self.sequence,
            "num_tombstones": self._num_tombstones,
            # float64 round-trips JSON exactly (shortest-repr) and so
            # does a Python int, so the origin and the root parameters
            # reload bit-identical.
            "origin": state["origin"],
            "root_slope": state["root_slope"],
            "root_intercept": state["root_intercept"],
            "bloom_kind": "blocked",
        }
        sections = [
            ("keys", self.keys),
            ("values", self.values),
            ("tombstones", self.tombstones.astype(np.uint8)),
            *((name, state[name]) for name in CompiledPlan.ARRAY_FIELDS),
            ("bloom", self.bloom.to_bytes()),
        ]
        return meta, sections

    @classmethod
    def load(cls, fs, path: str, *, expect: dict | None = None) -> "SortedRun":
        """Reopen a saved run in O(metadata).

        Only the header and metadata block are read here; arrays map
        lazily on first access (each section checksum-verified exactly
        once, at materialization).  ``expect`` carries the manifest's
        per-run record — any disagreement with the file's own metadata
        (count, sequence, tombstones) raises
        :class:`CorruptRunError`, catching wrong-file and stale-file
        corruption that per-section checksums cannot see.
        """
        source = SectionFile(fs, path, magic=RUN_MAGIC)
        meta = source.meta
        if meta.get("kind") != "run":
            raise CorruptRunError(f"{path}: not a run file")
        self = cls.__new__(cls)
        try:
            self._adopt(
                None, None, None, None, None, source=source, path=path,
                n=meta["n"], num_tombstones=meta["num_tombstones"],
                sequence=meta["sequence"],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptRunError(
                f"{path}: incomplete run metadata ({exc})"
            ) from None
        if expect is not None:
            for field, attr in (
                ("n", "_n"), ("sequence", "sequence"),
                ("tombstones", "_num_tombstones"),
            ):
                if field in expect and int(expect[field]) != getattr(
                    self, attr
                ):
                    raise CorruptRunError(
                        f"{path}: manifest expects {field}="
                        f"{expect[field]}, file has {getattr(self, attr)}"
                    )
        return self

    @property
    def keys(self) -> np.ndarray:
        if self._keys is None:
            self._keys = self._source.array("keys")
            if self._keys.size != self._n:
                raise CorruptRunError(
                    f"{self.path}: key section holds {self._keys.size} "
                    f"entries, metadata says {self._n}"
                )
        return self._keys

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            values = self._source.array("values")
            if values.size != self._n:
                raise CorruptRunError(
                    f"{self.path}: value section holds {values.size} "
                    f"entries, metadata says {self._n}"
                )
            self._values = values
        return self._values

    @property
    def tombstones(self) -> np.ndarray:
        if self._tombstones is None:
            mask = self._source.array("tombstones")
            if mask.size != self._n:
                raise CorruptRunError(
                    f"{self.path}: tombstone section holds {mask.size} "
                    f"entries, metadata says {self._n}"
                )
            self._tombstones = mask.view(np.bool_)
        return self._tombstones

    @property
    def rmi(self) -> RecursiveModelIndex:
        if self._rmi is None:
            source = self._source
            try:
                self._rmi = _compiled_rmi(
                    self.keys, source.meta, source.array
                )
            except (KeyError, ValueError) as exc:
                raise CorruptRunError(
                    f"{self.path}: unusable compiled index ({exc})"
                ) from None
        return self._rmi

    @property
    def bloom(self) -> BlockedBloomFilter:
        if self._bloom is None:
            kind = self._source.meta.get("bloom_kind", "standard")
            if kind == "standard":  # written before runs held blocked filters
                self._bloom = _build_bloom(self.keys)
            elif kind != "blocked":
                raise CorruptRunError(
                    f"{self.path}: unknown bloom kind {kind!r}"
                )
            else:
                try:
                    self._bloom = BlockedBloomFilter.from_bytes(
                        self._source.read("bloom")
                    )
                except ValueError as exc:
                    raise CorruptRunError(
                        f"{self.path}: bad bloom section ({exc})"
                    ) from None
        return self._bloom

    def close(self) -> None:
        """Release lazily mapped sections (memmaps hold the file open).

        Only meaningful for loaded runs; an eager in-memory run keeps
        its arrays.  Idempotent; a closed run re-materializes on next
        touch if the file still exists.
        """
        if self._source is None:
            return
        self._keys = None
        self._values = None
        self._tombstones = None
        self._rmi = None
        self._bloom = None

    # -- point reads -----------------------------------------------------------

    def bloom_contains_batch(self, queries: np.ndarray) -> np.ndarray:
        """One bool per query: may this run hold an entry for it?"""
        return np.asarray(self.bloom.contains_batch(queries), dtype=bool)

    def probe(self, key: int) -> tuple[bool, bool, int]:
        """(entry present, entry is tombstone, value) — scalar probe.

        The caller is expected to have consulted the bloom filter; this
        runs the RMI's scalar latency path (exact: the key stays a
        Python int through every comparison).
        """
        pos = self.rmi.lookup(key)
        if pos < self._n and int(self.keys[pos]) == key:
            return True, bool(self.tombstones[pos]), int(self.values[pos])
        return False, False, 0

    def probe_batch(
        self, queries: np.ndarray, *, ascending: bool = False
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(entry mask, tombstone mask, values) for an int64 query batch.

        One vectorized ``lookup_batch`` against the run's RMI — int64
        end to end through the shared query core, so keys >= 2^53
        resolve exactly; the masks tell the store which queries this
        run *answers* (present or deleted) versus which fall through
        to older runs.  ``ascending=True`` says the queries are sorted:
        up to :data:`~repro.dispatch.ORDERED_PROBE_CROSSOVERS` of them
        then take one ``np.searchsorted`` on the key column instead,
        which returns the same positions.
        """
        if ascending and column_answers(
            queries.size, self._n, ORDERED_PROBE_CROSSOVERS
        ):
            pos = np.searchsorted(self.keys, queries)
        else:
            pos = self.rmi.lookup_batch(queries)
        return probe_at(self.keys, self.values, self.tombstones, queries, pos)

    # -- range reads -----------------------------------------------------------

    def range_scan_batch(
        self, lows: np.ndarray, highs: np.ndarray, *, with_values: bool = False
    ):
        """(per-range entries, tombstone flags aligned to the values).

        The run's RMI resolves all bounds vectorized, and
        :func:`scan_entries` copies out the flags; ``with_values=True``
        appends the stored payloads as a third element, for the
        store's ``range_items_batch``.
        """
        return scan_entries(
            self.rmi.range_query_batch(lows, highs),
            self.tombstones,
            self.values if with_values else None,
        )

    # -- accounting ------------------------------------------------------------

    @property
    def num_tombstones(self) -> int:
        return self._num_tombstones

    def __len__(self) -> int:
        return self._n

    def is_loaded_lazy(self) -> bool:
        """True while this is a disk-backed run whose key array has not
        been materialized (the O(metadata) reopen invariant benchmarks
        and tests pin)."""
        return self._source is not None and self._keys is None

    def size_bytes(self) -> int:
        """Data (keys + values + mask) plus index overhead (RMI + bloom)."""
        if self._source is not None and (
            self._rmi is None or self._bloom is None
        ):
            # Not fully materialized: the on-disk footprint is the
            # honest answer, and computing the in-memory one would
            # defeat the lazy reopen.
            return self._source.file_size()
        return (
            self._n * 17
            + self.rmi.size_bytes()
            + int(self.bloom.size_bytes())
        )

    def __repr__(self) -> str:
        return (
            f"SortedRun(n={self._n}, seq={self.sequence}, "
            f"tombstones={self.num_tombstones})"
        )
