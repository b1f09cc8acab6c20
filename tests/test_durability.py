"""Durability layer tests (ISSUE 6): on-disk formats, WAL, manifest,
persistent store lifecycle, and the corruption-detection matrix.

The crash-schedule sweep lives in ``test_crash_recovery.py``; this file
covers the deterministic half of the durability contract — bit-exact
round trips, O(metadata) reopen, and the promise that a flipped byte in
*any* file section surfaces as :class:`CorruptRunError` (or recovers to
the last consistent state) instead of a wrong answer.
"""

import os
import pickle

import numpy as np
import pytest

from fault_injection import FaultInjectingFilesystem, SimulatedCrash
from repro.bloom import BloomFilter
from repro.core import RecursiveModelIndex
from repro.lsm import (
    CorruptRunError,
    LearnedLSMStore,
    MANIFEST_NAME,
    RealFileSystem,
    SortedRun,
    WriteAheadLog,
    commit_manifest,
    flip_byte,
    load_manifest,
)
from repro.lsm.format import RUN_MAGIC, SectionFile, write_section_file
from repro.lsm.run import DEFAULT_LEAF_TARGET
from repro.lsm.wal import RECORD_DELETE
from repro.lsm.wal import replay as wal_replay


@pytest.fixture
def fs():
    return RealFileSystem()


def section_span(fs, path, name):
    """(absolute offset, nbytes) of a section of a run file, to aim a
    byte flip at."""
    reader = SectionFile(fs, path, magic=RUN_MAGIC)
    entry = reader._entry(name)
    return reader._data_start + int(entry["offset"]), int(entry["nbytes"])


def _example_run(n=4_000, tombstone_every=7, seed=3):
    rng = np.random.default_rng(seed)
    keys = np.unique(rng.integers(0, 1 << 62, size=n, dtype=np.int64))
    values = rng.integers(0, 1 << 62, size=keys.size, dtype=np.int64)
    dead = np.zeros(keys.size, dtype=bool)
    dead[::tombstone_every] = True
    return SortedRun(keys, values, dead, sequence=9)


def _rewrite_as_parent_commit_run(fs, run, path):
    """Rewrite ``run`` at ``path`` the way the commit before the
    model-space origin wrote it: leaf tables fitted on the raw float64
    keys, no ``origin`` entry in the metadata, a standard filter's wire
    form (sized for 1%, as those writers sized it) in the ``bloom``
    section, and the ``leaf_target``, ``bloom_kind: "standard"`` and
    ``level: 0`` entries every older writer recorded."""
    state = RecursiveModelIndex(
        np.asarray(run.keys).astype(np.float64),
        stage_sizes=run.rmi.stage_sizes,
    ).compiled_state()
    assert state["origin"] == 0
    bloom = BloomFilter.for_capacity(max(len(run), 1), 0.01)
    bloom.add_batch(np.asarray(run.keys))
    state["bloom"] = bloom.to_bytes()
    meta, sections = run.wire_form()
    del meta["origin"]
    meta.update(
        root_slope=state["root_slope"], root_intercept=state["root_intercept"]
    )
    sections = [(name, state.get(name, data)) for name, data in sections]
    assert meta["bloom_kind"] == "blocked"
    meta["bloom_kind"] = "standard"
    meta["leaf_target"] = DEFAULT_LEAF_TARGET
    meta["level"] = 0
    write_section_file(fs, path, magic=RUN_MAGIC, meta=meta, sections=sections)


# -- section-file format -------------------------------------------------------


class TestSectionFile:
    def test_round_trip_arrays_bytes_and_meta(self, fs, tmp_path):
        path = str(tmp_path / "file.bin")
        keys = np.arange(100, dtype=np.int64) * 3
        floats = np.array([0.1, 2.5e-17, 1e300])
        write_section_file(
            fs,
            path,
            magic=RUN_MAGIC,
            meta={"n": 100, "slope": 1.0000000000000002e-05},
            sections=[("keys", keys), ("floats", floats), ("blob", b"xyz")],
        )
        reader = SectionFile(fs, path, magic=RUN_MAGIC)
        # JSON float64 round trip is exact (shortest repr).
        assert reader.meta["slope"] == 1.0000000000000002e-05
        assert np.array_equal(reader.array("keys"), keys)
        assert np.array_equal(reader.array("floats"), floats)
        assert reader.read("blob") == b"xyz"

    def test_empty_section(self, fs, tmp_path):
        path = str(tmp_path / "file.bin")
        write_section_file(
            fs, path, magic=RUN_MAGIC, meta={},
            sections=[("empty", np.empty(0, dtype=np.int64))],
        )
        arr = SectionFile(fs, path, magic=RUN_MAGIC).array("empty")
        assert arr.size == 0 and arr.dtype == np.int64

    def test_bad_magic(self, fs, tmp_path):
        path = str(tmp_path / "file.bin")
        write_section_file(fs, path, magic=b"XXXX", meta={}, sections=[])
        with pytest.raises(CorruptRunError, match="magic"):
            SectionFile(fs, path, magic=RUN_MAGIC)

    def test_missing_section(self, fs, tmp_path):
        path = str(tmp_path / "file.bin")
        write_section_file(fs, path, magic=RUN_MAGIC, meta={}, sections=[])
        with pytest.raises(CorruptRunError, match="missing section"):
            SectionFile(fs, path, magic=RUN_MAGIC).array("keys")

    def test_header_and_meta_corruption_detected_at_open(self, fs, tmp_path):
        for offset in (0, 15):  # magic byte, metadata byte
            path = str(tmp_path / f"file{offset}.bin")
            write_section_file(
                fs, path, magic=RUN_MAGIC, meta={"n": 5},
                sections=[("keys", np.arange(5, dtype=np.int64))],
            )
            flip_byte(path, offset)
            with pytest.raises(CorruptRunError):
                SectionFile(fs, path, magic=RUN_MAGIC)

    def test_section_corruption_detected_at_first_touch(self, fs, tmp_path):
        path = str(tmp_path / "file.bin")
        keys = np.arange(64, dtype=np.int64)
        write_section_file(
            fs, path, magic=RUN_MAGIC, meta={}, sections=[("keys", keys)],
        )
        offset, nbytes = section_span(fs, path, "keys")
        flip_byte(path, offset + nbytes // 2)
        # Open succeeded (O(metadata)); materialization must not.
        with pytest.raises(CorruptRunError, match="checksum"):
            SectionFile(fs, path, magic=RUN_MAGIC).array("keys")

    def test_truncated_file(self, fs, tmp_path):
        path = str(tmp_path / "file.bin")
        write_section_file(
            fs, path, magic=RUN_MAGIC, meta={},
            sections=[("keys", np.arange(64, dtype=np.int64))],
        )
        os.truncate(path, os.path.getsize(path) - 40)
        with pytest.raises(CorruptRunError):
            SectionFile(fs, path, magic=RUN_MAGIC).array("keys")


# -- write-ahead log -----------------------------------------------------------


class TestWAL:
    def _fill(self, fs, path):
        WriteAheadLog.create(fs, path)
        wal = WriteAheadLog(fs, path)
        wal.append_puts(
            np.array([3, 1, 2], dtype=np.int64),
            np.array([30, 10, 20], dtype=np.int64),
        )
        wal.append(RECORD_DELETE, np.array([1], dtype=np.int64))
        wal.append_puts(
            np.array([9], dtype=np.int64), np.array([90], dtype=np.int64)
        )
        wal.close()

    def test_append_replay_round_trip(self, fs, tmp_path):
        path = str(tmp_path / "wal.log")
        self._fill(fs, path)
        records, valid, size = wal_replay(fs, path)
        assert valid == size
        assert [r.kind for r in records] == [1, 2, 1]
        assert np.array_equal(records[0].keys, [3, 1, 2])
        assert np.array_equal(records[0].values, [30, 10, 20])
        assert np.array_equal(records[1].keys, [1])
        assert records[1].values is None

    def test_torn_tail_truncates_to_record_boundary(self, fs, tmp_path):
        path = str(tmp_path / "wal.log")
        self._fill(fs, path)
        _, full, _ = wal_replay(fs, path)
        os.truncate(path, full - 5)  # tear the last record
        records, valid, size = wal_replay(fs, path)
        assert len(records) == 2 and valid < size

    def test_mid_file_corruption_drops_suffix(self, fs, tmp_path):
        path = str(tmp_path / "wal.log")
        self._fill(fs, path)
        flip_byte(path, 12)  # inside the first record's payload
        records, valid, _ = wal_replay(fs, path)
        # Nothing after a corrupt record is trustworthy.
        assert records == [] and valid == 0

    def test_empty_log(self, fs, tmp_path):
        path = str(tmp_path / "wal.log")
        WriteAheadLog.create(fs, path)
        assert wal_replay(fs, path) == ([], 0, 0)

    def test_deferred_fsync_close_flushes(self, fs, tmp_path):
        path = str(tmp_path / "wal.log")
        WriteAheadLog.create(fs, path)
        wal = WriteAheadLog(fs, path, fsync=False)
        wal.append_puts(
            np.array([1], dtype=np.int64), np.array([2], dtype=np.int64)
        )
        wal.close()
        wal.close()  # idempotent
        records, _, _ = wal_replay(fs, path)
        assert len(records) == 1


# -- manifest ------------------------------------------------------------------


class TestManifest:
    STATE = {
        "next_file_id": 7,
        "next_sequence": 3,
        "wal": "wal-00000007.log",
        "runs": [{"file": "run-00000004.run", "sequence": 2, "level": 0,
                  "n": 10, "tombstones": 1}],
    }

    def test_commit_load_round_trip(self, fs, tmp_path):
        d = str(tmp_path)
        commit_manifest(fs, d, self.STATE)
        state = load_manifest(fs, d)
        for key, value in self.STATE.items():
            assert state[key] == value

    def test_commit_replaces_atomically(self, fs, tmp_path):
        d = str(tmp_path)
        commit_manifest(fs, d, self.STATE)
        newer = dict(self.STATE, next_file_id=8)
        commit_manifest(fs, d, newer)
        assert load_manifest(fs, d)["next_file_id"] == 8
        assert not os.path.exists(os.path.join(d, MANIFEST_NAME + ".tmp"))

    def test_crash_during_commit_keeps_old_state(self, tmp_path):
        d = str(tmp_path)
        commit_manifest(RealFileSystem(), d, self.STATE)
        # Crash at every site of the replacement commit: the committed
        # manifest must stay readable and hold exactly one of the two
        # states (old until the rename lands, new after).
        dry = FaultInjectingFilesystem()
        commit_manifest(dry, d, dict(self.STATE, next_file_id=8))
        commit_manifest(RealFileSystem(), d, self.STATE)  # reset to old
        for site in range(1, dry.ops + 1):
            faulty = FaultInjectingFilesystem(crash_at=site, mode="lose")
            try:
                commit_manifest(faulty, d, dict(self.STATE, next_file_id=8))
                crashed = False
            except SimulatedCrash:
                crashed = True
            assert crashed == (site <= dry.ops)
            assert load_manifest(RealFileSystem(), d)["next_file_id"] in (7, 8)
            commit_manifest(RealFileSystem(), d, self.STATE)

    def test_corrupt_manifest_raises_not_fallback(self, fs, tmp_path):
        d = str(tmp_path)
        commit_manifest(fs, d, self.STATE)
        flip_byte(os.path.join(d, MANIFEST_NAME), 20)
        with pytest.raises(CorruptRunError):
            load_manifest(fs, d)

    def test_missing_field_raises(self, fs, tmp_path):
        d = str(tmp_path)
        state = dict(self.STATE)
        del state["wal"]
        commit_manifest(fs, d, state)
        with pytest.raises(CorruptRunError, match="wal"):
            load_manifest(fs, d)


# -- bloom serialization (satellite) -------------------------------------------


class _Tripwire:
    """Unpickling this creates directory ``path``: the flag a refusal
    test checks stays unset."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return os.mkdir, (self.path,)


def _foreign_bloom_wire_form(flag, kind):
    """A run's wire form whose bloom claims ``kind`` and carries a
    pickled :class:`_Tripwire`."""
    meta, sections = _example_run(n=500).wire_form()
    meta["bloom_kind"] = kind
    blob = pickle.dumps(_Tripwire(flag))
    return meta, [(n, blob if n == "bloom" else d) for n, d in sections]


#: ``"pickle"`` is the kind older writers used for a pickled learned
#: guard; ``"learned"`` stands for any other name a writer might invent.
FOREIGN_BLOOM_KINDS = ["pickle", "learned"]


class TestBloomSerialization:
    def test_standard_round_trip_is_bit_exact(self):
        bloom = BloomFilter.for_capacity(2_000, 0.01)
        keys = np.arange(0, 6_000, 3, dtype=np.int64)
        bloom.add_batch(keys)
        clone = BloomFilter.from_bytes(bloom.to_bytes())
        assert clone.num_bits == bloom.num_bits
        assert clone.num_hashes == bloom.num_hashes
        assert clone.count == bloom.count
        assert np.array_equal(clone._bits, bloom._bits)
        probes = np.arange(0, 9_000, dtype=np.int64)
        assert np.array_equal(
            clone.contains_batch(probes), bloom.contains_batch(probes)
        )
        # Wire form is itself stable (pin for cross-version files).
        assert clone.to_bytes() == bloom.to_bytes()

    def test_standard_rejects_malformed(self):
        bloom = BloomFilter(64, 2)
        blob = bloom.to_bytes()
        with pytest.raises(ValueError):
            BloomFilter.from_bytes(blob[:8])
        with pytest.raises(ValueError):
            BloomFilter.from_bytes(b"NOPE" + blob[4:])
        with pytest.raises(ValueError):
            BloomFilter.from_bytes(blob + b"\x00")

    @pytest.mark.parametrize(
        "wrap",
        [bytes, bytearray, memoryview,
         lambda blob: np.frombuffer(bytearray(blob), dtype=np.uint8)],
        ids=["bytes", "bytearray", "memoryview", "ndarray"],
    )
    def test_adopts_any_buffer_without_copy(self, wrap):
        bloom = BloomFilter.for_capacity(500, 0.01)
        bloom.add_batch(np.arange(0, 1_500, 3, dtype=np.int64))
        blob = bloom.to_bytes()
        source = wrap(blob)
        clone = BloomFilter.from_bytes(source)
        assert np.shares_memory(clone._bits, np.frombuffer(source, np.uint8))
        assert clone.to_bytes() == blob
        probes = np.arange(0, 3_000, dtype=np.int64)
        assert np.array_equal(
            clone.contains_batch(probes), bloom.contains_batch(probes)
        )
        # Runs are immutable: an adopted filter refuses writes, and a
        # writable source is never written through.
        with pytest.raises(ValueError):
            clone.add(7)
        with pytest.raises(ValueError):
            clone.add_batch(np.arange(1, 100, 3, dtype=np.int64))
        assert bytes(source) == blob
        assert clone.count == bloom.count


# -- run persistence -----------------------------------------------------------


class TestRunPersistence:
    def test_save_load_answers_identically(self, fs, tmp_path):
        run = _example_run()
        path = str(tmp_path / "run.run")
        run.save(fs, path)
        loaded = SortedRun.load(fs, path)
        assert loaded.is_loaded_lazy()
        assert len(loaded) == len(run)
        assert loaded.sequence == run.sequence
        assert loaded.num_tombstones == run.num_tombstones

        rng = np.random.default_rng(11)
        queries = np.concatenate([
            rng.choice(run.keys, size=500),
            rng.integers(0, 1 << 62, size=500, dtype=np.int64),
        ])
        for a, b in zip(run.probe_batch(queries), loaded.probe_batch(queries)):
            assert np.array_equal(a, b)
        assert np.array_equal(
            run.bloom_contains_batch(queries),
            loaded.bloom_contains_batch(queries),
        )
        lows = rng.integers(0, 1 << 62, size=64, dtype=np.int64)
        highs = lows + rng.integers(0, 1 << 40, size=64, dtype=np.int64)
        got_r, got_f = loaded.range_scan_batch(lows, highs)
        want_r, want_f = run.range_scan_batch(lows, highs)
        assert np.array_equal(got_r.values, want_r.values)
        assert np.array_equal(got_r.offsets, want_r.offsets)
        assert np.array_equal(got_f, want_f)

    def test_load_is_lazy_until_queried_and_close_releases(self, fs, tmp_path):
        run = _example_run()
        path = str(tmp_path / "run.run")
        run.save(fs, path)
        loaded = SortedRun.load(fs, path)
        assert loaded.is_loaded_lazy()
        assert loaded.size_bytes() == os.path.getsize(path)
        loaded.probe(int(run.keys[0]))
        assert not loaded.is_loaded_lazy()
        loaded.close()
        loaded.close()  # idempotent
        assert loaded.is_loaded_lazy()
        # Re-materializes after close.
        assert loaded.probe(int(run.keys[0]))[0]

    def test_manifest_cross_check_mismatch(self, fs, tmp_path):
        run = _example_run(n=500)
        path = str(tmp_path / "run.run")
        run.save(fs, path)
        SortedRun.load(fs, path, expect={"n": len(run)})  # matching: fine
        with pytest.raises(CorruptRunError, match="manifest expects"):
            SortedRun.load(fs, path, expect={"n": len(run) + 1})
        with pytest.raises(CorruptRunError, match="sequence"):
            SortedRun.load(fs, path, expect={"sequence": 99})

    #: Not sections: values of the meta block's ``origin`` entry, which
    #: is checksummed with the block — so the damage modelled is a
    #: writer's, not a flipped bit.
    UNUSABLE_ORIGINS = {
        "origin=1.5": 1.5, "origin='7'": "7", "origin=None": None,
        "origin=True": True, "origin=2**63": 2**63,
        "origin=-2**63-1": -2**63 - 1,
    }

    @pytest.mark.parametrize(
        "section",
        ["keys", "values", "tombstones", "slopes", "intercepts",
         "lo_offsets", "hi_offsets", "bloom", *UNUSABLE_ORIGINS],
    )
    def test_any_flipped_section_byte_raises_never_lies(
        self, fs, tmp_path, section
    ):
        run = _example_run(n=2_000)
        path = str(tmp_path / "run.run")
        run.save(fs, path)
        if section in self.UNUSABLE_ORIGINS:
            meta, sections = run.wire_form()
            meta["origin"] = self.UNUSABLE_ORIGINS[section]
            write_section_file(
                fs, path, magic=RUN_MAGIC, meta=meta, sections=sections
            )
        else:
            offset, nbytes = section_span(fs, path, section)
            assert nbytes > 0, f"test run must populate section {section}"
            flip_byte(path, offset + nbytes // 2)
        loaded = SortedRun.load(fs, path)  # O(metadata) open still fine
        queries = run.keys[:64]
        with pytest.raises(CorruptRunError):
            # Touch every read surface; whichever materializes the
            # damaged section must raise before answering.
            loaded.bloom_contains_batch(queries)
            loaded.probe_batch(queries)
            loaded.range_scan_batch(queries[:8], queries[:8] + 1000)

    def test_run_without_origin_entry_serves_its_raw_key_tables(
        self, fs, tmp_path
    ):
        run = _example_run(n=3_000)
        path = str(tmp_path / "run.run")
        _rewrite_as_parent_commit_run(fs, run, path)
        loaded = SortedRun.load(fs, path)
        assert "origin" not in loaded._source.meta
        assert loaded._source.meta["leaf_target"] == DEFAULT_LEAF_TARGET
        assert loaded.rmi.compiled_state()["origin"] == 0
        assert run.rmi.compiled_state()["origin"] == int(run.keys[0])
        rng = np.random.default_rng(12)
        queries = np.concatenate([
            run.keys[::5], run.keys[::5] + 1,
            rng.integers(-(1 << 62), 1 << 62, 500),
            [np.iinfo(np.int64).min, np.iinfo(np.int64).max],
        ])
        for got, want in zip(
            loaded.probe_batch(queries), run.probe_batch(queries)
        ):
            assert np.array_equal(got, want)
        for sort in (None, True, False):
            assert np.array_equal(
                loaded.rmi.lookup_batch(queries, sort=sort),
                np.searchsorted(run.keys, queries),
            )
        for q in queries[::40].tolist():
            assert loaded.probe(q) == run.probe(q)
        assert np.array_equal(
            loaded.bloom_contains_batch(queries),
            run.bloom_contains_batch(queries),
        )

    def test_writer_records_blocked_bloom_and_no_leaf_target(
        self, fs, tmp_path
    ):
        path = str(tmp_path / "run.run")
        _example_run(n=500).save(fs, path)
        meta = SortedRun.load(fs, path)._source.meta
        assert meta["bloom_kind"] == "blocked"
        assert "leaf_target" not in meta

    def test_absent_bloom_kind_reads_as_standard(self, fs, tmp_path):
        run = _example_run(n=2_000)
        meta, sections = run.wire_form()
        del meta["bloom_kind"]
        probes = np.concatenate([run.keys[::3], run.keys[::3] + 1])
        path = str(tmp_path / "run.run")
        write_section_file(
            fs, path, magic=RUN_MAGIC, meta=meta, sections=sections
        )
        loaded = SortedRun.load(fs, path)
        assert np.array_equal(
            loaded.bloom_contains_batch(probes),
            run.bloom_contains_batch(probes),
        )

    @pytest.mark.parametrize("kind", FOREIGN_BLOOM_KINDS)
    def test_nonstandard_bloom_kind_is_refused_not_unpickled(
        self, fs, tmp_path, kind
    ):
        flag = str(tmp_path / "unpickled")
        meta, sections = _foreign_bloom_wire_form(flag, kind)
        path = str(tmp_path / "run.run")
        write_section_file(
            fs, path, magic=RUN_MAGIC, meta=meta, sections=sections
        )
        loaded = SortedRun.load(fs, path)  # checksums are all valid
        with pytest.raises(CorruptRunError, match=f"bloom kind '{kind}'"):
            loaded.bloom_contains_batch(np.arange(8, dtype=np.int64))
        assert not os.path.exists(flag)


# -- durable store lifecycle ---------------------------------------------------


class TestDurableStore:
    def _payload(self, seed=0, n=6_000):
        rng = np.random.default_rng(seed)
        keys = rng.choice(40_000, size=n, replace=False).astype(np.int64)
        vals = rng.integers(1, 1 << 60, size=n, dtype=np.int64)
        return keys, vals

    def test_parent_commit_store_reopens_and_compaction_adds_origins(
        self, tmp_path
    ):
        """Run files in the older formats — no ``origin`` entry, a
        ``leaf_target`` entry, a ``"standard"`` bloom kind, a ``level``
        entry — under a manifest whose run entries carry a ``level``
        too, reopen and answer every point and range read
        bit-identically; the next compaction writes runs that carry an
        origin and no level."""
        d = str(tmp_path / "db")
        fs = RealFileSystem()
        keys, vals = self._payload()
        keys = keys + np.int64(2**62)  # ulp-collapsed as raw float64
        lows = np.sort(keys)[::50]
        highs = lows + np.int64(200)
        with LearnedLSMStore(path=d, memtable_capacity=1_024) as store:
            store.insert_batch(keys, vals)
            store.delete_batch(keys[:1_000])
            want_points = store.lookup_batch(keys)
            want_ranges = store.range_items_batch(lows, highs)
        old_paths = sorted(
            os.path.join(d, name) for name in os.listdir(d)
            if name.endswith(".run")
        )
        assert old_paths
        for path in old_paths:
            _rewrite_as_parent_commit_run(fs, SortedRun.load(fs, path), path)
        state = load_manifest(fs, d)
        for entry in state["runs"]:
            entry["level"] = 0
        commit_manifest(fs, d, state)

        def origin_of(path):
            return SectionFile(fs, path, magic=RUN_MAGIC).meta.get("origin")

        assert [origin_of(p) for p in old_paths] == [None] * len(old_paths)
        with LearnedLSMStore(path=d) as store:
            assert sorted(run.path for run in store.runs) == old_paths
            for got, want in zip(store.lookup_batch(keys), want_points):
                assert np.array_equal(got, want)
            result, values = store.range_items_batch(lows, highs)
            assert np.array_equal(result.values, want_ranges[0].values)
            assert np.array_equal(result.offsets, want_ranges[0].offsets)
            assert np.array_equal(values, want_ranges[1])
            got, found = want_points
            assert not found[:1_000].any() and found[1_000:].all()
            assert np.array_equal(got[1_000:], vals[1_000:])
            store.compact()
            (merged,) = store.runs
            assert origin_of(merged.path) == int(merged.keys[0])
            assert "level" not in SectionFile(
                fs, merged.path, magic=RUN_MAGIC
            ).meta
            assert all(
                "level" not in entry for entry in load_manifest(fs, d)["runs"]
            )
            got, found = store.lookup_batch(keys)
            assert not found[:1_000].any() and found[1_000:].all()
            assert np.array_equal(got[1_000:], vals[1_000:])

    def test_reopen_replays_wal_after_abandon(self, tmp_path):
        d = str(tmp_path / "db")
        keys, vals = self._payload(n=700)
        store = LearnedLSMStore(path=d, memtable_capacity=500)
        store.insert_batch(keys[:500], vals[:500])   # seals
        store.insert_batch(keys[500:], vals[500:])   # stays buffered
        store.delete(int(keys[0]))
        # Simulated kill -9: no close(), the WAL is the only record of
        # the buffered tail.
        reopened = LearnedLSMStore(path=d)
        assert reopened.recovered_wal_records == 2
        got, found = reopened.lookup_batch(keys)
        assert not found[0]
        assert found[1:].all()
        assert np.array_equal(got[1:], vals[1:])
        store.close()
        reopened.close()

    def test_wal_corruption_recovers_to_consistent_prefix(self, tmp_path):
        d = str(tmp_path / "db")
        store = LearnedLSMStore(path=d, memtable_capacity=10_000)
        store.insert_batch(np.arange(100, dtype=np.int64))
        store.insert_batch(np.arange(100, 200, dtype=np.int64))
        store.close()
        state = load_manifest(RealFileSystem(), d)
        wal_path = os.path.join(d, state["wal"])
        flip_byte(wal_path, os.path.getsize(wal_path) - 300)  # 2nd record
        reopened = LearnedLSMStore(path=d)
        # Batch 1 intact, batch 2 dropped whole — record granularity,
        # never a half-applied batch.
        assert reopened.contains_batch(np.arange(100)).all()
        assert not reopened.contains_batch(np.arange(100, 200)).any()
        reopened.insert(150)  # and the log accepts appends again
        assert reopened.contains(150)
        reopened.close()

    def test_corrupt_manifest_raises(self, tmp_path):
        d = str(tmp_path / "db")
        with LearnedLSMStore(path=d) as store:
            store.insert_batch(np.arange(100, dtype=np.int64))
        flip_byte(os.path.join(d, MANIFEST_NAME), 25)
        with pytest.raises(CorruptRunError):
            LearnedLSMStore(path=d)

    def test_corrupt_run_section_raises_on_query(self, tmp_path):
        d = str(tmp_path / "db")
        with LearnedLSMStore(path=d, memtable_capacity=256) as store:
            store.insert_batch(np.arange(2_000, dtype=np.int64))
        state = load_manifest(RealFileSystem(), d)
        run_path = os.path.join(d, state["runs"][0]["file"])
        offset, nbytes = section_span(RealFileSystem(), run_path, "values")
        flip_byte(run_path, offset + nbytes // 2)
        with LearnedLSMStore(path=d) as reopened:
            with pytest.raises(CorruptRunError):
                reopened.lookup_batch(np.arange(2_000, dtype=np.int64))

    def test_close_idempotent_and_guards(self, tmp_path):
        store = LearnedLSMStore(path=str(tmp_path / "db"))
        store.insert(1, 10)
        store.close()
        store.close()
        with pytest.raises(ValueError, match="closed"):
            store.insert(2)
        with pytest.raises(ValueError, match="closed"):
            store.lookup(1)
        with pytest.raises(ValueError, match="closed"):
            store.flush()
        # Memory-only stores share the lifecycle contract.
        mem = LearnedLSMStore()
        with mem:
            mem.insert(1)
        with pytest.raises(ValueError, match="closed"):
            mem.insert(2)

    def test_bulk_load_persists_and_conflicts_detected(self, tmp_path):
        d = str(tmp_path / "db")
        keys = np.arange(0, 5_000, 2, dtype=np.int64)
        with LearnedLSMStore(keys, keys * 2, path=d) as store:
            assert store.num_runs == 1
        with LearnedLSMStore(path=d) as store:
            assert store.lookup(4_000) == 8_000
        with pytest.raises(ValueError, match="existing store"):
            LearnedLSMStore(keys, path=d)
        with pytest.raises(ValueError, match="filesystem requires path"):
            LearnedLSMStore(filesystem=RealFileSystem())

    def test_orphan_files_are_garbage_collected(self, tmp_path):
        d = str(tmp_path / "db")
        with LearnedLSMStore(path=d) as store:
            store.insert_batch(np.arange(100, dtype=np.int64))
        for name in ("run-99999999.run", "wal-99999999.log", "junk.tmp"):
            with open(os.path.join(d, name), "wb") as f:
                f.write(b"orphan")
        with open(os.path.join(d, "notes.txt"), "wb") as f:
            f.write(b"foreign file")
        with LearnedLSMStore(path=d) as store:
            assert store.contains(50)
        names = set(os.listdir(d))
        assert "notes.txt" in names  # foreign files are left alone
        assert not names & {"run-99999999.run", "wal-99999999.log", "junk.tmp"}

    def test_batch_key_dtype_contract(self, tmp_path):
        store = LearnedLSMStore()
        with pytest.raises(TypeError, match="integer"):
            store.insert_batch(np.array([1.5, 2.5]))
        with pytest.raises(TypeError, match="integer"):
            store.delete_batch(np.array([1.0]))
        with pytest.raises(TypeError, match="integer"):
            LearnedLSMStore(np.array([1.0, 2.0]))
        # Integer-like inputs pass: lists infer int dtype, empty batches
        # are vacuously fine despite numpy's float64 default for [].
        store.insert_batch([1, 2, 3])
        store.insert_batch([])
        store.delete_batch([])
        store.insert_batch(np.arange(5, dtype=np.uint64))
        assert store.contains(2)

    def test_durable_compaction_budget_bounds_seal_work(self, tmp_path):
        d = str(tmp_path / "db")
        with LearnedLSMStore(path=d, memtable_capacity=64) as store:
            before = 0
            for start in range(0, 4_096, 64):
                store.insert_batch(np.arange(start, start + 64,
                                             dtype=np.int64))
                # At most one merge window per seal (the PR 4 fix).
                assert store.write_stats.compactions - before <= 1
                before = store.write_stats.compactions
            store.compact()
            assert store.num_runs == 1
            assert store.contains_batch(np.arange(4_096)).all()


# -- group commit + exception-path sync (ISSUE 7) ------------------------------


class TestGroupCommit:
    """The ``wal_fsync=False`` loss window, bounded.

    ``FaultInjectingFilesystem`` doubles as a durability *tracker*
    here: its ``_synced`` map records each file's last-fsynced length,
    so a test can assert exactly which bytes would survive a machine
    crash without killing anything.
    """

    def _wal(self, fs, path, **kwargs):
        WriteAheadLog.create(fs, path)
        return WriteAheadLog(fs, path, fsync=False, **kwargs)

    def test_byte_threshold_triggers_fsync(self, tmp_path):
        fs = FaultInjectingFilesystem()
        path = str(tmp_path / "wal.log")
        wal = self._wal(fs, path, group_commit_bytes=150)
        keys = np.arange(4, dtype=np.int64)
        wal.append_puts(keys, keys)  # 77-byte frame: below the budget
        assert fs._synced[path] == 0
        assert wal.synced_records == 0
        wal.append_puts(keys, keys)  # 154 >= 150: the group commits
        assert fs._synced[path] == os.path.getsize(path)
        assert wal.synced_records == 2
        wal.append_puts(keys, keys)  # a fresh window opens
        assert fs._synced[path] < os.path.getsize(path)
        wal.close()
        assert fs._synced[path] == os.path.getsize(path)

    def test_interval_triggers_fsync(self, tmp_path):
        now = [0.0]
        fs = FaultInjectingFilesystem()
        path = str(tmp_path / "wal.log")
        wal = self._wal(
            fs, path, group_commit_interval=5.0, clock=lambda: now[0]
        )
        keys = np.arange(4, dtype=np.int64)
        wal.append_puts(keys, keys)
        assert wal.synced_records == 0  # 0s elapsed
        now[0] = 4.9
        wal.append_puts(keys, keys)
        assert wal.synced_records == 0
        now[0] = 5.0
        wal.append_puts(keys, keys)  # interval elapsed: sync
        assert wal.synced_records == 3
        assert fs._synced[path] == os.path.getsize(path)
        wal.close()

    def test_knob_validation(self, tmp_path):
        fs = RealFileSystem()
        path = str(tmp_path / "wal.log")
        WriteAheadLog.create(fs, path)
        with pytest.raises(ValueError, match="group_commit_bytes"):
            WriteAheadLog(fs, path, group_commit_bytes=0)
        with pytest.raises(ValueError, match="group_commit_interval"):
            WriteAheadLog(fs, path, group_commit_interval=0.0)

    def test_exception_exit_syncs_wal(self, tmp_path):
        """An exception inside the ``with`` block must not drop
        acknowledged-but-unsynced writes: ``__exit__`` → ``close``
        flushes + fsyncs the WAL tail even on the error path."""
        fs = FaultInjectingFilesystem()
        d = str(tmp_path / "db")
        with pytest.raises(RuntimeError, match="application bug"):
            with LearnedLSMStore(
                path=d, filesystem=fs, wal_fsync=False
            ) as store:
                store.insert_batch(np.arange(64, dtype=np.int64))
                wal_path = store._wal.path
                assert fs._synced[wal_path] < os.path.getsize(wal_path)
                raise RuntimeError("application bug")
        # Every appended byte reached the simulated platter.
        assert fs._synced[wal_path] == os.path.getsize(wal_path)
        with LearnedLSMStore(path=d) as store:
            assert store.contains_batch(np.arange(64)).all()

    def test_group_commit_bounds_loss_window(self, tmp_path):
        """Machine-crash sweep under ``wal_fsync=False`` +
        ``group_commit_bytes``: the recovered state is always a batch
        prefix, and the acked batches it lost always fit inside the
        byte budget — the bounded-loss contract the knob buys."""
        budget = 200
        frame = 8 + 5 + 2 * 8 * 4  # one 4-key put record, framed
        max_lost = budget // frame + 1  # < budget pending + in-flight
        batches = 40

        def drive(fs, directory, acked):
            store = LearnedLSMStore(
                path=directory,
                filesystem=fs,
                wal_fsync=False,
                memtable_capacity=10_000,
                wal_group_commit_bytes=budget,
            )
            try:
                for i in range(batches):
                    keys = np.arange(4 * i, 4 * i + 4, dtype=np.int64)
                    store.insert_batch(keys, keys * 10)
                    acked[0] += 1
            finally:
                try:
                    store.close()
                except SimulatedCrash:
                    pass  # descriptors still released (kernel model)

        probe = FaultInjectingFilesystem()
        drive(probe, str(tmp_path / "dry"), [0])
        for crash_at in range(1, probe.ops + 1):
            d = str(tmp_path / f"crash-{crash_at}")
            fs = FaultInjectingFilesystem(crash_at=crash_at, mode="lose")
            cell = [0]
            try:
                drive(fs, d, cell)
            except SimulatedCrash:
                pass
            acked = cell[0]
            with LearnedLSMStore(path=d) as store:
                got = store.live_keys()
                # Prefix: survivors are exactly batches 0..k-1.
                assert got.size % 4 == 0
                k = got.size // 4
                assert np.array_equal(
                    got, np.arange(4 * k, dtype=np.int64)
                )
                values, found = store.lookup_batch(got)
                assert found.all()
                assert np.array_equal(values, got * 10)
            assert acked - k <= max_lost, (
                f"site {crash_at}: acked {acked}, survived {k} — "
                f"lost {acked - k} > bound {max_lost}"
            )
