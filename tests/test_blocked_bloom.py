"""The register-blocked Bloom filter that guards every LSM run."""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bloom import BlockedBloomFilter, BloomFilter
from repro.hashmap import murmur_fmix64
from repro.lsm import CorruptRunError, LearnedLSMStore, RealFileSystem, SortedRun
from repro.lsm.format import RUN_MAGIC, SectionFile, write_section_file
from repro.lsm.run import BLOOM_FPR

INT64_EDGES = [-(2**63), -(2**63) + 1, -1, 0, 1, 2**53 + 1, 2**63 - 2, 2**63 - 1]

#: The rate writers before the blocked filter sized a run's standard
#: filter for.
STANDARD_FPR = 0.01


def _filled(keys, num_words=None):
    keys = np.asarray(keys, dtype=np.int64)
    bloom = (
        BlockedBloomFilter(num_words) if num_words
        else BlockedBloomFilter.for_capacity(max(keys.size, 1), BLOOM_FPR)
    )
    bloom.add_batch(keys)
    return bloom


def _absent(n, rng, stored):
    draw = rng.integers(-(2**63), 2**63 - 1, 2 * n, dtype=np.int64)
    return np.setdiff1d(draw, stored)[:n]


class TestNoFalseNegatives:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        keys=st.lists(
            st.one_of(st.sampled_from(INT64_EDGES),
                      st.integers(-(2**63), 2**63 - 1)),
            max_size=300,
        ),
        num_words=st.one_of(st.none(), st.integers(1, 8)),
    )
    def test_every_added_key_passes(self, keys, num_words):
        """Any key set, the int64 ends included, on an empty filter, on
        filters of one word (fewer bits than a word asked for) and on
        filters far too small for their keys."""
        bloom = _filled(keys, num_words)
        assert bloom.count == len(keys)
        assert bloom.contains_batch(np.array(keys, dtype=np.int64)).all()
        assert all(key in bloom for key in keys)

    def test_empty_filter_passes_nothing(self):
        bloom = _filled([])
        assert bloom.num_words == 1 and bloom.expected_fpr == 0.0
        assert not bloom.contains_batch(np.array(INT64_EDGES)).any()

    def test_non_integers_are_never_keys(self):
        bloom = _filled([2, 3])
        assert 2.0 in bloom and np.int32(3) in bloom
        for value in (2.5, float("nan"), float("inf"), "2"):
            assert value not in bloom
        assert bloom.contains_batch([2.0, 2.5, 3]).tolist() == [
            True, False, True,
        ]
        with pytest.raises(TypeError):
            bloom.add_batch([1, 2.5])
        assert bloom.count == 2


class TestRate:
    @pytest.mark.parametrize("n", [4_096, 100_000, 500_000])
    def test_observed_rate_is_the_stated_one(self, n):
        """A run's filter, sized for ``BLOOM_FPR``: 200k absent keys
        put the observed rate within ~4 standard errors (0.0013) of
        ``expected_fpr``."""
        rng = np.random.default_rng(n)
        keys = np.unique(rng.integers(-(2**63), 2**63 - 1, n, dtype=np.int64))
        bloom = _filled(keys)
        observed = bloom.contains_batch(_absent(200_000, rng, keys)).mean()
        assert 0.015 <= bloom.expected_fpr <= 0.025
        assert 0.015 <= observed <= 0.025
        assert abs(observed - bloom.expected_fpr) < 0.0013, observed

    @pytest.mark.parametrize("fpr", [0.005, BLOOM_FPR, 0.02, 0.1])
    def test_for_capacity_takes_about_the_fewest_words(self, fpr):
        """Every size's stated rate with ``n`` keys is at most ``fpr``;
        from 1 000 keys on, two words less would state more."""
        for n in (1, 2, 10, 100, 1_000, 4_096, 123_457, 1_000_000):
            bloom = BlockedBloomFilter.for_capacity(n, fpr)
            bloom.count = n  # the rate ``n`` keys would give it
            assert bloom.expected_fpr <= fpr
            if n >= 1_000:
                fewer = BlockedBloomFilter(bloom.num_words - 2)
                fewer.count = n
                assert fewer.expected_fpr > fpr

    def test_run_filters_cost_under_a_bit_a_key_more(self):
        """At ``BLOOM_FPR`` a run's filter takes ~10.2 bits a key,
        where a 1% standard filter takes ~9.6."""
        n = 100_000
        blocked = BlockedBloomFilter.for_capacity(n, BLOOM_FPR)
        standard = BloomFilter.for_capacity(n, STANDARD_FPR)
        extra = (blocked.size_bytes() - standard.size_bytes()) * 8 / n
        assert 0 < extra < 0.7, extra

    @pytest.mark.parametrize("fpr", [0, 1, -0.5, float("nan")])
    def test_rate_outside_zero_one_is_refused(self, fpr):
        with pytest.raises(ValueError):
            BlockedBloomFilter.for_capacity(100, fpr)


class TestProbes:
    def test_every_read_path_agrees(self):
        rng = np.random.default_rng(7)
        keys = rng.integers(-(2**63), 2**63 - 1, 5_000, dtype=np.int64)
        bloom = _filled(keys)
        queries = np.concatenate([
            keys[:500], _absent(20_000, rng, keys), INT64_EDGES,
        ]).astype(np.int64)
        hashes = BloomFilter.hash_keys(queries)
        kept = hashes.copy()
        want = bloom.contains_batch(queries)
        assert np.array_equal(bloom.contains_hashes(hashes), want)
        assert np.array_equal(hashes, kept)  # read, never written
        assert np.array_equal(
            bloom.contains_probes(*BlockedBloomFilter.probe_keys(queries)),
            want,
        )
        assert want.tolist() == [int(q) in bloom for q in queries]
        assert want[:500].all() and 0 < want[500:].sum() < 1_000

    def test_probes_are_the_hash_halves(self):
        """The word hash is the hash's high 32 bits; the mask has a bit
        per 6-bit group of its low 30 bits."""
        queries = np.array(INT64_EDGES + list(range(-500, 500)), np.int64)
        word_hashes, masks = BlockedBloomFilter.probe_keys(queries)
        for q, word_hash, mask in zip(queries.tolist(), word_hashes, masks):
            h = murmur_fmix64(q, seed=1)
            assert int(word_hash) == h >> 32
            assert int(mask) == sum(
                {1 << ((h >> (6 * g)) & 63) for g in range(5)}
            )


class TestWireForm:
    #: ``BlockedBloomFilter(2)`` holding the five int64 keys below:
    #: magic, word count, key count, then the two words.
    PINNED = bytes.fromhex(
        "42424c350200000005000000000000000181104203542112"
        "0000020014048c08"
    )

    def test_round_trip_is_bit_exact_and_pinned(self):
        bloom = _filled([-(2**63), -1, 0, 1, 2**63 - 1], num_words=2)
        blob = bloom.to_bytes()
        assert blob == self.PINNED
        clone = BlockedBloomFilter.from_bytes(blob)
        assert clone.to_bytes() == blob
        assert (clone.num_words, clone.count) == (2, 5)
        rng = np.random.default_rng(1)
        big = _filled(rng.integers(0, 1 << 40, 30_000))
        copy = BlockedBloomFilter.from_bytes(big.to_bytes())
        probes = rng.integers(0, 1 << 40, 50_000)
        assert copy.to_bytes() == big.to_bytes()
        assert np.array_equal(
            copy.contains_batch(probes), big.contains_batch(probes)
        )

    def test_adopts_the_buffer_read_only(self):
        blob = bytearray(_filled(range(0, 3_000, 3)).to_bytes())
        clone = BlockedBloomFilter.from_bytes(blob)
        assert np.shares_memory(clone._words, np.frombuffer(blob, np.uint8))
        with pytest.raises(ValueError):
            clone.add_batch(np.arange(5))
        assert clone.to_bytes() == bytes(blob)

    def test_truncated_or_foreign_blobs_raise(self):
        blob = _filled(range(100)).to_bytes()
        for bad in (
            blob[:8], blob[:-1], blob + b"\x00" * 8, b"NOPE" + blob[4:],
            BloomFilter.for_capacity(100, STANDARD_FPR).to_bytes(),
            blob[:4] + b"\x00" * 4 + blob[8:],  # zero words
        ):
            with pytest.raises(ValueError):
                BlockedBloomFilter.from_bytes(bad)

    @pytest.mark.parametrize("damage", ["truncated", "standard blob"])
    def test_bad_section_in_a_run_is_corrupt_run(self, tmp_path, damage):
        fs = RealFileSystem()
        run = SortedRun(np.arange(0, 3_000, 3, dtype=np.int64))
        meta, sections = run.wire_form()
        assert meta["bloom_kind"] == "blocked"
        blob = (run.bloom.to_bytes()[:-3] if damage == "truncated" else
                BloomFilter.for_capacity(len(run), STANDARD_FPR).to_bytes())
        path = str(tmp_path / "run.run")
        write_section_file(fs, path, magic=RUN_MAGIC, meta=meta, sections=[
            (name, blob if name == "bloom" else data)
            for name, data in sections
        ])
        loaded = SortedRun.load(fs, path)
        with pytest.raises(CorruptRunError, match="bad bloom section"):
            loaded.bloom_contains_batch(run.keys[:8])


def _rewrite_with_standard_filter(fs, path):
    """Rewrite a run file as writers before the blocked filter did:
    ``bloom_kind: "standard"`` over a standard filter's wire form."""
    run = SortedRun.load(fs, path)
    meta, sections = run.wire_form()
    standard = BloomFilter.for_capacity(max(len(run), 1), STANDARD_FPR)
    standard.add_batch(np.asarray(run.keys))
    meta["bloom_kind"] = "standard"
    sections = [(name, standard.to_bytes() if name == "bloom" else data)
                for name, data in sections]
    run.close()
    write_section_file(fs, path, magic=RUN_MAGIC, meta=meta, sections=sections)


def _bloom_kinds(fs, d):
    """The ``bloom_kind`` each run file in ``d`` records."""
    return [
        SectionFile(fs, os.path.join(d, name), magic=RUN_MAGIC).meta.get(
            "bloom_kind"
        )
        for name in sorted(os.listdir(d)) if name.endswith(".run")
    ]


class TestStandardFilterRuns:
    def test_filter_is_built_over_the_keys_and_the_section_unread(
        self, tmp_path
    ):
        """A run file holding a standard filter answers through the
        blocked filter its keys build, bit for bit the one a new run
        holds; the standard section itself is never parsed (garbage
        there changes nothing)."""
        fs = RealFileSystem()
        run = SortedRun(np.arange(0, 30_000, 3, dtype=np.int64))
        meta, sections = run.wire_form()
        for name, blob in (
            ("standard", None), ("garbage", b"not a filter at all"),
        ):
            path = str(tmp_path / f"{name}.run")
            meta["bloom_kind"] = "standard"
            write_section_file(fs, path, magic=RUN_MAGIC, meta=meta, sections=[
                (section, blob if section == "bloom" and blob else data)
                for section, data in sections
            ])
            if blob is None:
                _rewrite_with_standard_filter(fs, path)
            loaded = SortedRun.load(fs, path)
            assert isinstance(loaded.bloom, BlockedBloomFilter)
            assert loaded.bloom.to_bytes() == run.bloom.to_bytes()
            queries = np.arange(-5, 30_005, dtype=np.int64)
            assert np.array_equal(
                loaded.bloom_contains_batch(queries),
                run.bloom_contains_batch(queries),
            )


def test_store_mixing_standard_and_blocked_runs(tmp_path):
    """A store whose run files hold older standard filters reopens
    beside new blocked-filter runs and answers like a dict replay,
    batch and scalar; a merge rewrites every file's filter as
    blocked."""
    d = str(tmp_path / "db")
    fs = RealFileSystem()
    rng = np.random.default_rng(49)
    oracle = {}

    def write(store, n):
        keys = rng.integers(0, 60_000, n, dtype=np.int64)
        values = rng.integers(1, 1 << 60, n, dtype=np.int64)
        store.insert_batch(keys, values)
        oracle.update(zip(keys.tolist(), values.tolist()))
        dead = rng.choice(keys, n // 8)
        store.delete_batch(dead)
        for key in dead.tolist():
            oracle.pop(key, None)

    def check(store):
        for size in (8, 100, 1_000, 8_000):
            queries = rng.integers(-10, 61_000, size, dtype=np.int64)
            values, found = store.lookup_batch(queries)
            want = [oracle.get(q) for q in queries.tolist()]
            assert found.tolist() == [v is not None for v in want]
            assert values.tolist() == [v or 0 for v in want]
        for q in rng.integers(-10, 61_000, 200).tolist():
            assert store.lookup(q) == oracle.get(q)

    with LearnedLSMStore(path=d, memtable_capacity=4_096) as store:
        for _ in range(2):  # a third seal would merge all four runs
            write(store, 4_096)
            store.flush()
    for name in os.listdir(d):
        if name.endswith(".run"):
            _rewrite_with_standard_filter(fs, os.path.join(d, name))
    assert set(_bloom_kinds(fs, d)) == {"standard"}
    with LearnedLSMStore(path=d, memtable_capacity=4_096) as store:
        check(store)
        write(store, 4_096)
        store.flush()
        write(store, 1_000)  # stays in the memtable
        assert set(_bloom_kinds(fs, d)) == {"standard", "blocked"}
        check(store)
        store.compact()
        assert set(_bloom_kinds(fs, d)) == {"blocked"}
        check(store)
    with LearnedLSMStore(path=d) as store:
        check(store)
