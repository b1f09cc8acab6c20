"""Unit tests for the paged learned index (Appendix D.2)."""

import numpy as np
import pytest

from repro.core import PagedLearnedIndex, PageStore
from repro.data import lognormal_keys, uniform_keys


@pytest.fixture(scope="module")
def keys():
    return uniform_keys(20_000, seed=51)


def truth(keys, q):
    return int(np.searchsorted(keys, q, side="left"))


class TestPageStore:
    def test_pages_are_shuffled(self, keys):
        store = PageStore(keys, page_size=128, shuffle_seed=3)
        assert store.num_pages == (keys.size + 127) // 128
        assert not np.array_equal(
            store.translation, np.arange(store.num_pages)
        )

    def test_translation_is_a_permutation(self, keys):
        store = PageStore(keys, page_size=64)
        assert sorted(store.translation.tolist()) == list(
            range(store.num_pages)
        )

    def test_logical_reassembly(self, keys):
        store = PageStore(keys, page_size=128)
        reassembled = np.concatenate(
            [
                store.read_page(int(store.translation[logical]))
                for logical in range(store.num_pages)
            ]
        )
        np.testing.assert_array_equal(reassembled, keys)

    def test_io_accounting_full_pages(self, keys):
        store = PageStore(keys, page_size=128)
        store.read_page(0)
        assert store.page_reads == 1
        assert store.bytes_read == 128 * 8

    def test_io_accounting_partial(self, keys):
        store = PageStore(keys, page_size=128, partial_reads=True)
        store.read_page(0, 10, 20)
        assert store.bytes_read == 10 * 8

    def test_bad_page_raises(self, keys):
        store = PageStore(keys, page_size=128)
        with pytest.raises(IndexError):
            store.read_page(store.num_pages)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            PageStore(np.array([2, 1]))


class TestPagedLookup:
    @pytest.mark.parametrize("page_size", [32, 256, 1024])
    def test_matches_searchsorted(self, page_size, keys, rng):
        index = PagedLearnedIndex(
            keys, page_size=page_size, stage_sizes=(1, 128)
        )
        queries = np.concatenate(
            [rng.choice(keys, 200), rng.integers(keys.min(), keys.max(), 200)]
        )
        for q in queries:
            page, slot = index.lookup(float(q))
            assert page * page_size + slot == truth(keys, q), q

    def test_lognormal(self, rng):
        keys = lognormal_keys(20_000, seed=52)
        index = PagedLearnedIndex(keys, page_size=256, stage_sizes=(1, 128))
        for q in rng.choice(keys, 300):
            page, slot = index.lookup(float(q))
            assert page * 256 + slot == truth(keys, q)

    def test_contains(self, keys):
        index = PagedLearnedIndex(keys, page_size=256, stage_sizes=(1, 64))
        assert index.contains(float(keys[137]))
        missing = int(keys.max()) + 3
        assert not index.contains(float(missing))
        # Fractional probes compare natively: -0.5 is not the key 0.
        even = PagedLearnedIndex(np.arange(0, 2_000, 2), page_size=64)
        probes = [-0.9, -0.5, 0.0, 0.5, 3.5, 4.0]
        expected = [False, False, True, False, False, True]
        assert [even.contains(q) for q in probes] == expected

    def test_contains_is_exact_beyond_2p53(self):
        """The native compare never rounds through float64: 2^62 is
        absent between odd keys, however the probe is spelled."""
        odd = np.int64(2**62) + np.arange(1, 2_001, 2, dtype=np.int64)
        index = PagedLearnedIndex(odd, page_size=64)
        probes = [2**62, float(2**62), 2**62 + 1, 2**62 + 2, 2**62 + 1999]
        expected = [False, False, True, False, True]
        assert [index.contains(q) for q in probes] == expected
        assert [index.contains(np.int64(q)) for q in probes[2:]] == expected[2:]

    def test_empty(self):
        index = PagedLearnedIndex(np.array([], dtype=np.int64))
        assert index.lookup(5.0) == (0, 0)
        assert not index.contains(5.0)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            PagedLearnedIndex(np.array([1, 1, 2]))

    def test_key_contract(self):
        """Float keys used to truncate onto integers (0.5 stored as 0,
        so ``contains(1)`` was True and ``contains(0.5)`` False), and a
        uint64 above 2^63 - 1 wrapped onto a negative key."""
        with pytest.raises(TypeError):
            PagedLearnedIndex(np.array([0.5, 1.5, 2.5, 3.5]), page_size=2)
        with pytest.raises(TypeError):
            PageStore(np.array([0.5, 1.5]))
        with pytest.raises(OverflowError):
            PagedLearnedIndex(np.array([1, 2**63], dtype=np.uint64))
        with pytest.raises(OverflowError):
            PageStore(np.array([2**64 - 5], dtype=np.uint64))
        top = np.array([2**63 - 2, 2**63 - 1], dtype=np.uint64)
        index = PagedLearnedIndex(top, page_size=1)
        assert index.contains(2**63 - 1) and not index.contains(-(2**63))


class TestIOProfile:
    def test_one_page_read_in_the_common_case(self, keys):
        """The appendix's point: window << page -> single page read."""
        index = PagedLearnedIndex(keys, page_size=1024, stage_sizes=(1, 256))
        rng = np.random.default_rng(0)
        index.reset_io()
        queries = rng.choice(keys, 500)
        for q in queries:
            index.lookup(float(q))
        reads, _ = index.io_stats()
        assert reads / len(queries) < 1.6

    def test_partial_reads_cut_bytes(self, keys):
        full = PagedLearnedIndex(
            keys, page_size=1024, stage_sizes=(1, 256), partial_reads=False
        )
        partial = PagedLearnedIndex(
            keys, page_size=1024, stage_sizes=(1, 256), partial_reads=True
        )
        rng = np.random.default_rng(1)
        queries = rng.choice(keys, 300)
        for q in queries:
            full.lookup(float(q))
            partial.lookup(float(q))
        _, full_bytes = full.io_stats()
        _, partial_bytes = partial.io_stats()
        # error window << page size => far fewer bytes per lookup
        assert partial_bytes < full_bytes / 4

    def test_index_far_smaller_than_data(self, keys):
        index = PagedLearnedIndex(keys, page_size=256, stage_sizes=(1, 64))
        data_bytes = keys.size * 8
        assert index.size_bytes() < data_bytes / 10

