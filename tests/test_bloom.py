"""Unit tests for the standard Bloom filter."""

import numpy as np
import pytest

from repro.bloom import BloomFilter, optimal_bits, optimal_hash_count
from repro.bloom.standard import ROW_WALK_MIN_KEYS
from repro.hashmap import murmur_fmix64_batch

INT64_EDGES = np.array(
    [-(2**63), -(2**63) + 1, -12_345, -1, 0, 1, 2**53 + 1, 2**63 - 1],
    dtype=np.int64,
)


class TestSizing:
    def test_optimal_bits_formula(self):
        # m = -n ln p / ln(2)^2; for n=1000, p=0.01 -> ~9585 bits
        assert optimal_bits(1000, 0.01) == pytest.approx(9585, rel=0.01)

    def test_paper_scale_example(self):
        """Section 5: one billion records need ~1.76GB, and '[f]or a FPR
        of 0.01% we would require ~2.23 Gigabytes'."""
        gb_01bp = optimal_bits(10**9, 0.0001) / 8 / 1000**3
        assert gb_01bp == pytest.approx(2.23, rel=0.1)
        gb_10bp = optimal_bits(10**9, 0.001) / 8 / 1000**3
        assert gb_10bp == pytest.approx(1.76, rel=0.1)

    def test_optimal_hash_count(self):
        m = optimal_bits(1000, 0.01)
        assert optimal_hash_count(m, 1000) == 7

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            optimal_bits(-1, 0.01)
        with pytest.raises(ValueError):
            optimal_bits(10, 1.5)
        with pytest.raises(ValueError):
            BloomFilter(0, 1)
        with pytest.raises(ValueError):
            BloomFilter(8, 0)


class TestNoFalseNegatives:
    def test_strings(self):
        keys = [f"key-{i}" for i in range(2_000)]
        bloom = BloomFilter.for_capacity(len(keys), 0.01)
        bloom.add_batch(keys)
        assert all(k in bloom for k in keys)

    def test_integers(self):
        keys = list(range(0, 20_000, 7))
        bloom = BloomFilter.for_capacity(len(keys), 0.05)
        bloom.add_batch(keys)
        assert all(k in bloom for k in keys)


class TestFalsePositiveRate:
    def test_close_to_target(self):
        keys = [f"key-{i}" for i in range(5_000)]
        non_keys = [f"other-{i}" for i in range(30_000)]
        for target in (0.01, 0.05):
            bloom = BloomFilter.for_capacity(len(keys), target)
            bloom.add_batch(keys)
            measured = bloom.measured_fpr(non_keys)
            assert measured == pytest.approx(target, rel=0.6)

    def test_overfilled_filter_degrades(self):
        bloom = BloomFilter.for_capacity(100, 0.01)
        bloom.add_batch([f"k{i}" for i in range(2000)])
        assert bloom.measured_fpr([f"x{i}" for i in range(2000)]) > 0.2


def _degenerate_keys(num_bits):
    """Keys whose step ``h2`` is 0 mod ``num_bits``: the scalar path
    bumps it to ``h2 + 1``."""
    keys = np.arange(16 * num_bits, dtype=np.int64)
    h2 = murmur_fmix64_batch(keys, seed=1) >> np.uint64(32)
    return keys[h2 % np.uint64(num_bits) == 0][:3]


def _assert_batch_paths_match_scalar(num_bits, num_hashes):
    """``add_batch`` sets the bits a loop of ``add`` sets, and
    ``contains_batch`` answers like ``in``, for int64 keys (edges,
    negatives, degenerate steps) and uint64 keys >= 2^63, in batches
    on both sides of ``ROW_WALK_MIN_KEYS``."""
    rng = np.random.default_rng(num_bits + num_hashes)
    degenerate = _degenerate_keys(num_bits)
    assert degenerate.size
    signed = np.concatenate([
        INT64_EDGES, degenerate,
        rng.integers(-(2**63), 2**63 - 1, ROW_WALK_MIN_KEYS),
    ])
    unsigned = rng.integers(2**63, 2**64, ROW_WALK_MIN_KEYS, dtype=np.uint64)
    unsigned[:2] = [2**63, 2**64 - 1]
    batch = BloomFilter(num_bits, num_hashes)
    oracle = BloomFilter(num_bits, num_hashes)
    # Sparse steps first: a saturated filter hides a wrong bit.
    for keys in (signed[:0], degenerate[:1], signed[:1], unsigned[:3],
                 signed[: ROW_WALK_MIN_KEYS // 2]):
        batch.add_batch(keys)
        for key in keys.tolist():
            oracle.add(key)
        assert batch.to_bytes() == oracle.to_bytes()
    for probes in (signed, unsigned):
        for n in (0, 1, 5, ROW_WALK_MIN_KEYS - 1, ROW_WALK_MIN_KEYS):
            got = batch.contains_batch(probes[:n])
            assert got.dtype == bool and got.shape == (n,)
            want = [key in oracle for key in probes[:n].tolist()]
            assert got.tolist() == want


class TestBatchEquivalence:
    """The vectorized integer paths against the scalar double-hashing
    schedule they reimplement (``_positions`` / ``add`` / ``in``)."""

    @pytest.mark.parametrize("num_hashes", [1, 2, 7, 14])
    @pytest.mark.parametrize("num_bits", [1, 7, 8, 9, 64, 4_099, 157_042])
    def test_batch_paths_match_the_scalar_oracle(self, num_bits, num_hashes):
        _assert_batch_paths_match_scalar(num_bits, num_hashes)

    def test_wire_form_is_pinned(self):
        """``to_bytes`` of a small filter, captured before the batch
        paths were rewritten: run files written by any version answer
        the same."""
        bloom = BloomFilter(256, 3)
        bloom.add_batch(np.arange(0, 134, 7))
        assert bloom.to_bytes() == bytes.fromhex(
            "424c4d3100010000030000001400000000000000"
            "1600859b92860400800284000c14003089210000"
            "908009138010008862144090"
        )


def _alive_after_two_probes(bloom, keys) -> float:
    """The share of ``keys`` whose first two probe bits are both set:
    what the row walk's half-survivor gate counts."""
    bits = np.unpackbits(bloom._bits, bitorder="little")
    return float(np.mean([
        all(bits[pos] for pos in bloom._positions(key)[:2])
        for key in keys.tolist()
    ]))


class TestContainsHashes:
    """``contains_hashes`` of :meth:`BloomFilter.hash_keys` answers like
    ``contains_batch`` and like ``in``, on a built filter and on its
    ``from_bytes`` copy, for batches of every mix of present and absent
    keys, on both sides of ``ROW_WALK_MIN_KEYS`` and of the row walk's
    half-survivor gate."""

    @pytest.mark.parametrize("num_hashes", [1, 2, 7])
    def test_hashes_answer_like_keys(self, num_hashes):
        rng = np.random.default_rng(num_hashes)
        members = rng.integers(-(2**63), 2**63 - 1, 3 * ROW_WALK_MIN_KEYS)
        bloom = BloomFilter(optimal_bits(members.size, 0.01), num_hashes)
        bloom.add_batch(members)
        copy = BloomFilter.from_bytes(bloom.to_bytes())
        absent = rng.integers(-(2**63), 2**63 - 1, 3 * ROW_WALK_MIN_KEYS)
        batches = {
            "absent": absent,
            "present": members,
            "mixed": np.where(rng.random(absent.size) < 0.2, members, absent),
        }
        if num_hashes > 2:
            # absent keys mostly fail two probes: the walk goes on with
            # the survivors; present ones all pass them: it does not
            assert _alive_after_two_probes(bloom, absent[:500]) <= 0.4
            assert _alive_after_two_probes(bloom, members[:500]) == 1.0
        for name, keys in batches.items():
            for n in (0, 1, 64, ROW_WALK_MIN_KEYS - 1, ROW_WALK_MIN_KEYS,
                      2 * ROW_WALK_MIN_KEYS + 3):
                probes = keys[:n]
                want = [key in bloom for key in probes.tolist()]
                hashes = BloomFilter.hash_keys(probes)
                before = hashes.copy()
                for guard in (bloom, copy):
                    got = guard.contains_hashes(hashes)
                    assert got.dtype == bool and got.tolist() == want, (
                        name, n)
                    assert guard.contains_batch(probes).tolist() == want
                np.testing.assert_array_equal(hashes, before)


class TestInternals:
    def test_size_bytes(self):
        bloom = BloomFilter(8000, 3)
        assert bloom.size_bytes() == 1000

    def test_measured_fpr_empty_nonkeys(self):
        bloom = BloomFilter(64, 2)
        assert bloom.measured_fpr([]) == 0.0

    def test_mixed_key_types(self):
        bloom = BloomFilter.for_capacity(100, 0.01)
        bloom.add("string-key")
        bloom.add(12345)
        assert "string-key" in bloom
        assert 12345 in bloom


class TestNonIntegralNumbers:
    """A number that is not an integer is never an integer key."""

    @pytest.fixture()
    def evens(self):
        bloom = BloomFilter.for_capacity(1_000, 0.01)
        bloom.add_batch(np.arange(0, 2_000, 2, dtype=np.int64))
        return bloom

    @pytest.mark.parametrize(
        "key", [2.5, np.float64(2.5), 1998.25, float("nan"), float("inf")]
    )
    def test_is_absent(self, evens, key):
        assert key not in evens

    def test_batch_reads_them_as_absent(self, evens):
        found = evens.contains_batch([2.5, 4.5, 3.0, 4.0])
        assert found.tolist() == [False, False, 3 in evens, True]
        found = evens.contains_batch(np.array([2.5, 4.5, 6.0]))
        assert found.tolist() == [False, False, True]

    @pytest.mark.parametrize("key", [2.5, np.float64(2.5), float("nan")])
    def test_add_refuses_and_adds_nothing(self, evens, key):
        before = evens.to_bytes()
        with pytest.raises(TypeError):
            evens.add(key)
        with pytest.raises(TypeError):
            evens.add_batch([2001, 2003, key])
        with pytest.raises(TypeError):
            evens.add_batch(np.array([2001.0, 2003.0, key]))
        assert evens.to_bytes() == before

    def test_integral_float_hashes_as_its_int(self):
        as_int = BloomFilter(997, 5)
        as_int.add(4)
        as_float = BloomFilter(997, 5)
        as_float.add(4.0)
        as_float.add_batch([])
        assert as_float.to_bytes() == as_int.to_bytes()
        as_float.add_batch(np.array([6.0]))
        as_int.add_batch(np.array([6]))
        assert as_float.to_bytes() == as_int.to_bytes()
        assert 4.0 in as_int and np.float64(6.0) in as_int
