"""Unit tests for the synthetic integer key generators."""

import numpy as np
import pytest

from repro.data import synthetic
from repro.data.synthetic import (
    clustered_keys,
    lognormal_keys,
    normal_keys,
    sequential_keys,
    uniform_keys,
    zipfian_queries,
)


def _assert_canonical(keys: np.ndarray, n: int) -> None:
    assert keys.dtype == np.int64
    assert keys.size == n
    assert np.all(np.diff(keys) > 0), "keys must be strictly increasing"


class TestLognormal:
    def test_canonical_layout(self):
        _assert_canonical(lognormal_keys(2_000, seed=1), 2_000)

    def test_deterministic(self):
        a = lognormal_keys(1_000, seed=5)
        b = lognormal_keys(1_000, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_data(self):
        a = lognormal_keys(1_000, seed=5)
        b = lognormal_keys(1_000, seed=6)
        assert not np.array_equal(a, b)

    def test_heavy_tail(self):
        keys = lognormal_keys(5_000, seed=2)
        # Median far below mean is the heavy-tail signature.
        assert np.median(keys) < keys.mean() * 0.5

    def test_respects_explicit_max_key(self):
        keys = lognormal_keys(500, max_key=10_000, seed=3)
        assert keys.max() <= 10_000
        assert keys.min() >= 0

    def test_default_key_space_scales_with_n(self):
        small = lognormal_keys(500, seed=3)
        large = lognormal_keys(5_000, seed=3)
        assert large.max() > small.max()

    def test_saturated_head(self):
        # The paper-density default must create runs of consecutive
        # integers in the dense head of the distribution.
        keys = lognormal_keys(20_000, seed=4)
        gaps = np.diff(keys)
        assert (gaps == 1).mean() > 0.2


class TestUniform:
    def test_canonical_layout(self):
        _assert_canonical(uniform_keys(2_000, seed=1), 2_000)

    def test_spans_range(self):
        keys = uniform_keys(10_000, max_key=1_000_000, seed=1)
        assert keys.min() < 50_000
        assert keys.max() > 950_000

    def test_roughly_linear_cdf(self):
        keys = uniform_keys(10_000, max_key=1_000_000, seed=1)
        positions = np.arange(keys.size)
        fitted = np.polyfit(keys.astype(float), positions, 1)
        residual = positions - np.polyval(fitted, keys.astype(float))
        assert np.abs(residual).max() < keys.size * 0.02


class TestNormal:
    def test_canonical_layout(self):
        _assert_canonical(normal_keys(2_000, seed=1), 2_000)

    def test_concentrated_around_mean(self):
        keys = normal_keys(5_000, mu=0.5, sigma=0.05, seed=1)
        center = 0.5 * synthetic.DEFAULT_MAX_KEY
        within = np.abs(keys - center) < 0.2 * synthetic.DEFAULT_MAX_KEY
        assert within.mean() > 0.99


class TestClustered:
    def test_canonical_layout(self):
        _assert_canonical(clustered_keys(2_000, seed=1), 2_000)

    def test_has_large_gaps(self):
        keys = clustered_keys(5_000, clusters=5, spread=0.001, seed=1)
        gaps = np.diff(keys)
        # Step-like CDF: the biggest gap dwarfs the median gap.
        assert gaps.max() > 1000 * max(np.median(gaps), 1)


class TestSequential:
    def test_exact_progression(self):
        keys = sequential_keys(100, start=7, step=3)
        np.testing.assert_array_equal(keys, 7 + 3 * np.arange(100))

    def test_default(self):
        _assert_canonical(sequential_keys(50), 50)


class TestFillUnique:
    def test_raises_when_space_too_small(self):
        with pytest.raises(RuntimeError):
            lognormal_keys(1_000, max_key=10, seed=1)


class TestSkewedWorkloads:
    KEYS = uniform_keys(3_000, seed=7)

    def test_zipfian_queries_are_stored_keys_and_skewed(self):
        qs = zipfian_queries(self.KEYS, 5_000, seed=3)
        assert qs.size == 5_000 and qs.dtype == np.float64
        assert np.isin(qs, self.KEYS.astype(np.float64)).all()
        # Zipf(1.1) popularity: the single hottest key dominates far
        # beyond the uniform expectation of 5000/3000 ≈ 1.7 hits.
        _, counts = np.unique(qs, return_counts=True)
        assert counts.max() > 100

    def test_zipfian_deterministic_per_seed(self):
        a = zipfian_queries(self.KEYS, 500, seed=3)
        b = zipfian_queries(self.KEYS, 500, seed=3)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, zipfian_queries(self.KEYS, 500, seed=4))

    def test_empty_keys_give_empty_workloads(self):
        empty = np.empty(0, dtype=np.int64)
        assert zipfian_queries(empty, 10).size == 0


# -- 64-bit key domains (ISSUE 5) ----------------------------------------------

class TestKeyDomainParameterization:
    """Generators accept full 64-bit domains, not just the 1e9 default."""

    def test_uniform_min_key_domain(self):
        from repro.data import uniform_keys

        keys = uniform_keys(
            2_000, min_key=2**62, max_key=2**62 + 10**9, seed=1
        )
        assert keys.dtype == np.int64
        assert keys.size == 2_000
        assert int(keys.min()) >= 2**62
        assert np.all(keys[1:] > keys[:-1])

    def test_uniform_rejects_empty_domain(self):
        from repro.data import uniform_keys

        with pytest.raises(ValueError):
            uniform_keys(10, min_key=5, max_key=5)

    def test_normal_and_clustered_min_key(self):
        from repro.data import clustered_keys, normal_keys

        for gen in (normal_keys, clustered_keys):
            keys = gen(500, min_key=10**12, max_key=2 * 10**12, seed=2)
            assert int(keys.min()) >= 10**12
            assert int(keys.max()) <= 2 * 10**12
            assert np.all(keys[1:] > keys[:-1])


class TestU64Dense:
    def test_shape_and_dtype(self):
        from repro.data import u64_dense

        keys = u64_dense(4_000, seed=3)
        assert keys.dtype == np.uint64
        assert np.all(keys[1:] > keys[:-1])  # sorted unique

    def test_straddles_2p53_and_exceeds_2p63(self):
        from repro.data import u64_dense

        keys = u64_dense(4_000, seed=4)
        assert int(keys.min()) < 2**53 < int(keys.max())
        assert int(keys.max()) > 2**63

    def test_adjacent_keys_collide_in_float64(self):
        from repro.data import u64_dense

        keys = u64_dense(4_000, seed=5)
        # the generator's whole point: float64 cannot represent it
        assert np.unique(keys.astype(np.float64)).size < keys.size

    def test_start_override_and_validation(self):
        from repro.data import u64_dense

        keys = u64_dense(100, start=10**6, seed=6)
        assert int(keys.min()) >= 10**6
        with pytest.raises(ValueError):
            u64_dense(1)
        with pytest.raises(ValueError):
            u64_dense(10, max_gap=0)

    def test_osm_like_alias_and_registry(self):
        from repro.data import integer_dataset, osm_like, u64_dense

        np.testing.assert_array_equal(
            osm_like(500, seed=7), u64_dense(500, seed=7)
        )
        ds = integer_dataset("osm_like", 500, seed=7)
        np.testing.assert_array_equal(ds.keys, u64_dense(500, seed=7))

    def test_indexable_by_rmi_exactly(self):
        import bisect

        from repro.core import RecursiveModelIndex
        from repro.data import u64_dense

        keys = u64_dense(3_000, seed=8)
        index = RecursiveModelIndex(keys, stage_sizes=(1, 32))
        oracle = [int(k) for k in keys]
        rng = np.random.default_rng(9)
        probes = np.unique(
            np.concatenate([rng.choice(keys, 200),
                            rng.choice(keys, 200) + np.uint64(1)])
        )
        np.testing.assert_array_equal(
            index.lookup_batch(probes),
            np.array([bisect.bisect_left(oracle, int(q)) for q in probes]),
        )
