"""Batch == scalar equivalence for every index type with a batch surface.

The vectorized batch engine (ISSUE 1) must be a pure throughput
optimization: for any query batch, ``lookup_batch(qs)`` returns exactly
``[lookup(q) for q in qs]`` — across every index type, every search
strategy, present keys, absent keys, duplicates, the empty index and
n=1.  Same for ``contains_batch`` / ``hash_batch``, and (ISSUE 2) for
``range_query_batch`` vs scalar ``range_query`` and the sorted-batch
fast path vs the unsorted engine.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import bisect
import zlib

from repro.bloom import BloomFilter
from repro.btree import (
    BTreeIndex,
    FASTTree,
    FixedSizeBTree,
    HierarchicalLookupTable,
)
from repro.core import (
    HybridIndex,
    LearnedHashFunction,
    RecursiveModelIndex,
    WritableLearnedIndex,
)
from repro.core.engine import (
    SORTED_BATCH_MIN_DUP_FRACTION,
    SORTED_BATCH_THRESHOLD,
    batch_dup_fraction,
)
from repro.families import PGMIndex, RadixSplineIndex
from repro.lsm import SortedRun
from repro.util import _packed_order

RNG = np.random.default_rng(77)

STRATEGIES = ["binary", "biased_binary", "biased_quaternary", "exponential"]


def dataset(kind: str) -> np.ndarray:
    """The edge-case regimes the batch engine must survive."""
    if kind == "empty":
        return np.array([], dtype=np.int64)
    if kind == "single":
        return np.array([42], dtype=np.int64)
    if kind == "duplicates":
        base = np.sort(RNG.integers(0, 500, 2_000))
        return np.sort(np.concatenate([base, base[:400], base[:400]]))
    if kind == "uniform":
        return np.unique(RNG.integers(0, 10**9, 3_000))
    if kind == "lognormal":
        return np.sort(
            (np.exp(RNG.normal(0, 2.0, 3_000)) * 1e6).astype(np.int64)
        )
    raise ValueError(kind)


def query_batch(keys: np.ndarray) -> np.ndarray:
    """Present keys, absent keys, and out-of-range probes."""
    parts = [np.array([-5.0, 0.0, 2.0**40])]
    if keys.size:
        parts.append(RNG.choice(keys, 200).astype(np.float64))
        parts.append(
            RNG.integers(
                int(keys.min()) - 10, int(keys.max()) + 10, 200
            ).astype(np.float64)
        )
    return np.concatenate(parts)


def scalar_loop(index, queries) -> np.ndarray:
    """Per-query ``lookup`` over native Python scalars (``tolist``
    keeps ints exact), the reference every batch surface must equal."""
    items = np.asarray(queries).ravel().tolist()
    return np.array([index.lookup(q) for q in items], dtype=np.int64)


def assert_batch_matches_scalar(index, queries):
    batch = index.lookup_batch(queries)
    scalar = np.array([index.lookup(float(q)) for q in queries])
    np.testing.assert_array_equal(batch, scalar)
    member = index.contains_batch(queries)
    expected = np.array([index.contains(float(q)) for q in queries])
    np.testing.assert_array_equal(member, expected)


KINDS = ["empty", "single", "duplicates", "uniform", "lognormal"]


class TestRMIEquivalence:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("kind", KINDS)
    def test_all_strategies_all_regimes(self, kind, strategy):
        keys = dataset(kind)
        index = RecursiveModelIndex(
            keys, stage_sizes=(1, 64), search_strategy=strategy
        )
        assert_batch_matches_scalar(index, query_batch(keys))

    def test_empty_query_batch(self):
        index = RecursiveModelIndex(dataset("uniform"))
        assert index.lookup_batch(np.array([])).size == 0
        assert index.contains_batch(np.array([])).size == 0

    def test_scalar_loop_matches_batch(self):
        keys = dataset("uniform")
        index = RecursiveModelIndex(keys, stage_sizes=(1, 32))
        queries = query_batch(keys)
        np.testing.assert_array_equal(
            scalar_loop(index, queries), index.lookup_batch(queries)
        )

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        keys=st.lists(
            st.integers(min_value=-(10**9), max_value=10**9),
            min_size=0,
            max_size=300,
        ).map(lambda xs: np.array(sorted(xs), dtype=np.int64)),
        qs=st.lists(
            st.integers(min_value=-(2 * 10**9), max_value=2 * 10**9),
            min_size=1,
            max_size=40,
        ),
        leaves=st.integers(1, 64),
    )
    def test_property_batch_equals_scalar(self, keys, qs, leaves):
        index = RecursiveModelIndex(keys, stage_sizes=(1, leaves))
        queries = np.asarray(qs, dtype=np.float64)
        assert_batch_matches_scalar(index, queries)

    def test_upper_bound_duplicates_match_searchsorted(self):
        keys = dataset("duplicates")
        index = RecursiveModelIndex(keys, stage_sizes=(1, 32))
        for q in query_batch(keys)[:120]:
            assert index.upper_bound(float(q)) == int(
                np.searchsorted(keys, q, side="right")
            )

    def test_range_query_duplicates(self):
        keys = dataset("duplicates")
        index = RecursiveModelIndex(keys, stage_sizes=(1, 32))
        lo, hi = int(keys[100]), int(keys[-100])
        expected = keys[(keys >= lo) & (keys <= hi)]
        np.testing.assert_array_equal(index.range_query(lo, hi), expected)


class TestBaselineEquivalence:
    @pytest.mark.parametrize("kind", KINDS)
    def test_btree(self, kind):
        keys = dataset(kind)
        assert_batch_matches_scalar(
            BTreeIndex(keys, page_size=32), query_batch(keys)
        )

    @pytest.mark.parametrize("kind", KINDS)
    def test_fixed_btree(self, kind):
        keys = dataset(kind)
        assert_batch_matches_scalar(
            FixedSizeBTree(keys, size_budget_bytes=2_048), query_batch(keys)
        )

    @pytest.mark.parametrize("kind", KINDS)
    def test_lookup_table(self, kind):
        keys = dataset(kind)
        assert_batch_matches_scalar(
            HierarchicalLookupTable(keys, group=16), query_batch(keys)
        )

    @pytest.mark.parametrize("kind", KINDS)
    def test_fast_tree(self, kind):
        keys = dataset(kind)
        assert_batch_matches_scalar(
            FASTTree(keys, page_size=16), query_batch(keys)
        )


RANGE_FACTORIES = {
    "rmi": lambda keys: RecursiveModelIndex(keys, stage_sizes=(1, 32)),
    "hybrid": lambda keys: HybridIndex(keys, stage_sizes=(1, 16), threshold=4),
    "btree": lambda keys: BTreeIndex(keys, page_size=32),
    "fixed_btree": lambda keys: FixedSizeBTree(keys, size_budget_bytes=2_048),
    "lookup_table": lambda keys: HierarchicalLookupTable(keys, group=16),
    "fast_tree": lambda keys: FASTTree(keys, page_size=16),
    "pgm": lambda keys: PGMIndex(keys, epsilon=4, epsilon_internal=2),
    "radix_spline": lambda keys: RadixSplineIndex(
        keys, epsilon=4, radix_bits=6
    ),
}


def range_endpoints(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mixed endpoints: ordinary, degenerate (low == high), inverted,
    fully out-of-range, and spanning-everything ranges."""
    lows = query_batch(keys)
    highs = query_batch(keys)[: lows.size]
    # force some degenerate and inverted pairs at known slots
    highs[0] = lows[0]
    if lows.size > 1:
        lows[1], highs[1] = max(lows[1], highs[1]), min(lows[1], highs[1]) - 1
    return lows, highs


class TestRangeBatchEquivalence:
    """range_query_batch == scalar range_query, per range, bit-identical."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("name", sorted(RANGE_FACTORIES))
    def test_batch_matches_scalar(self, name, kind):
        keys = dataset(kind)
        index = RANGE_FACTORIES[name](keys)
        lows, highs = range_endpoints(keys)
        result = index.range_query_batch(lows, highs)
        assert len(result) == lows.size
        for i in range(lows.size):
            expected = index.range_query(float(lows[i]), float(highs[i]))
            np.testing.assert_array_equal(
                np.asarray(result[i]),
                np.asarray(expected),
                err_msg=f"{name}/{kind} range {i}",
            )
        assert result.total == int(result.counts.sum())


class TestSortedPathEquivalence:
    """sorted-path == unsorted-path, bit-identical, for every regime."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_rmi_sorted_matches_unsorted(self, kind):
        keys = dataset(kind)
        index = RecursiveModelIndex(keys, stage_sizes=(1, 64))
        queries = query_batch(keys)
        unsorted = index.lookup_batch(queries, sort=False)
        np.testing.assert_array_equal(
            index.lookup_batch(queries, sort=True), unsorted
        )
        # the heuristic default must agree with both forced paths
        np.testing.assert_array_equal(index.lookup_batch(queries), unsorted)

    def test_hybrid_sorted_matches_unsorted(self):
        keys = dataset("lognormal")
        index = HybridIndex(keys, stage_sizes=(1, 16), threshold=4)
        assert index.replaced_leaf_count > 0
        queries = query_batch(keys)
        np.testing.assert_array_equal(
            index.lookup_batch(queries, sort=True),
            index.lookup_batch(queries, sort=False),
        )

    def test_range_batch_sorted_matches_unsorted(self):
        keys = dataset("duplicates")
        index = RecursiveModelIndex(keys, stage_sizes=(1, 32))
        lows, highs = range_endpoints(keys)
        a = index.range_query_batch(lows, highs, sort=True)
        b = index.range_query_batch(lows, highs, sort=False)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.offsets, b.offsets)
        np.testing.assert_array_equal(a.starts, b.starts)
        np.testing.assert_array_equal(a.ends, b.ends)

    def test_heuristic_sorted_path_on_a_full_span_column(self):
        """A zipf-hot batch under ``sort=None`` on a column touching
        both ends of int64: the heuristic takes the sorted path, and
        the batch's span leaves no bits to pack positions into, so the
        argsort fallback orders it."""
        keys = huge_dataset("int64_full_span")
        index = RecursiveModelIndex(keys, stage_sizes=(1, 48))
        rng = np.random.default_rng(0x21F)
        ranks = np.minimum(rng.zipf(1.3, SORTED_BATCH_THRESHOLD), keys.size)
        queries = rng.permutation(keys)[ranks - 1]
        queries[:2] = keys[0], keys[-1]
        assert batch_dup_fraction(queries) >= SORTED_BATCH_MIN_DUP_FRACTION
        assert _packed_order(queries) is None
        oracle = np.searchsorted(keys, queries)
        np.testing.assert_array_equal(index.lookup_batch(queries), oracle)
        np.testing.assert_array_equal(
            index.lookup_batch(queries, sort=False), oracle
        )

    def test_presorted_queries_hit_same_positions(self):
        keys = dataset("uniform")
        index = RecursiveModelIndex(keys, stage_sizes=(1, 64))
        queries = np.sort(query_batch(keys))
        np.testing.assert_array_equal(
            index.lookup_batch(queries, sort=True),
            np.array([index.lookup(float(q)) for q in queries]),
        )


class TestHybridEquivalence:
    @pytest.mark.parametrize("threshold", [0, 4, 10**9])
    def test_hybrid_with_fallback_leaves(self, threshold):
        keys = dataset("lognormal")
        index = HybridIndex(keys, stage_sizes=(1, 16), threshold=threshold)
        if threshold == 0:
            assert index.replaced_leaf_count > 0
        assert_batch_matches_scalar(index, query_batch(keys))

    @pytest.mark.parametrize("kind", ["empty", "single", "duplicates"])
    def test_hybrid_edge_regimes(self, kind):
        keys = dataset(kind)
        index = HybridIndex(keys, stage_sizes=(1, 8), threshold=2)
        assert_batch_matches_scalar(index, query_batch(keys))


class TestHashAndBloomEquivalence:
    def test_learned_hash_batch(self, lognormal_small):
        h = LearnedHashFunction(
            lognormal_small, num_slots=5_000, stage_sizes=(1, 100)
        )
        probes = np.concatenate(
            [lognormal_small[:300], lognormal_small[:300] + 1]
        ).astype(np.float64)
        batch = h.hash_batch(probes)
        scalar = np.array([h(float(q)) for q in probes])
        np.testing.assert_array_equal(batch, scalar)

    def test_standard_bloom_batch(self):
        bloom = BloomFilter.for_capacity(500, 0.01)
        keys = [f"key:{i}" for i in range(500)]
        bloom.add_batch(keys)
        probes = keys[:100] + [f"absent:{i}" for i in range(100)]
        batch = bloom.contains_batch(probes)
        expected = np.array([p in bloom for p in probes])
        np.testing.assert_array_equal(batch, expected)
        assert bloom.contains_batch([]).size == 0


# -- exact 64-bit keys (ISSUE 5) ----------------------------------------------
#
# Adversarial key sets at and beyond 2^53 — adjacent keys differing by
# 1 near 2^63 — where a float64 round-trip collides neighbours.  Every
# batch API must stay exact and pinned batch == scalar, with Python-int
# scalar probes (float() would round the queries themselves).


def huge_dataset(kind: str) -> np.ndarray:
    """Key regimes beyond float64's integer resolution."""
    rng = np.random.default_rng(0xB16)
    if kind == "int64_adjacent":
        parts = [
            np.arange(2**53 - 200, 2**53 + 200, dtype=np.int64),
            (2**63 - 3_000) + np.cumsum(rng.integers(1, 3, 600)),
            np.arange(2**63 - 40, 2**63 - 1, dtype=np.int64),
        ]
        return np.unique(np.concatenate(parts).astype(np.int64))
    if kind == "uint64_top":
        gaps = rng.integers(1, 3, 1_200).astype(np.uint64)
        return np.uint64(2**63 - 1_200) + np.cumsum(gaps)
    # The benchmark's two dense patterns: every key shares a float64
    # with ~500 neighbours, yet the column spans only 2n.
    if kind == "int64_dense_2p62":
        return np.int64(2**62 - 3_000) + 2 * np.arange(3_000, dtype=np.int64)
    if kind == "uint64_dense_2p63":
        return np.uint64(2**63 - 3_000) + 2 * np.arange(3_000, dtype=np.uint64)
    # Columns touching both ends of their dtype: the span from the
    # origin does not fit the signed type.
    if kind == "int64_full_span":
        step = np.arange(400, dtype=np.int64)
        return np.unique(np.concatenate([
            np.iinfo(np.int64).min + 3 * step,
            rng.integers(-2**62, 2**62, 400),
            np.iinfo(np.int64).max - 3 * step,
        ]))
    if kind == "uint64_to_max":
        step = np.arange(600, dtype=np.uint64)
        return np.unique(np.concatenate([
            np.uint64(2**63 - 600) + 2 * step,
            np.iinfo(np.uint64).max - 3 * step,
        ]))
    raise ValueError(kind)


def huge_probes(keys: np.ndarray, rng) -> np.ndarray:
    """Present keys plus +-1 adjacents, same dtype as the keys."""
    info = np.iinfo(keys.dtype)
    lo, hi = int(keys.min()), int(keys.max())
    floor = max(lo - 2, int(info.min))
    picks = [int(k) for k in rng.choice(keys, 250)]
    near = [min(max(k + d, floor), hi) for k in picks for d in (-1, 1)]
    return np.unique(np.array(picks + near + [lo, hi], dtype=keys.dtype))


def origin_edge_ints(keys: np.ndarray) -> list[int]:
    """Both sides of the column's ends and of its dtype's ends."""
    info = np.iinfo(keys.dtype)
    lo, hi = int(keys[0]), int(keys[-1])
    candidates = (
        info.min, info.min + 1, lo - 1_000, lo - 1, lo, lo + 1,
        (lo + hi) // 2, hi - 1, hi, hi + 1, hi + 1_000,
        info.max - 1, info.max,
    )
    return sorted({min(max(v, int(info.min)), int(info.max))
                   for v in candidates})


def origin_edge_floats(keys: np.ndarray) -> list[float]:
    """Float queries against an integer column, negatives and
    infinities included (NaN is checked apart: its position is
    unspecified).  Python floats: they compare exactly with the
    oracle's Python ints, which ``np.float64`` scalars do not."""
    lo, hi = float(keys[0]), float(keys[-1])
    return [float(q) for q in (
        -np.inf, -1e30, -3.5, -0.5, 0.0, 0.5, lo, np.nextafter(lo, -np.inf),
        np.nextafter(lo, np.inf), (lo + hi) / 2, hi,
        np.nextafter(hi, np.inf), 1e30, np.inf,
    )]


HUGE_KINDS = [
    "int64_adjacent", "uint64_top", "int64_dense_2p62", "uint64_dense_2p63",
    "int64_full_span", "uint64_to_max",
]

HUGE_FACTORIES = {
    "rmi": lambda keys: RecursiveModelIndex(keys, stage_sizes=(1, 48)),
    "rmi_exponential": lambda keys: RecursiveModelIndex(
        keys, stage_sizes=(1, 48), search_strategy="exponential"
    ),
    "rmi_three_stage": lambda keys: RecursiveModelIndex(
        keys, stage_sizes=(1, 4, 48)
    ),
    "hybrid": lambda keys: HybridIndex(keys, stage_sizes=(1, 16), threshold=4),
    "btree": lambda keys: BTreeIndex(keys, page_size=32),
    "fixed_btree": lambda keys: FixedSizeBTree(keys, size_budget_bytes=2_048),
    "lookup_table": lambda keys: HierarchicalLookupTable(keys, group=16),
    "fast_tree": lambda keys: FASTTree(keys, page_size=16),
    "pgm": lambda keys: PGMIndex(keys, epsilon=4, epsilon_internal=2),
    "radix_spline": lambda keys: RadixSplineIndex(
        keys, epsilon=4, radix_bits=6
    ),
}


#: The factories above that route through a model (every place a key
#: becomes a model input: compiled plan and its scalar twin).
MODEL_BACKED = [
    "hybrid", "pgm", "radix_spline", "rmi", "rmi_exponential",
    "rmi_three_stage",
]


class TestExact64BitEquivalence:
    """batch == scalar == bisect oracle beyond 2^53, every index type."""

    @pytest.mark.parametrize("kind", HUGE_KINDS)
    def test_dataset_exceeds_float64_resolution(self, kind):
        keys = huge_dataset(kind)
        assert np.unique(keys.astype(np.float64)).size < keys.size

    @pytest.mark.parametrize("kind", HUGE_KINDS)
    @pytest.mark.parametrize("name", sorted(HUGE_FACTORIES))
    def test_point_ops_exact(self, name, kind):
        rng = np.random.default_rng(
            0xE5 + zlib.crc32(repr((name, kind)).encode()) % 2**16
        )
        keys = huge_dataset(kind)
        index = HUGE_FACTORIES[name](keys)
        oracle = [int(k) for k in keys]
        probes = huge_probes(keys, rng)
        items = [int(q) for q in probes]
        expected_lb = np.array([bisect.bisect_left(oracle, q) for q in items])
        np.testing.assert_array_equal(
            index.lookup_batch(probes), expected_lb,
            err_msg=f"{name}/{kind} lookup_batch",
        )
        scalar = np.array([index.lookup(q) for q in items])
        np.testing.assert_array_equal(scalar, expected_lb)
        np.testing.assert_array_equal(
            index.contains_batch(probes),
            np.array([
                p < len(oracle) and oracle[p] == q
                for p, q in zip(expected_lb, items)
            ]),
            err_msg=f"{name}/{kind} contains_batch",
        )

    @pytest.mark.parametrize("kind", HUGE_KINDS)
    @pytest.mark.parametrize("name", sorted(HUGE_FACTORIES))
    def test_range_ops_exact(self, name, kind):
        rng = np.random.default_rng(
            0xE6 + zlib.crc32(repr((name, kind)).encode()) % 2**16
        )
        keys = huge_dataset(kind)
        index = HUGE_FACTORIES[name](keys)
        oracle = [int(k) for k in keys]
        lows = huge_probes(keys, rng)[:120]
        spans = rng.integers(0, 60, lows.size).astype(lows.dtype)
        top = np.asarray(keys.max(), dtype=lows.dtype)
        highs = np.minimum(lows + spans, top)  # stay inside the dtype
        result = index.range_query_batch(lows, highs)
        for i in range(lows.size):
            lo, hi = int(lows[i]), int(highs[i])
            expected = oracle[
                bisect.bisect_left(oracle, lo):bisect.bisect_right(oracle, hi)
            ]
            assert list(result[i]) == expected, (name, kind, i)

    @pytest.mark.parametrize("kind", HUGE_KINDS)
    @pytest.mark.parametrize("name", MODEL_BACKED)
    def test_origin_edge_queries(self, name, kind):
        """Queries around the model-space origin and both dtype ends:
        scalar == batch (every ``sort`` setting) == bisect oracle."""
        keys = huge_dataset(kind)
        index = HUGE_FACTORIES[name](keys)
        oracle = [int(k) for k in keys]
        ints = origin_edge_ints(keys)
        floats = origin_edge_floats(keys)
        present = set(oracle)
        # NumPy float scalars compare as their Python value, not by
        # rounding the stored key to float64.
        np_floats = np.array(floats + [2.0**63, 2.0**64])
        for queries, scalars, array in (
            (ints, ints, np.array(ints, dtype=keys.dtype)),
            (floats, floats, np.array(floats)),
            (np_floats.tolist(), list(np_floats), np_floats),
        ):
            expected = np.array(
                [bisect.bisect_left(oracle, q) for q in queries]
            )
            for sort in (None, True, False):
                np.testing.assert_array_equal(
                    index.lookup_batch(array, sort=sort), expected,
                    err_msg=f"{name}/{kind} sort={sort}",
                )
            np.testing.assert_array_equal(
                [index.lookup(q) for q in scalars], expected
            )
            member = [q in present for q in queries]
            np.testing.assert_array_equal(
                [index.contains(q) for q in scalars], member
            )
            np.testing.assert_array_equal(index.contains_batch(array), member)
        # NumPy scalars of the key dtype must not wrap against the origin.
        for q in (keys[0], keys[-1], keys.dtype.type(ints[0])):
            assert index.lookup(q) == bisect.bisect_left(oracle, int(q))
        # Python ints beyond int64 or every 64-bit dtype: scalar path only.
        for q in (2**63, 2**64 - 1, 2**64, 2**70, -2**63 - 1, -2**70):
            assert index.lookup(q) == bisect.bisect_left(oracle, q), q
            assert index.contains(q) == (q in present)
        # NaN has no position; it must still not raise on either path.
        index.lookup(float("nan"))
        for sort in (None, True, False):
            assert index.lookup_batch(
                np.array([np.nan, 1.0]), sort=sort
            ).size == 2

    @pytest.mark.parametrize(
        "kind", [k for k in HUGE_KINDS if k.startswith("int64")]
    )
    def test_sorted_run_origin_edges(self, kind):
        """A run's own origin (runs hold int64 keys only): scalar
        ``probe`` == ``probe_batch`` == set membership, and the run's
        index agrees with the oracle on every engine path."""
        keys = huge_dataset(kind)
        run = SortedRun(keys, keys ^ 0x5A)
        assert run.rmi.compiled_state()["origin"] == int(keys[0])
        present = set(keys.tolist())
        ints = origin_edge_ints(keys) + keys[::97].tolist()
        queries = np.array(ints, dtype=np.int64)
        hit, dead, values = run.probe_batch(queries)
        assert hit.tolist() == [q in present for q in ints]
        assert not dead.any()
        assert values[hit].tolist() == [q ^ 0x5A for q in ints if q in present]
        for q, found in zip(ints, hit.tolist()):
            assert run.probe(q) == (found, False, q ^ 0x5A if found else 0)
        expected = np.searchsorted(keys, queries)
        for sort in (None, True, False):
            np.testing.assert_array_equal(
                run.rmi.lookup_batch(queries, sort=sort), expected
            )

    def test_rmi_sorted_path_exact(self):
        keys = huge_dataset("int64_adjacent")
        index = RecursiveModelIndex(keys, stage_sizes=(1, 48))
        rng = np.random.default_rng(0xE7)
        probes = np.concatenate([huge_probes(keys, rng)] * 3)
        unsorted = index.lookup_batch(probes, sort=False)
        np.testing.assert_array_equal(
            index.lookup_batch(probes, sort=True), unsorted
        )
        np.testing.assert_array_equal(index.lookup_batch(probes), unsorted)


class TestExact64BitWritable:
    def test_writable_huge_round_trip(self):
        keys = huge_dataset("int64_adjacent")
        rng = np.random.default_rng(0xE8)
        index = WritableLearnedIndex(
            keys[::2].copy(), stage_sizes=(1, 32), merge_threshold=400
        )
        live = set(int(k) for k in keys[::2])
        for k in keys[1::4].tolist():
            index.insert(k)
            live.add(k)
        for k in keys[::6].tolist():
            index.delete(k)
            live.discard(k)
        slist = sorted(live)
        probes = huge_probes(keys, rng)
        for q in probes.tolist():
            assert index.lookup(q) == bisect.bisect_left(slist, q), q
            assert index.upper_bound(q) == bisect.bisect_right(slist, q), q
            assert index.contains(q) == (q in live), q
        lows = probes[:60]
        highs = np.minimum(
            lows + rng.integers(0, 50, 60), np.int64(2**63 - 1)
        )
        for lo, hi in zip(lows.tolist(), highs.tolist()):
            expected = slist[
                bisect.bisect_left(slist, lo):bisect.bisect_right(slist, hi)
            ]
            assert index.range_query(lo, hi).tolist() == expected, (lo, hi)


# -- every plan-backed index ---------------------------------------------------

FAMILY_FACTORIES = {
    "rmi": lambda keys: RecursiveModelIndex(keys, stage_sizes=(1, 32)),
    "rmi_three_stage": lambda keys: RecursiveModelIndex(
        keys, stage_sizes=(1, 4, 32)
    ),
    "rmi_four_stage": lambda keys: RecursiveModelIndex(
        keys, stage_sizes=(1, 4, 8, 64)
    ),
    "hybrid": lambda keys: HybridIndex(keys, stage_sizes=(1, 16), threshold=4),
    "pgm": lambda keys: PGMIndex(keys, epsilon=4, epsilon_internal=2),
    "pgm_deep": lambda keys: PGMIndex(keys, epsilon=2, epsilon_internal=1),
    "radix_spline": lambda keys: RadixSplineIndex(
        keys, epsilon=4, radix_bits=6
    ),
}


class TestFamilyBatchEquivalence:
    """RMI (two to four stages) / Hybrid / PGM / RadixSpline: the shared
    batch surface == scalar loops, all regimes."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("name", sorted(FAMILY_FACTORIES))
    def test_batch_matches_scalar(self, name, kind):
        keys = dataset(kind)
        index = FAMILY_FACTORIES[name](keys)
        queries = query_batch(keys)
        assert_batch_matches_scalar(index, queries)
        np.testing.assert_array_equal(
            scalar_loop(index, queries), index.lookup_batch(queries)
        )
        # Accounting must not read what only a build over data sets up
        # (kind "empty" builds nothing).
        assert index.size_bytes() >= 0
        assert type(index).__name__ in repr(index)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("name", sorted(FAMILY_FACTORIES))
    def test_sorted_path_matches_unsorted(self, kind, name):
        keys = dataset(kind)
        index = FAMILY_FACTORIES[name](keys)
        queries = query_batch(keys)
        np.testing.assert_array_equal(
            index.lookup_batch(queries, sort=True),
            index.lookup_batch(queries, sort=False),
        )
        by_sort = index.range_query_batch(queries, queries, sort=True)
        unsorted = index.range_query_batch(queries, queries, sort=False)
        np.testing.assert_array_equal(by_sort.offsets, unsorted.offsets)
        np.testing.assert_array_equal(by_sort.values, unsorted.values)
