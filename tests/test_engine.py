"""Unit tests for the unified dtype-aware query core (ISSUE 5).

The engine's contract: every comparison runs in the key column's
native dtype, so integer keys at or beyond 2^53 never round together;
float queries against integer columns compare as exact integer
ceilings; cross-dtype integer queries clamp to the column's range with
correct boundary semantics.
"""

import bisect

import numpy as np
import pytest

from repro.core import RecursiveModelIndex
from repro.core.engine import (
    CompiledPlan,
    ModelSpace,
    QueryBatch,
    SortedKeyColumn,
    narrow_offsets,
)


def bisect_lb(keys, q):
    return bisect.bisect_left(keys, q)


class TestPrepare:
    def test_same_dtype_passthrough(self):
        keys = np.array([1, 5, 9], dtype=np.int64)
        column = SortedKeyColumn(keys)
        q = np.array([0, 5, 10], dtype=np.int64)
        qb = column.prepare(q)
        assert qb.compare is q
        assert qb.exactable is None
        assert qb.oob_high is None

    def test_prepare_idempotent(self):
        column = SortedKeyColumn(np.array([1, 2], dtype=np.int64))
        qb = column.prepare(np.array([1.5]))
        assert column.prepare(qb) is qb

    def test_float_queries_ceil_semantics(self):
        column = SortedKeyColumn(np.array([1, 4, 4, 9], dtype=np.int64))
        qb = column.prepare(np.array([3.5, 4.0, 4.5, -0.5]))
        np.testing.assert_array_equal(qb.compare, [4, 4, 5, 0])
        np.testing.assert_array_equal(qb.exactable, [False, True, False, False])

    def test_float_queries_beyond_int64_max(self):
        top = 2**63 - 1
        column = SortedKeyColumn(np.array([0, top], dtype=np.int64))
        qb = column.prepare(np.array([2.0**63, 1e300, float(2**62)]))
        assert qb.oob_high is not None
        np.testing.assert_array_equal(qb.oob_high, [True, True, False])
        # lower bounds: above-max queries land at n even though a key
        # equals the clamp target's neighbourhood
        np.testing.assert_array_equal(
            column.lower_bounds(np.array([2.0**63, 1e300])), [2, 2]
        )

    def test_float_queries_below_int64_min(self):
        column = SortedKeyColumn(np.array([-5, 3], dtype=np.int64))
        pos = column.lower_bounds(np.array([-1e300, -5.5, -5.0]))
        np.testing.assert_array_equal(pos, [0, 0, 0])
        qb = column.prepare(np.array([-1e300]))
        assert not qb.exactable[0]

    def test_nan_queries_do_not_crash(self):
        column = SortedKeyColumn(np.array([1, 2, 3], dtype=np.int64))
        qb = column.prepare(np.array([np.nan, 2.0]))
        assert not qb.exactable[0]
        assert qb.exactable[1]
        column.lower_bounds(np.array([np.nan]))  # position unspecified

    def test_uint64_column_negative_int_queries(self):
        column = SortedKeyColumn(np.array([0, 7], dtype=np.uint64))
        qb = column.prepare(np.array([-3, 0, 7], dtype=np.int64))
        np.testing.assert_array_equal(
            column.lower_bounds(qb), [0, 0, 1]
        )
        np.testing.assert_array_equal(
            column.contains_at(qb, column.lower_bounds(qb)),
            [False, True, True],
        )

    def test_int64_column_uint64_queries_above_max(self):
        top = 2**63 - 1
        column = SortedKeyColumn(np.array([top - 1, top], dtype=np.int64))
        q = np.array([top, 2**63, 2**64 - 1], dtype=np.uint64)
        qb = column.prepare(q)
        np.testing.assert_array_equal(column.lower_bounds(qb), [1, 2, 2])
        np.testing.assert_array_equal(
            column.contains_at(qb, column.lower_bounds(qb)),
            [True, False, False],
        )

    def test_small_int_queries_safe_cast(self):
        column = SortedKeyColumn(np.array([10, 20], dtype=np.int64))
        qb = column.prepare(np.array([15], dtype=np.int32))
        assert qb.compare.dtype == np.int64
        assert qb.exactable is None

    def test_float_column_compares_float64(self):
        column = SortedKeyColumn(np.array([0.5, 1.5], dtype=np.float64))
        qb = column.prepare(np.array([1], dtype=np.int64))
        assert qb.compare.dtype == np.float64
        np.testing.assert_array_equal(column.lower_bounds(qb), [1])

    def test_object_arrays_fall_back_to_float(self):
        column = SortedKeyColumn(np.array([1, 2], dtype=np.int64))
        qb = column.prepare([1, 2.5])
        np.testing.assert_array_equal(qb.compare, [1, 3])


class TestExactPrimitives:
    KEYS = np.array(
        [2**53 - 1, 2**53, 2**53 + 1, 2**63 - 3, 2**63 - 2, 2**63 - 1],
        dtype=np.int64,
    )

    def test_lower_bounds_adjacent_keys(self):
        column = SortedKeyColumn(self.KEYS)
        keys = [int(k) for k in self.KEYS]
        # (2^63 - 1) + 1 overflows int64; build probes in Python space
        probes = np.array(
            [min(k + d, 2**63 - 1) for k in keys for d in (-1, 0, 1)],
            dtype=np.int64,
        )
        expected = [bisect_lb(keys, int(q)) for q in probes]
        np.testing.assert_array_equal(
            column.lower_bounds(probes), expected
        )

    def test_float64_would_collide(self):
        # Sanity: the dataset genuinely exceeds float64 resolution, so
        # the old float64-cast path could not have answered it.
        assert np.unique(self.KEYS.astype(np.float64)).size < self.KEYS.size

    def test_upper_bounds_widening(self):
        keys = np.array([5, 7, 7, 7, 9], dtype=np.int64)
        column = SortedKeyColumn(keys)
        qb = column.prepare(np.array([7.0, 7.5, 6.0]))
        lbs = column.lower_bounds(qb)
        ubs = column.upper_bounds(qb, lbs)
        expected = [bisect.bisect_right([5, 7, 7, 7, 9], q)
                    for q in (7.0, 7.5, 6.0)]
        np.testing.assert_array_equal(ubs, expected)
        # int64 duplicates beyond 2^53, widened from given lower bounds
        column = SortedKeyColumn(
            np.array([2**62, 2**62, 2**63 - 1], dtype=np.int64)
        )
        highs = column.prepare(np.array([2**62, 2**63 - 1], dtype=np.int64))
        np.testing.assert_array_equal(
            column.upper_bounds(highs, np.array([0, 2])), [2, 3]
        )

    def test_rank_in_right_side_float_semantics(self):
        # count of values <= 3.5 equals count of values < 4
        column = SortedKeyColumn(np.empty(0, dtype=np.int64))
        aux = np.array([1, 3, 4, 4, 8], dtype=np.int64)
        qb = column.prepare(np.array([3.5, 4.0, 100.0]))
        np.testing.assert_array_equal(
            column.rank_in(aux, qb, side="right"), [2, 4, 5]
        )
        np.testing.assert_array_equal(
            column.rank_in(aux, qb, side="left"), [2, 2, 5]
        )

    def test_bounded_lower_bounds_matches_searchsorted(self):
        rng = np.random.default_rng(11)
        keys = np.unique(rng.integers(2**62, 2**63 - 1, 3_000))
        column = SortedKeyColumn(keys)
        probes = np.concatenate(
            [rng.choice(keys, 300), rng.choice(keys, 300) + 1]
        )
        qb = column.prepare(probes)
        n = keys.size
        lo = np.zeros(probes.size, dtype=np.int64)
        hi = np.full(probes.size, n, dtype=np.int64)
        pos, fixups = column.bounded_lower_bounds(qb, lo, hi)
        np.testing.assert_array_equal(pos, np.searchsorted(keys, probes))


class TestQueryBatchTake:
    def test_take_preserves_masks(self):
        column = SortedKeyColumn(np.array([1, 5], dtype=np.int64))
        qb = column.prepare(np.array([0.5, 5.0, 2.0**63]))
        sub = qb.take(np.array([0, 2]))
        np.testing.assert_array_equal(sub.compare, [1, qb.compare[2]])
        np.testing.assert_array_equal(sub.exactable, [False, False])
        np.testing.assert_array_equal(sub.oob_high, [False, True])


class TestCompiledPlanMatchesRMI:
    def test_windows_match_scalar_predict(self):
        rng = np.random.default_rng(3)
        keys = np.unique(rng.integers(0, 10**9, 5_000))
        index = RecursiveModelIndex(keys, stage_sizes=(1, 64))
        plan = index._plan
        assert isinstance(plan, CompiledPlan)
        probes = rng.choice(keys, 200).astype(np.float64)
        qb = index._column.prepare(probes)
        lo, hi = plan.windows_from_raw(*plan.route(qb))
        for i, q in enumerate(probes):
            _est, slo, shi = index.predict(float(q))
            assert (lo[i], hi[i]) == (slo, shi)

    def test_plan_is_the_only_batch_engine(self):
        # The RMI's batch surface must be a thin adapter: no local
        # implementation of the bounded search or window widening.
        import inspect

        import repro.core.rmi as rmi_mod

        src = inspect.getsource(rmi_mod)
        assert "vectorized_bounded_search(" not in src
        assert "np.unique(queries, return_inverse" not in src

    def test_rmi_defines_no_surface_of_its_own(self):
        # The RMI is one CompiledPlanIndex family: the shared surface
        # must not silently regrow as a private copy.
        from pathlib import Path

        import repro.core
        from repro.btree import (
            BTreeIndex,
            FASTTree,
            FixedSizeBTree,
            HierarchicalLookupTable,
        )
        from repro.core import CompiledPlanIndex, HybridIndex, StringRMI
        from repro.range_scan import RangeScanIndexMixin

        assert issubclass(RecursiveModelIndex, CompiledPlanIndex)
        for name in (
            "lookup_batch",
            "contains_batch",
            "range_query_batch",
            "upper_bound",
            "contains",
            "range_query",
        ):
            assert name not in RecursiveModelIndex.__dict__, name
            assert hasattr(CompiledPlanIndex, name), name
        # One Section 3.4 scalar lookup: the probe schedules and the
        # hybrid B-Tree leaves plug into the base's, for numbers and
        # strings alike.
        for cls in (RecursiveModelIndex, HybridIndex, StringRMI):
            assert "lookup" not in cls.__dict__, cls
        # The derived scalar reads are written once, in the mixin.
        for cls in (
            BTreeIndex,
            FASTTree,
            FixedSizeBTree,
            HierarchicalLookupTable,
            CompiledPlanIndex,
        ):
            assert issubclass(cls, RangeScanIndexMixin), cls
            for name in ("contains", "upper_bound", "range_query"):
                assert name not in cls.__dict__, (cls, name)
        # Deleted plumbing stays deleted.
        core = Path(repro.core.__file__).parent
        source = "".join(p.read_text() for p in sorted(core.glob("*.py")))
        for name in (
            "_predict_window",
            "routed",
            "leaf_predict",
            "GroupScatter",
            "pack_requests",
        ):
            assert name not in source, name

    def test_plan_lookup_sorted_identical(self):
        keys = np.unique(
            np.random.default_rng(5).integers(2**62, 2**63 - 2, 4_000)
        )
        index = RecursiveModelIndex(keys, stage_sizes=(1, 32))
        probes = np.concatenate([keys[::3], keys[::3] + 1, keys[:5]])
        np.testing.assert_array_equal(
            index.lookup_batch(probes, sort=True),
            index.lookup_batch(probes, sort=False),
        )


I64, U64 = np.iinfo(np.int64), np.iinfo(np.uint64)

#: (dtype, origin) pairs at the corners of the 64-bit domains.
SPACES = [
    (np.int64, 0),
    (np.int64, 2**62 - 7),
    (np.int64, I64.min),
    (np.int64, I64.max),
    (np.uint64, 0),
    (np.uint64, 2**63 - 7),
    (np.uint64, U64.max),
    (np.int32, -5),
]


class TestModelSpace:
    """``key - origin`` exactly, then float64 — batch and scalar twin."""

    @pytest.mark.parametrize("dtype,origin", SPACES)
    def test_encode_is_exact_difference_clamped_at_zero(self, dtype, origin):
        info = np.iinfo(dtype)
        values = sorted({
            min(max(v, info.min), info.max)
            for v in (
                info.min, info.min + 1, origin - 2**40, origin - 1, origin,
                origin + 1, origin + 2**40 + 1, origin + 2**53 - 1,
                info.max - 1, info.max,
            )
        })
        space = ModelSpace(dtype, origin)
        got = space.encode(np.array(values, dtype=dtype))
        assert got.dtype == np.float64
        want = [float(max(v - origin, 0)) for v in values]
        assert got.tolist() == want
        # the scalar twin agrees on Python ints and NumPy scalars alike
        assert [space.encode_scalar(v) for v in values] == want
        assert [space.encode_scalar(np.dtype(dtype).type(v))
                for v in values] == want

    @pytest.mark.parametrize("dtype,origin", SPACES)
    def test_encode_does_not_touch_its_input(self, dtype, origin):
        values = np.array([origin], dtype=dtype)
        ModelSpace(dtype, origin).encode(values)
        assert values[0] == origin

    def test_dense_keys_near_2p63_stay_distinct(self):
        keys = np.uint64(2**63 - 1000) + 2 * np.arange(1000, dtype=np.uint64)
        assert np.unique(keys.astype(np.float64)).size < 10
        encoded = ModelSpace.of(keys).encode(keys)
        assert encoded.tolist() == [2.0 * i for i in range(1000)]

    @pytest.mark.parametrize("dtype,origin", SPACES)
    def test_scalar_twin_mirrors_prepared_floats(self, dtype, origin):
        """A float query is encoded as the ceil it is compared as; NaN
        and infinities resolve to a column end instead of raising."""
        keys = np.array([origin], dtype=dtype)
        column = SortedKeyColumn(keys)
        space = ModelSpace.of(keys)
        assert space.origin == origin and type(space.origin) is int
        finite = [-3.5, -0.0, 0.5, 7.0, 1e9 + 0.5, float(origin) / 2]
        compare = column.prepare(np.array(finite)).compare
        batch = space.encode(compare)
        assert [space.encode_scalar(q) for q in finite] == batch.tolist()
        assert space.encode_scalar(float("nan")) == 0.0
        assert space.encode_scalar(float("-inf")) == 0.0
        top = float(np.iinfo(dtype).max - origin)
        assert space.encode_scalar(float("inf")) == top
        assert space.encode_scalar(np.float32("inf")) == top
        # The column's scalar twin of ``prepare``: the value a scalar
        # descent compares, with one past the maximum for "above".
        info = np.iinfo(dtype)
        for q, want in zip(finite, compare.tolist()):
            assert column.prepare_scalar(q) == want
            assert column.prepare_scalar(np.float64(q)) == want
        assert column.prepare_scalar(float("nan")) == info.min
        assert column.prepare_scalar(float("-inf")) == info.min
        assert column.prepare_scalar(float("inf")) == int(info.max) + 1
        top_key = np.dtype(dtype).type(info.max)
        assert column.prepare_scalar(top_key) == int(info.max)

    def test_python_ints_beyond_64_bits(self):
        """Clamped into the key dtype, like a prepared batch."""
        space = ModelSpace(np.int64, I64.min)
        assert space.encode_scalar(2**63) == float(2**64 - 1)
        assert space.encode_scalar(10**400) == float(2**64 - 1)
        assert space.encode_scalar(-(10**400)) == 0.0
        space = ModelSpace(np.uint64, 5)
        assert space.encode_scalar(2**64 + 5) == float(U64.max - 5)
        assert space.encode_scalar(2**63 + 5) == float(2**63)

    def test_float_columns_keep_origin_zero(self):
        keys = np.array([-2.5, 1e300])
        space = ModelSpace.of(keys)
        assert space.origin == 0
        assert space.encode(keys).tolist() == keys.tolist()
        assert space.encode_scalar(-2.5) == -2.5
        assert space.encode(np.float32([1.5])).dtype == np.float64
        assert ModelSpace.of(np.empty(0, dtype=np.int64)).origin == 0

    @pytest.mark.parametrize("dtype,origin", [
        (np.int64, 2**63), (np.int64, -2**63 - 1), (np.uint64, -1),
        (np.uint64, 2**64), (np.int64, 1.0), (np.int64, "7"),
        (np.int64, None), (np.int64, True), (np.int64, np.int64(3)),
        (np.float64, 1),
    ])
    def test_rejects_origin_outside_the_key_domain(self, dtype, origin):
        with pytest.raises(ValueError):
            ModelSpace(dtype, origin)

    def test_prepared_batch_routes_through_plans_with_other_origins(self):
        """Nothing per-plan is cached on the batch: one prepared batch
        serves two columns of the same dtype with different origins."""
        rng = np.random.default_rng(9)
        a = np.int64(2**62) + np.cumsum(rng.integers(1, 4, 3_000))
        b = a - np.int64(2**61)
        probes = np.concatenate([a[::7], b[::7], a[:3] - 1])
        ia = RecursiveModelIndex(a, stage_sizes=(1, 16))
        ib = RecursiveModelIndex(b, stage_sizes=(1, 16))
        qb = ia._column.prepare(probes)
        assert ib._column.prepare(qb) is qb
        for index, keys in ((ia, a), (ib, b), (ia, a)):
            np.testing.assert_array_equal(
                index._plan.lookup_batch(qb, sort=False),
                np.searchsorted(keys, probes),
            )


class TestNarrowOffsets:
    @pytest.mark.parametrize("bound,dtype", [
        (0, np.int8), (127, np.int8), (128, np.int16), (32_767, np.int16),
        (32_768, np.int32), (2**31 - 1, np.int32), (2**31, np.int64),
    ])
    def test_narrowest_dtype_holding_both_tables(self, bound, dtype):
        lo, hi = narrow_offsets(
            np.array([1.0, bound]), np.array([-float(bound), 0.0])
        )
        assert lo.dtype == hi.dtype == np.dtype(dtype)
        assert lo.tolist() == [1, bound] and hi.tolist() == [-bound, 0]

    def test_rounds_outward(self):
        lo, hi = narrow_offsets(np.array([2.25]), np.array([-2.25]))
        assert (lo.tolist(), hi.tolist()) == ([3], [-3])

    def test_empty_and_non_finite(self):
        lo, hi = narrow_offsets(np.zeros(0), np.zeros(0))
        assert lo.dtype == hi.dtype == np.int8
        for bad in (np.nan, np.inf, -np.inf, 2.0**63):
            with pytest.raises(ValueError):
                narrow_offsets(np.array([bad]), np.array([0.0]))

    def test_plan_windows_survive_int8_tables(self):
        """``lo - hi`` of two int8 tables would wrap; the index widens
        before subtracting."""
        keys = np.arange(0, 4_000, dtype=np.int64) ** 2
        index = RecursiveModelIndex(keys, stage_sizes=(1, 64))
        plan = index._plan
        assert plan.lo_offsets.dtype == plan.hi_offsets.dtype == np.int8
        widest = max(
            int(lo) - int(hi)
            for lo, hi in zip(plan.lo_offsets, plan.hi_offsets)
        )
        from repro.core import CompiledPlanIndex

        assert widest > 127
        # the RMI and the base both read the widened offset tables
        assert index.max_error_window == widest
        assert CompiledPlanIndex.max_error_window.fget(index) == widest
        assert CompiledPlanIndex.mean_error_window.fget(index) > 0


class TestEmptyColumn:
    def test_empty_column_all_primitives(self):
        column = SortedKeyColumn(np.empty(0, dtype=np.int64))
        qb = column.prepare(np.array([1.0, 2.0]))
        np.testing.assert_array_equal(column.lower_bounds(qb), [0, 0])
        np.testing.assert_array_equal(
            column.contains_at(qb, np.zeros(2, dtype=np.int64)),
            [False, False],
        )
        np.testing.assert_array_equal(
            column.upper_bounds(qb, np.zeros(2, dtype=np.int64)), [0, 0]
        )
