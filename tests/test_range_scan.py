"""The range-scan engine's three primitives against their oracles, and
mixed-dtype endpoints on every range surface.

* :func:`repro.range_scan.assemble_slices` copies a slice of at least
  ``SLICE_COPY_MIN_KEYS`` keys as one block and gathers the shorter
  ones (or copies them too, when there are fewer than
  ``GATHER_MIN_SLICES``); every way it must equal ``np.concatenate``
  of the slices, in the values' own dtype (the tombstone flags are
  bool), and never be a view of the values.
* ``SortedKeyColumn.upper_bounds`` widens a hit by its neighbour and
  searches only inside duplicate runs; it must equal
  ``searchsorted(side="right")``.
* ``merge_scan_results`` over sources listed oldest first must equal
  a dict replay of them, range by range: the last source holding a
  key wins it, and a winning tombstone drops it.
* Endpoint arrays of different dtypes are each prepared against the
  key column: int64 lows with uint64 highs (and the other pairs) must
  not meet in float64, which rounds both beyond 2^53; the writable
  index's scalar range read takes the same endpoints one pair at a
  time.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.btree import (
    BTreeIndex,
    FASTTree,
    FixedSizeBTree,
    HierarchicalLookupTable,
)
from repro.core import (
    HybridIndex,
    RangeScanResult,
    RecursiveModelIndex,
    WritableLearnedIndex,
)
from repro.core.engine import SortedKeyColumn
from repro.dispatch import GATHER_MIN_SLICES, SLICE_COPY_MIN_KEYS
from repro.families import PGMIndex, RadixSplineIndex
from repro.lsm import LearnedLSMStore
from repro.range_scan import assemble_slices, merge_scan_results

COMMON = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

T = SLICE_COPY_MIN_KEYS
K = GATHER_MIN_SLICES
VALUE_DTYPES = (np.int64, np.uint64, np.float64, np.bool_)


def _values(n: int, dtype, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if dtype is np.bool_:
        return rng.random(n) < 0.3
    if dtype is np.uint64:
        return np.uint64(2**64 - 4 * n - 8) + rng.integers(
            0, 4 * n + 1, n
        ).astype(np.uint64)
    if dtype is np.float64:
        out = rng.normal(0, 1e3, n)
        out[::7] = -0.0
        return out
    return rng.integers(-(2**62), 2**62, n, dtype=np.int64)


def _oracle(values, starts, ends):
    parts = [values[s:e] for s, e in zip(starts, ends)]
    lengths = [max(e - s, 0) for s, e in zip(starts, ends)]
    return (
        np.concatenate([values[0:0]] + parts),
        np.concatenate([[0], np.cumsum(lengths, dtype=np.int64)]),
    )


def _check_assembly(values, starts, ends):
    got, offsets = assemble_slices(
        values, np.asarray(starts, dtype=np.int64),
        np.asarray(ends, dtype=np.int64),
    )
    want, want_offsets = _oracle(values, starts, ends)
    assert got.dtype == values.dtype
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(offsets, want_offsets)
    assert offsets.dtype == np.int64
    if got.size:
        assert not np.shares_memory(got, values)


# Slice lengths drawn around every regime the assembly distinguishes.
_lengths = st.one_of(
    st.just(0),
    st.integers(1, T - 1),
    st.sampled_from([T - 1, T, T + 1]),
    st.integers(T, 3 * T),
    st.integers(-T, -1),  # inverted: end before start
)


class TestAssembleSlices:
    @COMMON
    @given(
        n=st.integers(0, 4 * T),
        dtype=st.sampled_from(VALUE_DTYPES),
        data=st.data(),
    )
    def test_matches_concatenated_slices(self, n, dtype, data):
        values = _values(n, dtype, seed=n)
        m = data.draw(st.integers(0, 3 * K))
        starts, ends = [], []
        for _ in range(m):
            length = data.draw(_lengths)
            anchor = data.draw(st.sampled_from(["start", "end", "any"]))
            if anchor == "start":  # touches position 0
                s = 0
            elif anchor == "end":  # touches position n
                s = n - max(length, 0)
            else:
                s = data.draw(st.integers(0, n))
            s = min(max(s, 0), n)
            starts.append(s)
            ends.append(min(max(s + length, 0), n))
        _check_assembly(values, starts, ends)

    @pytest.mark.parametrize("dtype", VALUE_DTYPES)
    @pytest.mark.parametrize(
        "lengths",
        [
            [],
            [0, 0, 0],
            [-5, 0, -T],
            [1, 3, T - 1, 7, T - 1],
            [5] * (K - 1) + [0] * 4,
            [5] * K,
            [1, 3, T - 1, 7] * K,
            [T, 2 * T, 5 * T],
            [T - 1, T, T + 1],
            [T - 1, T, T + 1] * K,
            [T, 1, 0, T, 2, -3, T + 1, T - 1],
            [T, 1, 0, T, 2, -3, T + 1, T - 1] * K,
            [2] * (K - 1) + [T],
            [2] * K + [T],
            [T] + [2] * K,
        ],
        ids=["no_ranges", "all_empty", "inverted", "few_short",
             "under_gather_min", "at_gather_min", "many_short",
             "all_long", "at_threshold", "at_threshold_many", "mixed",
             "mixed_many", "long_last_few_short", "long_last",
             "long_first"],
    )
    def test_regimes(self, dtype, lengths):
        n = 8 * T
        values = _values(n, dtype, seed=len(lengths))
        rng = np.random.default_rng(len(lengths))
        starts = rng.integers(T, 2 * T, len(lengths))
        _check_assembly(values, starts, starts + np.asarray(lengths, int))

    @pytest.mark.parametrize("dtype", VALUE_DTYPES)
    def test_ranges_touching_both_ends(self, dtype):
        n = 3 * T
        values = _values(n, dtype, seed=5)
        _check_assembly(values, [0, n - T, 0, n - 3], [T, n, n, n])
        _check_assembly(values, [0, n - 3], [3, n])


def _upper_bound_check(keys: np.ndarray, queries) -> None:
    column = SortedKeyColumn(keys)
    qb = column.prepare(np.asarray(queries))
    got = column.upper_bounds(qb, column.lower_bounds(qb))
    want = np.searchsorted(keys, np.asarray(queries), side="right")
    np.testing.assert_array_equal(got, want)


class TestUpperBounds:
    @pytest.mark.parametrize("run", [1, 2, 1000])
    def test_duplicate_runs(self, run):
        keys = np.sort(np.concatenate([
            np.arange(0, 4000, 4), np.full(run - 1, 2000), [3999] * run,
        ])).astype(np.int64)
        queries = np.concatenate([keys, keys + 1, keys - 1, [-10, 5000]])
        _upper_bound_check(keys, queries)

    def test_run_at_the_column_end(self):
        keys = np.concatenate([np.arange(100), np.full(500, 100)])
        _upper_bound_check(keys, [98, 99, 100, 101])

    def test_all_equal_column(self):
        keys = np.full(700, 42, dtype=np.int64)
        _upper_bound_check(keys, [41, 42, 43, -(2**63), 2**63 - 1])

    def test_signed_zeros(self):
        keys = np.sort(np.array([-1.5, -0.0, 0.0, -0.0, 0.0, 2.5, 2.5]))
        _upper_bound_check(keys, [-0.0, 0.0, -1.5, 2.5, 1.0, 3.0, -2.0])

    def test_float_queries_on_an_integer_column(self):
        keys = np.repeat(np.arange(0, 200, 2), [1, 2, 3, 300] * 25)
        keys = keys.astype(np.int64)
        queries = [
            -1.5, 0.0, 0.5, 1.9999, 2.0, 2.0000001, 6.0, 6.5, 198.0,
            199.5, 1e30, -1e30, np.inf, -np.inf,
        ]
        _upper_bound_check(keys, queries)

    @COMMON
    @given(
        st.lists(st.integers(-50, 50), min_size=1, max_size=300),
        st.lists(st.integers(-60, 60), min_size=1, max_size=50),
    )
    def test_random_multisets(self, keys, queries):
        _upper_bound_check(np.sort(np.asarray(keys, dtype=np.int64)), queries)


# A source as an LSM holds it: key -> (payload, is a tombstone).
_lsm_sources = st.lists(
    st.dictionaries(
        st.integers(-12, 12),
        st.tuples(st.integers(0, 999), st.booleans()),
        max_size=12,
    ),
    min_size=1,
    max_size=4,
)
_closed_ranges = st.lists(
    st.tuples(st.integers(-14, 14), st.integers(-14, 14)), max_size=6
)


def _scan(source: dict, ranges):
    """``source``'s closed-range scan as a run or the memtable gives
    it: each range ascending, a key at most once per range, and a key
    in every range it falls in."""
    parts = [[k for k in sorted(source) if lo <= k <= hi] for lo, hi in ranges]
    keys = [k for part in parts for k in part]
    offsets = np.zeros(len(ranges) + 1, dtype=np.int64)
    np.cumsum([len(part) for part in parts], out=offsets[1:])
    return (
        RangeScanResult(np.array(keys, dtype=np.int64), offsets),
        np.array([source[k][1] for k in keys], dtype=bool),
        np.array([source[k][0] for k in keys], dtype=np.int64),
    )


class TestMergeScanResults:
    @COMMON
    @given(_lsm_sources, _closed_ranges, st.booleans())
    @example([{5: (1, False)}, {5: (2, True)}, {5: (3, False)}], [(5, 5)], True)
    @example(  # four sources tie on every key of six overlapping ranges
        [{k: (100 * s + k, False) for k in range(-12, 13)} for s in range(4)],
        [(-14, 14)] * 6, False,
    )
    @example(  # keys at both ends of int64
        [{-(2**63): (1, False), 2**63 - 1: (2, False)}, {0: (3, False)}],
        [(-(2**63), 2**63 - 1), (0, 0), (-5, 5)], True,
    )
    @example(  # more ranges than a uint8 range id holds
        [{k: (k, k % 3 == 0) for k in range(-12, 13, 2)}, {0: (7, False)}],
        [(-14, 14), (0, 0), (-3, 9)] * 100, True,
    )
    def test_replays_the_sources_oldest_first(self, sources, ranges, masked):
        """Equal keys in a range keep their source order through the
        stable sort, so the last source holding a key wins it, and a
        winning tombstone drops it; one source is a plain filter."""
        scans = [_scan(source, ranges) for source in sources]
        results = [scan[0] for scan in scans]
        masks = [scan[1] for scan in scans] if masked else None
        merged, payloads = merge_scan_results(
            results, drop_masks=masks, payloads=[scan[2] for scan in scans]
        )
        plain = merge_scan_results(results, drop_masks=masks)
        state = {}
        for source in sources:
            state.update(source)
        want = [
            [k for k in sorted(state)
             if lo <= k <= hi and not (masked and state[k][1])]
            for lo, hi in ranges
        ]
        for got in (merged, plain):
            assert got.values.dtype == got.offsets.dtype == np.int64
            assert [list(r) for r in got] == want
        assert payloads.dtype == np.int64
        assert payloads.tolist() == [state[k][0] for r in want for k in r]

    def test_sources_must_cover_the_same_ranges(self):
        one, two = _scan({}, [(0, 1)])[0], _scan({}, [(0, 1), (2, 3)])[0]
        with pytest.raises(ValueError):
            merge_scan_results([one, two])

    @pytest.mark.parametrize("count", [1, 2])
    def test_payloads_must_parallel_the_values(self, count):
        result = _scan({1: (0, False), 2: (0, False)}, [(0, 9)])[0]
        with pytest.raises(ValueError):
            merge_scan_results(
                [result] * count, payloads=[np.arange(3)] * count
            )


# Per-range key lists as one source's scan holds them: each ascending,
# a key at most once per range.
_range_lists = st.lists(
    st.lists(st.integers(-20, 20), max_size=12, unique=True).map(sorted),
    min_size=0,
    max_size=8,
)


def _source(ranges, seed):
    values = np.asarray([k for r in ranges for k in r], dtype=np.int64)
    offsets = np.zeros(len(ranges) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in ranges], out=offsets[1:])
    rng = np.random.default_rng(seed)
    return (
        RangeScanResult(values=values, offsets=offsets),
        rng.random(values.size) < 0.3,
        rng.integers(0, 1000, values.size),
    )


class TestMergeOneSource:
    @COMMON
    @given(_range_lists, st.booleans(), st.integers(0, 99))
    def test_equals_the_lexsort_path(self, ranges, masked, seed):
        """One source's plain filter equals the several-source sort
        path run on it beside an empty older source."""
        source, mask, payload = _source(ranges, seed)
        m = len(source)
        empty = RangeScanResult(
            values=np.empty(0, dtype=np.int64),
            offsets=np.zeros(m + 1, dtype=np.int64),
        )
        masks = [mask] if masked else None
        got, got_pay = merge_scan_results(
            [source], drop_masks=masks, payloads=[payload]
        )
        want, want_pay = merge_scan_results(
            [empty, source],
            drop_masks=None if masks is None else [None] + masks,
            payloads=[np.empty(0, dtype=payload.dtype), payload],
        )
        for a, b in ((got.values, want.values), (got.offsets, want.offsets),
                     (got_pay, want_pay)):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)
        plain = merge_scan_results([source], drop_masks=masks)
        np.testing.assert_array_equal(plain.values, got.values)
        np.testing.assert_array_equal(plain.offsets, got.offsets)


# -- mixed-dtype endpoints ----------------------------------------------------

BASE = 2**62
KEYS = np.int64(BASE) + 2 * np.arange(2_000, dtype=np.int64)

# (lows, highs) pairs: each covers a short range, an inverted one, a
# range whose ends are stored keys, and one past either end of int64.
ENDPOINTS = {
    ("int64", "uint64"): (
        np.array([BASE + 11, BASE + 21, BASE + 100, -5], dtype=np.int64),
        np.array([BASE + 21, BASE + 11, BASE + 3000, 2**64 - 5],
                 dtype=np.uint64),
    ),
    ("uint64", "int64"): (
        np.array([BASE + 11, BASE + 21, BASE + 100, 0], dtype=np.uint64),
        np.array([BASE + 21, BASE + 11, BASE + 3000, 2**63 - 1],
                 dtype=np.int64),
    ),
    ("int64", "float64"): (
        np.array([BASE + 11, BASE + 2049, BASE + 100, -5], dtype=np.int64),
        # float64 holds BASE + 1024 k exactly.
        np.array([BASE + 2048, BASE + 1024, BASE + 3072, 1e30]),
    ),
}


def _expected(lows, highs):
    stored = KEYS.tolist()
    return [
        [k for k in stored if lo <= k <= hi]
        for lo, hi in zip(lows.tolist(), highs.tolist())
    ]


def _store(resident: str) -> LearnedLSMStore:
    store = LearnedLSMStore(memtable_capacity=4 * KEYS.size)
    store.insert_batch(KEYS, KEYS)
    if resident == "run":
        store.flush()
    return store


SURFACES = {
    "rmi": lambda: RecursiveModelIndex(KEYS, stage_sizes=(1, 32)),
    "hybrid": lambda: HybridIndex(KEYS, stage_sizes=(1, 8), threshold=0),
    "pgm": lambda: PGMIndex(KEYS),
    "radix_spline": lambda: RadixSplineIndex(KEYS),
    "btree": lambda: BTreeIndex(KEYS, page_size=16),
    "fixed_btree": lambda: FixedSizeBTree(KEYS, size_budget_bytes=1_024),
    "fast_tree": lambda: FASTTree(KEYS, page_size=16),
    "lookup_table": lambda: HierarchicalLookupTable(KEYS, group=16),
    "lsm_memtable": lambda: _store("memtable"),
    "lsm_run": lambda: _store("run"),
}


@pytest.mark.parametrize("pair", sorted(ENDPOINTS), ids="-".join)
@pytest.mark.parametrize("surface", sorted(SURFACES))
def test_mixed_dtype_endpoints_resolve_exactly(surface, pair):
    lows, highs = ENDPOINTS[pair]
    index = SURFACES[surface]()
    result = index.range_query_batch(lows, highs)
    want = _expected(lows, highs)
    assert [np.asarray(result[i]).tolist() for i in range(len(want))] == want
    if result.starts is not None:
        # Positions too: an inverted range is pinned empty at its low
        # end's position.
        np.testing.assert_array_equal(
            result.ends - result.starts, result.counts
        )
    if surface.startswith("lsm"):
        items, values = index.range_items_batch(lows, highs)
        np.testing.assert_array_equal(items.values, result.values)
        np.testing.assert_array_equal(values, result.values)


@pytest.mark.parametrize("pair", sorted(ENDPOINTS), ids="-".join)
def test_mixed_dtype_endpoints_on_a_writable_delta(pair):
    """The writable index's scalar range read, over main keys and delta
    keys, with each endpoint a NumPy scalar of its array's dtype."""
    index = WritableLearnedIndex(KEYS[::2], stage_sizes=(1, 32))
    for key in KEYS[1::2][:40].tolist():
        index.insert(key)
    lows, highs = ENDPOINTS[pair]
    live = sorted(set(KEYS[::2].tolist()) | set(KEYS[1::2][:40].tolist()))
    for lo, hi in zip(lows, highs):
        want = [k for k in live if lo.item() <= k <= hi.item()]
        assert index.range_query(lo, hi).tolist() == want, (lo, hi)
