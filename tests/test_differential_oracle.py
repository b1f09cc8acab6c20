"""Differential fuzz oracle: every index vs a ``bisect`` reference.

Seeded random operation sequences (lookup / upper_bound / contains /
range_query and their batch variants) are replayed against a trivially
correct ``bisect``-based model for every ordered index type, over
duplicate-heavy and adversarially clustered key sets as well as the
usual regimes.  Any divergence — scalar or batch, present or absent
key, inverted or empty range — fails with the op that produced it, so
a regression in the batch engine, the sorted fast path, the window
clamping or the Section 3.4 fix-up surfaces as a concrete
counterexample rather than a statistical anomaly.
"""

from __future__ import annotations

import bisect
import math
import zlib

import numpy as np
import pytest

from repro.btree import (
    BTreeIndex,
    FASTTree,
    FixedSizeBTree,
    HierarchicalLookupTable,
)
from repro.core import (
    CompiledPlan,
    HybridIndex,
    RecursiveModelIndex,
    StringRMI,
    WritableLearnedIndex,
)
from repro.dispatch import SORTED_BATCH_THRESHOLD
from repro.families import PGMIndex, RadixSplineIndex

SEED = 0xD1FF


def case_rng(*case) -> np.random.Generator:
    """A generator seeded from the parametrized id alone (``hash()`` of
    a string is salted per process, so it cannot replay a failure)."""
    return np.random.default_rng(
        SEED + zlib.crc32(repr(case).encode()) % 2**16
    )


def native(q):
    """A NumPy scalar as its Python value: Python ints and floats
    compare exactly, where ``np.float64`` against an int rounds both to
    float64."""
    return q.item() if isinstance(q, np.generic) else q


class Oracle:
    """The reference model: plain ``bisect`` over a sorted list."""

    def __init__(self, keys):
        self.keys = list(keys)

    def lookup(self, q) -> int:
        return bisect.bisect_left(self.keys, native(q))

    def upper_bound(self, q) -> int:
        return bisect.bisect_right(self.keys, native(q))

    def contains(self, q) -> bool:
        pos = self.lookup(q)
        return pos < len(self.keys) and self.keys[pos] == native(q)

    def range_query(self, lo, hi) -> list:
        if native(hi) < native(lo):
            return []
        return self.keys[self.lookup(lo):self.upper_bound(hi)]


# -- numeric indexes -----------------------------------------------------------

def numeric_keys(regime: str, rng: np.random.Generator) -> np.ndarray:
    """Key regimes the engine must survive, duplicates included."""
    if regime == "empty":
        return np.empty(0, dtype=np.int64)
    if regime == "single":
        return np.array([7], dtype=np.int64)
    if regime == "all_duplicates":
        return np.full(500, 123_456, dtype=np.int64)
    if regime == "duplicate_heavy":
        # ~20 distinct values shared by 1.5k keys: long equal runs that
        # cross page/leaf boundaries.
        values = np.sort(rng.integers(0, 10**6, 20))
        return np.sort(rng.choice(values, 1_500))
    if regime == "adversarial_clusters":
        # Tight clusters separated by huge gaps, plus duplicate runs —
        # the worst case for a linear leaf's error window.
        centers = rng.integers(0, 10**12, 8)
        parts = [
            c + rng.integers(0, 50, 200) for c in centers
        ]
        keys = np.sort(np.concatenate(parts))
        return np.sort(np.concatenate([keys, keys[::10]]))
    if regime == "uniform":
        return np.unique(rng.integers(0, 10**9, 2_000))
    # The SOSD-style key shapes of the former benchmark matrix.
    if regime == "heavy_tail":
        # Unclipped lognormal: key gaps span orders of magnitude (the
        # column on which PGM fits one segment per key).
        return np.sort((np.exp(rng.normal(0, 2.0, 3_000)) * 1e7).astype(np.int64))
    if regime == "clustered":
        centers = rng.integers(0, 1 << 48, 4)
        parts = [c + rng.integers(0, 40_000, 750) for c in centers]
        return np.sort(np.concatenate(parts).astype(np.int64))
    if regime == "osm_like":
        # Dense blobs of very different widths over a sparse background.
        centers = rng.integers(1 << 20, 1 << 44, 12)
        widths = np.exp(rng.normal(14, 2, 12))
        parts = [
            (c + rng.normal(0, w, 190)).astype(np.int64)
            for c, w in zip(centers, widths)
        ]
        parts.append(rng.integers(0, 1 << 44, 750).astype(np.int64))
        return np.sort(np.abs(np.concatenate(parts)))
    raise ValueError(regime)


def numeric_probes(keys: np.ndarray, rng: np.random.Generator, n: int) -> np.ndarray:
    """Present keys, neighbours, and far out-of-range probes."""
    parts = [rng.integers(-(10**13), 10**13, n // 4)]
    if keys.size:
        lo, hi = int(keys.min()), int(keys.max())
        parts.append(rng.choice(keys, n // 2))
        parts.append(rng.choice(keys, n // 8) + rng.integers(-2, 3, n // 8))
        parts.append(rng.integers(lo - 5, hi + 6, n // 8))
    probes = np.concatenate(parts).astype(np.float64)
    rng.shuffle(probes)
    return probes


NUMERIC_FACTORIES = {
    "rmi_binary": lambda keys: RecursiveModelIndex(
        keys, stage_sizes=(1, 32), search_strategy="binary"
    ),
    "rmi_quaternary": lambda keys: RecursiveModelIndex(
        keys, stage_sizes=(1, 32), search_strategy="biased_quaternary"
    ),
    # An internal stage compiles into the plan's routing function.
    "rmi_three_stage": lambda keys: RecursiveModelIndex(
        keys, stage_sizes=(1, 4, 32)
    ),
    "rmi_four_stage": lambda keys: RecursiveModelIndex(
        keys, stage_sizes=(1, 4, 8, 64)
    ),
    "hybrid": lambda keys: HybridIndex(keys, stage_sizes=(1, 16), threshold=4),
    "btree": lambda keys: BTreeIndex(keys, page_size=16),
    "fixed_btree": lambda keys: FixedSizeBTree(keys, size_budget_bytes=2_048),
    "lookup_table": lambda keys: HierarchicalLookupTable(keys, group=16),
    "fast_tree": lambda keys: FASTTree(keys, page_size=16),
    # PR 10 families: tiny ε so even the small oracle key sets split
    # into many segments and exercise the routing structures.
    "pgm": lambda keys: PGMIndex(keys, epsilon=4, epsilon_internal=2),
    "radix_spline": lambda keys: RadixSplineIndex(
        keys, epsilon=4, radix_bits=6
    ),
}

NUMERIC_REGIMES = [
    "empty",
    "single",
    "all_duplicates",
    "duplicate_heavy",
    "adversarial_clusters",
    "uniform",
    "heavy_tail",
    "clustered",
    "osm_like",
]


@pytest.mark.parametrize("regime", NUMERIC_REGIMES)
@pytest.mark.parametrize("name", sorted(NUMERIC_FACTORIES))
def test_numeric_index_matches_oracle(name, regime):
    rng = case_rng(name, regime)
    keys = numeric_keys(regime, rng)
    index = NUMERIC_FACTORIES[name](keys)
    oracle = Oracle(int(k) for k in keys)
    probes = numeric_probes(keys, rng, 120)
    # Accounting must not depend on anything a build over data sets
    # up (the empty regime builds nothing).
    assert index.size_bytes() >= 0
    assert type(index).__name__ in repr(index)

    for q in probes:
        q = float(q)
        assert index.lookup(q) == oracle.lookup(q), (name, regime, "lookup", q)
        assert index.contains(q) == oracle.contains(q), (
            name, regime, "contains", q,
        )
        if hasattr(index, "upper_bound"):
            assert index.upper_bound(q) == oracle.upper_bound(q), (
                name, regime, "upper_bound", q,
            )

    # Batch ops replay the same probes plus range endpoints drawn to
    # include inverted, degenerate (low == high) and empty ranges.
    np.testing.assert_array_equal(
        index.lookup_batch(probes),
        np.array([oracle.lookup(float(q)) for q in probes]),
        err_msg=f"{name}/{regime} lookup_batch",
    )
    np.testing.assert_array_equal(
        index.contains_batch(probes),
        np.array([oracle.contains(float(q)) for q in probes]),
        err_msg=f"{name}/{regime} contains_batch",
    )

    lows = numeric_probes(keys, rng, 60)
    highs = lows + rng.integers(-100, 10**6, lows.size)
    result = index.range_query_batch(lows, highs)
    assert len(result) == lows.size
    for i in range(lows.size):
        expected = oracle.range_query(float(lows[i]), float(highs[i]))
        got = result[i]
        assert list(got) == expected, (name, regime, "range", i)
        scalar = index.range_query(float(lows[i]), float(highs[i]))
        assert list(scalar) == expected, (name, regime, "range_scalar", i)


@pytest.mark.parametrize("name", ["rmi_binary", "pgm", "radix_spline"])
def test_zipf_batch_takes_sorted_path_by_heuristic(name, monkeypatch):
    """A hot-key batch of SORTED_BATCH_THRESHOLD queries is sorted and
    deduplicated by the default ``sort=None`` heuristic, bit-identically."""
    rng = case_rng(name, "zipf")
    keys = numeric_keys("heavy_tail", rng)
    index = NUMERIC_FACTORIES[name](keys)
    ranks = np.minimum(rng.zipf(1.3, SORTED_BATCH_THRESHOLD), keys.size) - 1
    queries = rng.permutation(keys)[ranks]
    engine_calls = []
    run_engine = CompiledPlan._engine

    def engine(plan, qb):
        engine_calls.append(qb.size)
        return run_engine(plan, qb)

    monkeypatch.setattr(CompiledPlan, "_engine", engine)
    np.testing.assert_array_equal(
        index.lookup_batch(queries), np.searchsorted(keys, queries, side="left")
    )
    # The engine ran once, on the deduplicated queries.
    assert len(engine_calls) == 1
    assert 0 < engine_calls[0] < queries.size


@pytest.mark.parametrize("name", sorted(NUMERIC_FACTORIES))
def test_python_lists_beyond_int64_prepare_exactly(name):
    """A Python list that NumPy can only hold as float64 or objects — a
    negative int beside one above int64, an int above uint64, a float
    beside a big int — answers what the scalar reads and bisect over
    Python ints answer, not what a float64 cast of the list does."""
    keys = np.array([0, 2**63, 2**63 + 1024], dtype=np.uint64)
    index = NUMERIC_FACTORIES[name](keys)
    values = keys.tolist()
    for probes in (
        [2**63 + 1, -1],
        [2**64 + 5, 3],
        [2**63 + 1, 0.5],
        [2**63 + 1024, np.int64(-5), np.uint64(2**63), -(2**70)],
    ):
        plain = [q.item() if isinstance(q, np.generic) else q for q in probes]
        expected = [bisect.bisect_left(values, q) for q in plain]
        members = [q in values for q in plain]
        assert index.lookup_batch(probes).tolist() == expected, probes
        assert index.contains_batch(probes).tolist() == members, probes
        assert [index.lookup(q) for q in probes] == expected, probes
        assert [index.contains(q) for q in probes] == members, probes


@pytest.mark.parametrize("name", ["rmi_binary", "pgm", "radix_spline"])
def test_batch_size_picks_column_or_engine(
    name, dispatch_as_shipped, engine_counts
):
    """As shipped: an 8-key ``sort=None`` batch is answered by the
    column (no engine work counted), a 100 000-key batch by the engine,
    and ``sort=False`` forces the engine at any size — bit-identically."""
    rng = case_rng(name, "dispatch")
    keys = numeric_keys("heavy_tail", rng)
    index = NUMERIC_FACTORIES[name](keys)
    small = numeric_probes(keys, rng, 8).astype(np.int64)
    large = numeric_probes(keys, rng, 100_000).astype(np.int64)

    def same_as_searchsorted(queries, **how):
        np.testing.assert_array_equal(
            index.lookup_batch(queries, **how),
            np.searchsorted(keys, queries, side="left"),
        )

    same_as_searchsorted(small)
    assert (engine_counts("calls"), engine_counts("column_keys")) == (1, 8)
    same_as_searchsorted(large)
    assert (engine_counts("calls"), engine_counts("column_keys")) == (2, 8)
    same_as_searchsorted(small, sort=False)
    assert (engine_counts("calls"), engine_counts("column_keys")) == (3, 8)


# -- string indexes ------------------------------------------------------------

def random_strings(rng: np.random.Generator, n: int, *, dup_every: int = 3):
    """Short strings over an alphabet holding a NUL and characters
    above 255 — the token clamp's range and the case a fixed-width
    numpy string would truncate."""
    alphabet = list("abcdxyz") + ["\x00", "\u0100", "\U0001F600"]
    out = []
    for _ in range(n):
        length = int(rng.integers(1, 8))
        picks = rng.integers(0, len(alphabet), length)
        out.append("".join(alphabet[i] for i in picks))
    # Duplicate a third of them so equal runs exist.
    out.extend(out[::dup_every])
    return sorted(out)


STRING_FACTORIES = {
    "rmi": lambda keys: StringRMI(keys, num_leaves=24),
    "rmi_hybrid": lambda keys: StringRMI(
        keys, num_leaves=24, hybrid_threshold=1
    ),
    "btree": lambda keys: BTreeIndex(keys, page_size=8),
}


@pytest.mark.parametrize("name", sorted(STRING_FACTORIES))
def test_string_index_matches_oracle(name):
    rng = np.random.default_rng(SEED + 1)
    keys = random_strings(rng, 400)
    keys = sorted(keys + ["a\x00", "a\x00\x00", "\u0100", "\U0001F600"])
    index = STRING_FACTORIES[name](keys)
    oracle = Oracle(keys)
    probes = random_strings(rng, 60) + [
        "", "zzzz", keys[0], keys[-1] + "x", "a", "a\x00", "a\x00\x00\x00",
        "\u0100", "\u00ff", "\U0001F600", "\U0001F601",
    ]
    for q in probes:
        assert index.lookup(q) == oracle.lookup(q), q
        assert index.upper_bound(q) == oracle.upper_bound(q), q
        assert index.contains(q) == oracle.contains(q), q
    lows = random_strings(rng, 40)
    highs = random_strings(rng, 40)
    for lo, hi in zip(lows, highs):
        assert list(index.range_query(lo, hi)) == oracle.range_query(lo, hi)


# -- writable index round-trip ---------------------------------------------------

class SetOracle:
    """Reference for the writable index: a plain Python set."""

    def __init__(self, keys=()):
        self.live = set(int(k) for k in keys)

    def insert(self, k):
        self.live.add(int(k))

    def insert_batch(self, keys):
        self.live.update(int(k) for k in keys)

    def delete(self, k):
        self.live.discard(int(k))

    def contains(self, k) -> bool:
        return int(k) in self.live


def crosscheck_writable(index: WritableLearnedIndex, oracle: SetOracle, rng):
    probes = rng.integers(-100, 20_100, 300)
    # Live-rank lower/upper bounds (delta-merge aware lookup surface).
    live = sorted(oracle.live)
    for q in probes.tolist():
        assert index.contains(q) == oracle.contains(q), q
        assert index.lookup(q) == bisect.bisect_left(live, q), q
        assert index.upper_bound(q) == bisect.bisect_right(live, q), q
    # Float probes read like the ints they equal.
    for q in probes[:20].astype(np.float64).tolist():
        assert index.lookup(q) == bisect.bisect_left(live, q), q
    lows = rng.integers(-100, 20_100, 40)
    highs = lows + rng.integers(-50, 2_000, 40)
    check_writable_ranges(index, live, lows, highs)
    # Half-integer probes and endpoints on both sides of live keys,
    # the smallest (negative) ones included: no key equals one, and
    # each bounds a range where it says — against the delta and the
    # tombstones as against the main index.
    picks = np.array(live[:3] + list(rng.choice(live, 40)), dtype=np.float64)
    halves = np.column_stack([picks - 0.5, picks + 0.5]).ravel()
    assert not any(index.contains(q) for q in halves.tolist())
    lows = halves[:12]
    highs = lows + rng.integers(-50, 2_000, 12)
    check_writable_ranges(index, live, lows, highs)


def check_writable_ranges(index, live: list, lows, highs):
    """Range reads against a bisect slice of ``live``."""
    for i, (lo, hi) in enumerate(zip(lows.tolist(), highs.tolist())):
        expected = live[
            bisect.bisect_left(live, lo):bisect.bisect_right(live, hi)
        ]
        assert list(index.range_query(lo, hi)) == expected, (i, lo, hi)


def test_writable_randomized_round_trip():
    """Interleaved inserts/batch-inserts/deletes/merges vs the oracle.

    The full read surface (``contains``, ``lookup``, ``upper_bound``
    and ``range_query``) is cross-checked before every merge and after
    the last, so a stale delta slice, a leaked tombstone, a bulk insert
    that loses keys, or a fast-path append that corrupts the error
    bounds all surface immediately.
    """
    rng = np.random.default_rng(SEED + 2)
    base = np.unique(rng.integers(0, 20_000, 1_200)).astype(np.int64)
    index = WritableLearnedIndex(
        base,
        stage_sizes=(1, 32),
        merge_threshold=10**9,
    )
    oracle = SetOracle(base)
    for key in (-1, -6):  # negative keys for the half-integer probes
        index.insert(key)
        oracle.insert(key)
    for step in range(1_000):
        op = rng.random()
        key = int(rng.integers(-50, 20_050))
        if op < 0.45:
            index.insert(key)
            oracle.insert(key)
        elif op < 0.55:
            batch = rng.integers(-50, 20_050, int(rng.integers(1, 60)))
            index.insert_batch(batch)
            oracle.insert_batch(batch)
        elif op < 0.9:
            index.delete(key)
            oracle.delete(key)
        else:
            # Read the delta and tombstones unmerged; the next check
            # reads the main index this merge builds.
            crosscheck_writable(index, oracle, rng)
            index.merge()
    index.merge()
    crosscheck_writable(index, oracle, rng)
    assert len(index) == len(oracle.live)


def test_writable_auto_merge_round_trip():
    """Small merge_threshold: merges fire implicitly mid-sequence."""
    rng = np.random.default_rng(SEED + 3)
    index = WritableLearnedIndex(
        np.arange(0, 20_000, 7, dtype=np.int64),
        stage_sizes=(1, 32),
        merge_threshold=64,
    )
    oracle = SetOracle(range(0, 20_000, 7))
    merges_seen = index.merges
    for _ in range(600):
        key = int(rng.integers(-50, 20_050))
        op = rng.random()
        if op < 0.6:
            index.insert(key)
            oracle.insert(key)
        elif op < 0.7:
            # Bulk inserts can blow straight past the threshold; the
            # single trailing merge must still leave state consistent.
            batch = rng.integers(-50, 20_050, int(rng.integers(1, 90)))
            index.insert_batch(batch)
            oracle.insert_batch(batch)
        else:
            index.delete(key)
            oracle.delete(key)
        if index.merges != merges_seen:
            merges_seen = index.merges
            crosscheck_writable(index, oracle, rng)
    assert merges_seen > 0, "threshold never tripped; test is vacuous"
    crosscheck_writable(index, oracle, rng)


# -- exact 64-bit regimes (ISSUE 5) ----------------------------------------------
#
# The float-probe replay above cannot exercise keys beyond 2^53 (the
# probes themselves would round), so these regimes replay with native
# Python-int probes against the same bisect oracle: adjacent keys
# differing by 1 near 2^63, straddling the 2^53 float cliff, across
# every index type plus the paged and writable indexes (the LSM
# holders' 2^53 cluster is ``test_kv_history.py``'s).  The indexes
# also take each pick's neighbouring floats (Python and
# ``np.float64``), which the oracle compares exactly as Python floats.


def huge_oracle_keys(regime: str, rng: np.random.Generator) -> np.ndarray:
    if regime == "straddle_2p53":
        parts = [
            np.arange(2**53 - 300, 2**53 + 300, dtype=np.int64),
            2**53 + np.cumsum(rng.integers(1, 4, 400)),
        ]
        return np.unique(np.concatenate(parts).astype(np.int64))
    if regime == "adjacent_2p63":
        parts = [
            np.arange(2**63 - 500, 2**63 - 1, dtype=np.int64),
            (2**63 - 40_000) + np.cumsum(rng.integers(1, 3, 700)),
        ]
        return np.unique(np.concatenate(parts).astype(np.int64))
    if regime == "strings":
        # 8-byte strings packed big-endian into uint64 (SOSD's string
        # keys; lexicographic order == integer order), ten last letters
        # under each 7-byte prefix so float64 collides the siblings.
        letters = np.array(list(b"abcdefghijklmnopqrstuvwxyz"), dtype=np.uint64)
        chars = letters[rng.integers(0, 26, (300, 8))].repeat(10, axis=0)
        chars[:, 7] = letters[rng.integers(0, 26, 3_000)]
        weights = np.uint64(256) ** np.arange(7, -1, -1, dtype=np.uint64)
        return np.unique(chars @ weights)
    raise ValueError(regime)


def huge_oracle_probes(keys: np.ndarray, rng, n: int) -> list:
    """Python-int probes (picks, their neighbours, the edges), then each
    pick as the nearest float and one ulp either side — as Python floats
    and again as ``np.float64``, whose compares with a stored integer
    round both to float64 unless the index converts it first."""
    lo, hi = int(keys.min()), int(keys.max())
    picks = [int(k) for k in rng.choice(keys, n)]
    out = picks + [min(max(k + int(d), 0), hi) for k, d in
                   zip(picks, rng.integers(-2, 3, n))]
    out += [lo - 1, lo, hi - 1, hi]
    floats = [
        f
        for k in picks
        for f in (
            math.nextafter(float(k), -math.inf),
            float(k),
            math.nextafter(float(k), math.inf),
        )
    ]
    return out + floats + [np.float64(f) for f in floats]


def split_probes(probes: list) -> tuple[list, list]:
    """(the Python-int probes, the float ones)."""
    ints = [q for q in probes if type(q) is int]
    return ints, [q for q in probes if type(q) is not int]


HUGE_ORACLE_REGIMES = ["straddle_2p53", "adjacent_2p63", "strings"]


@pytest.mark.parametrize("regime", HUGE_ORACLE_REGIMES)
@pytest.mark.parametrize("name", sorted(NUMERIC_FACTORIES))
def test_numeric_index_matches_oracle_beyond_2p53(name, regime):
    rng = case_rng(name, regime, 64)
    keys = huge_oracle_keys(regime, rng)
    # The regime is only meaningful if float64 would collide keys.
    assert np.unique(keys.astype(np.float64)).size < keys.size
    index = NUMERIC_FACTORIES[name](keys)
    oracle = Oracle(int(k) for k in keys)
    probes = huge_oracle_probes(keys, rng, 100)

    for q in probes:
        assert index.lookup(q) == oracle.lookup(q), (name, regime, "lookup", q)
        assert index.contains(q) == oracle.contains(q), (
            name, regime, "contains", q,
        )
        if hasattr(index, "upper_bound"):
            assert index.upper_bound(q) == oracle.upper_bound(q), (
                name, regime, "upper_bound", q,
            )

    for group, dtype in zip(split_probes(probes), (np.int64, np.float64)):
        batch = np.array(group, dtype=dtype)
        np.testing.assert_array_equal(
            index.lookup_batch(batch),
            np.array([oracle.lookup(q) for q in group]),
            err_msg=f"{name}/{regime} lookup_batch {dtype}",
        )
        np.testing.assert_array_equal(
            index.contains_batch(batch),
            np.array([oracle.contains(q) for q in group]),
            err_msg=f"{name}/{regime} contains_batch {dtype}",
        )

    ends, float_ends = split_probes(huge_oracle_probes(keys, rng, 30))
    lows = np.array(ends, dtype=np.int64)
    highs = np.minimum(
        lows + rng.integers(0, 200, lows.size), np.int64(2**63 - 1)
    )
    result = index.range_query_batch(lows, highs)
    for i in range(lows.size):
        expected = oracle.range_query(int(lows[i]), int(highs[i]))
        assert list(result[i]) == expected, (name, regime, "range", i)
        scalar = index.range_query(int(lows[i]), int(highs[i]))
        assert list(scalar) == expected, (name, regime, "range_scalar", i)
    # Float endpoints: neighbouring floats of one pick (a range one ulp
    # wide, degenerate or inverted) and of two picks.
    lows, highs = float_ends[0::2], float_ends[1::2]
    result = index.range_query_batch(
        np.array(lows, dtype=np.float64), np.array(highs, dtype=np.float64)
    )
    for i, (low, high) in enumerate(zip(lows, highs)):
        expected = oracle.range_query(low, high)
        assert list(result[i]) == expected, (name, regime, "range_f", i)
        scalar = index.range_query(low, high)
        assert list(scalar) == expected, (name, regime, "range_f_scalar", i)


@pytest.mark.parametrize("regime", HUGE_ORACLE_REGIMES)
def test_paged_index_matches_oracle_beyond_2p53(regime):
    from repro.core import PagedLearnedIndex

    rng = case_rng(regime)
    keys = huge_oracle_keys(regime, rng)
    index = PagedLearnedIndex(keys, page_size=64)
    oracle = Oracle(int(k) for k in keys)
    probes = huge_oracle_probes(keys, rng, 80)
    scalar = np.array([
        page * index.page_size + slot
        for page, slot in (index.lookup(q) for q in probes)
    ])
    np.testing.assert_array_equal(
        scalar, np.array([oracle.lookup(q) for q in probes])
    )
    assert [index.contains(q) for q in probes] == [
        oracle.contains(q) for q in probes
    ]


def test_writable_matches_oracle_beyond_2p53():
    rng = np.random.default_rng(SEED + 64)
    keys = huge_oracle_keys("adjacent_2p63", rng)
    index = WritableLearnedIndex(
        keys[::2].copy(), stage_sizes=(1, 32), merge_threshold=300
    )
    oracle = SetOracle(keys[::2])
    lo, hi = int(keys.min()) - 10, int(keys.max())
    for _ in range(600):
        key = min(int(rng.choice(keys)) + int(rng.integers(-2, 3)), hi)
        op = rng.random()
        if op < 0.5:
            index.insert(key)
            oracle.insert(key)
        elif op < 0.9:
            index.delete(key)
            oracle.delete(key)
        else:
            index.merge()
    live = Oracle(sorted(oracle.live))
    probes = huge_oracle_probes(keys, rng, 150)
    floats = split_probes(probes)[1]
    # With the delta buffer and tombstones live, then merged away.
    for _ in range(2):
        for q in probes:
            assert index.contains(q) == live.contains(q), q
            assert index.lookup(q) == live.lookup(q), q
            assert index.upper_bound(q) == live.upper_bound(q), q
        for low, high in zip(floats[0::2], floats[1::2]):
            assert index.range_query(low, high).tolist() == (
                live.range_query(low, high)
            ), (low, high)
        index.merge()
