"""Unit tests for the learned string index (Sections 3.5, 3.7.2)."""

import bisect

import numpy as np
import pytest

from oracles import web_paths
from repro.core import StringRMI
from repro.data import string_dataset


def probes_for(keys, rng, count=150):
    present = [keys[i] for i in rng.integers(0, len(keys), count)]
    absent = [k + "~" for k in present[:40]]
    absent += ["", "\x7f\x7f", keys[0][:-1], keys[-1] + "z"]
    return present + absent


class TestConstruction:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            StringRMI(["b", "a"])

    def test_rejects_bad_leaves(self):
        with pytest.raises(ValueError):
            StringRMI(["a"], num_leaves=0)

    @pytest.mark.parametrize("strategy", ["exponential", "bogus"])
    def test_rejects_unsupported_search_strategy(self, strategy):
        """Only the string searches exist; any other name would run
        plain binary search under a name it does not have."""
        with pytest.raises(ValueError, match="biased_quaternary"):
            StringRMI(["a", "b"], num_leaves=2, search_strategy=strategy)

    def test_empty(self):
        index = StringRMI([], num_leaves=4)
        assert index.lookup("anything") == 0

    def test_single(self):
        index = StringRMI(["hello"], num_leaves=4)
        assert index.lookup("a") == 0
        assert index.lookup("hello") == 0
        assert index.lookup("z") == 1

    @pytest.mark.parametrize("keys", [[], ["only"]], ids=["empty", "single"])
    def test_tiny_indexes_read_like_bisect(self, keys):
        index = StringRMI(keys, num_leaves=4)
        for q in ["", "a", "only", "zz"]:
            assert index.lookup(q) == bisect.bisect_left(keys, q), q
            assert index.upper_bound(q) == bisect.bisect_right(keys, q), q
            assert index.contains(q) == (q in keys), q
        assert index.range_query("", "zz") == keys


class TestLookupCorrectness:
    def test_document_ids_linear_root(self, strings_small, rng):
        index = StringRMI(strings_small, num_leaves=100)
        for q in probes_for(strings_small, rng):
            assert index.lookup(q) == bisect.bisect_left(strings_small, q), q

    def test_web_paths(self, rng):
        keys = web_paths(2_000, seed=8)
        index = StringRMI(keys, num_leaves=64)
        for q in probes_for(keys, rng):
            assert index.lookup(q) == bisect.bisect_left(keys, q)

    def test_mlp_root(self, strings_small, rng):
        index = StringRMI(
            strings_small, num_leaves=100, hidden=(8,), epochs=8
        )
        for q in probes_for(strings_small, rng, count=80):
            assert index.lookup(q) == bisect.bisect_left(strings_small, q)

    @pytest.mark.parametrize(
        "strategy", ["binary", "biased_binary", "biased_quaternary"]
    )
    def test_search_strategies(self, strategy, strings_small, rng):
        index = StringRMI(
            strings_small, num_leaves=100, search_strategy=strategy
        )
        for q in probes_for(strings_small, rng, count=100):
            assert index.lookup(q) == bisect.bisect_left(strings_small, q)

    def test_hybrid_fallback(self, strings_small, rng):
        index = StringRMI(strings_small, num_leaves=50, hybrid_threshold=16)
        assert index.replaced_leaf_count > 0
        for q in probes_for(strings_small, rng):
            assert index.lookup(q) == bisect.bisect_left(strings_small, q)

    @pytest.mark.parametrize("hybrid_threshold", [None, 1])
    def test_contains_matches_membership(
        self, strings_small, hybrid_threshold, rng
    ):
        """With no leaf replaced, and with every leaf replaced by a
        B-Tree."""
        index = StringRMI(
            strings_small, num_leaves=50, hybrid_threshold=hybrid_threshold
        )
        members = set(strings_small)
        for q in probes_for(strings_small, rng, count=100):
            assert index.lookup(q) == bisect.bisect_left(strings_small, q), q
            assert index.contains(q) == (q in members), q

    def test_contains(self, strings_small):
        index = StringRMI(strings_small, num_leaves=32)
        assert index.contains(strings_small[7])
        assert not index.contains(strings_small[7] + "x")


class TestBounds:
    def test_windows_contain_stored_keys(self, strings_small):
        index = StringRMI(strings_small, num_leaves=64)
        for i in range(0, len(strings_small), 31):
            _est, lo, hi = index.predict(strings_small[i])
            assert lo <= i < hi

    def test_range_query(self, strings_small):
        index = StringRMI(strings_small, num_leaves=64)
        lo_key = strings_small[100]
        hi_key = strings_small[200]
        expected = strings_small[100:201]
        assert index.range_query(lo_key, hi_key) == expected

    def test_range_query_matches_bisect(self, strings_small, rng):
        index = StringRMI(strings_small, num_leaves=50)
        lows = list(rng.choice(strings_small, 40)) + ["", "zzz"]
        highs = list(rng.choice(strings_small, 40)) + ["zzz", ""]
        for lo, hi in zip(lows, highs):
            want = strings_small[
                bisect.bisect_left(strings_small, lo):
                bisect.bisect_right(strings_small, hi)
            ]
            assert index.range_query(lo, hi) == want, (lo, hi)

    def test_range_query_empty(self, strings_small):
        index = StringRMI(strings_small, num_leaves=16)
        assert index.range_query("z", "a") == []


class TestAccounting:
    def test_hybrid_grows_size(self, strings_small):
        pure = StringRMI(strings_small, num_leaves=50)
        hybrid = StringRMI(strings_small, num_leaves=50, hybrid_threshold=16)
        assert hybrid.size_bytes() > pure.size_bytes()

    def test_mlp_root_larger_than_linear(self, strings_small):
        linear = StringRMI(strings_small, num_leaves=50)
        mlp = StringRMI(strings_small, num_leaves=50, hidden=(16,), epochs=2)
        assert mlp.size_bytes() > linear.size_bytes()

    def test_model_op_count(self, strings_small):
        index = StringRMI(strings_small, num_leaves=10, max_length=24)
        assert index.model_op_count() > 24

    def test_stats(self, strings_small, rng):
        index = StringRMI(strings_small, num_leaves=32)
        index.stats.reset()
        for q in [strings_small[i] for i in rng.integers(0, len(strings_small), 40)]:
            index.lookup(q)
        assert index.stats.lookups == 40
        assert index.stats.comparisons > 0


#: (comparisons, window_total, fixups) of the 400 lookups of
#: ``test_golden_counts``, recorded before the string index moved onto
#: the shared Section 3.4 lookup.  Biased quaternary is the one entry
#: that moved: it spent its 3-comparison round on windows of three
#: slots or fewer too (2785 and 403 comparisons), which the one-round
#: schedule of ``repro.core.search`` leaves to binary search.
GOLDEN_COUNTS = {
    ("binary", None): (2337, 29040, 0),
    ("biased_binary", None): (2313, 29040, 0),
    ("biased_quaternary", None): (2775, 29040, 0),
    ("binary", 16): (299, 1407, 0),
    ("biased_binary", 16): (302, 1407, 0),
    ("biased_quaternary", 16): (393, 1407, 0),
}


@pytest.mark.parametrize(
    "strategy, hybrid_threshold", sorted(GOLDEN_COUNTS, key=str)
)
def test_golden_counts(strings_small, strategy, hybrid_threshold):
    """The linear root's search work on 300 present and 100 absent
    probes, pinned: the shared lookup must spend what the string
    index's own lookup spent."""
    index = StringRMI(
        strings_small,
        num_leaves=300,
        search_strategy=strategy,
        hybrid_threshold=hybrid_threshold,
    )
    rng = np.random.default_rng(36)
    picks = rng.integers(0, len(strings_small), 300)
    present = [strings_small[i] for i in picks]
    for q in present + [k + "~" for k in present[:100]]:
        index.lookup(q)
    stats = index.stats
    got = (stats.comparisons, stats.window_total, stats.fixups)
    assert got == GOLDEN_COUNTS[strategy, hybrid_threshold]
