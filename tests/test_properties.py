"""Property-based tests (hypothesis) for the load-bearing invariants.

These pin the guarantees the paper's constructions depend on:

* every range index agrees with ``searchsorted`` lower-bound semantics
  for arbitrary key sets and arbitrary queries (present or absent);
* RMI error windows always contain the true position of stored keys;
* Bloom filters (standard and learned) never produce false negatives;
* hash maps round-trip arbitrary key/value sets under any hash;
* search strategies agree with bisect for any window and guess;
* tokenized scalar order agrees with lexicographic string order.
"""

import bisect

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import lexicographic_scalar
from repro.bloom import BloomFilter
from repro.btree import (
    BTreeIndex,
    FASTTree,
    FixedSizeBTree,
    HierarchicalLookupTable,
    binary_search,
    exponential_search,
    interpolation_search,
)
from repro.core import RecursiveModelIndex
from repro.core.search import SEARCH_STRATEGIES
from repro.hashmap import ChainingHashMap, GenericCuckooHashMap, RandomHashFunction
from repro.models import LinearModel

COMMON = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

key_sets = st.lists(
    st.integers(min_value=-(10**9), max_value=10**9),
    min_size=1,
    max_size=400,
    unique=True,
).map(lambda xs: np.array(sorted(xs), dtype=np.int64))

queries = st.lists(
    st.integers(min_value=-(2 * 10**9), max_value=2 * 10**9),
    min_size=1,
    max_size=30,
)


def lower_bound(keys: np.ndarray, q) -> int:
    return int(np.searchsorted(keys, q, side="left"))


class TestRangeIndexLowerBound:
    @COMMON
    @given(keys=key_sets, qs=queries, page=st.integers(1, 64))
    def test_btree(self, keys, qs, page):
        tree = BTreeIndex(keys, page_size=page)
        for q in qs:
            assert tree.lookup(float(q)) == lower_bound(keys, q)

    @COMMON
    @given(keys=key_sets, qs=queries, page=st.integers(1, 32))
    def test_fast_tree(self, keys, qs, page):
        tree = FASTTree(keys, page_size=page)
        for q in qs:
            assert tree.lookup(float(q)) == lower_bound(keys, q)

    @COMMON
    @given(keys=key_sets, qs=queries, group=st.integers(2, 64))
    def test_lookup_table(self, keys, qs, group):
        table = HierarchicalLookupTable(keys, group=group)
        for q in qs:
            assert table.lookup(float(q)) == lower_bound(keys, q)

    @COMMON
    @given(keys=key_sets, qs=queries, budget=st.integers(64, 4096))
    def test_fixed_btree(self, keys, qs, budget):
        tree = FixedSizeBTree(keys, size_budget_bytes=budget)
        for q in qs:
            assert tree.lookup(float(q)) == lower_bound(keys, q)

    @COMMON
    @given(
        keys=key_sets,
        qs=queries,
        leaves=st.integers(1, 64),
        strategy=st.sampled_from(
            ["binary", "biased_binary", "biased_quaternary", "exponential"]
        ),
    )
    def test_rmi(self, keys, qs, leaves, strategy):
        index = RecursiveModelIndex(
            keys, stage_sizes=(1, leaves), search_strategy=strategy
        )
        for q in qs:
            assert index.lookup(float(q)) == lower_bound(keys, q)
        # stored keys must also be found exactly
        for i in range(0, keys.size, max(keys.size // 10, 1)):
            assert index.lookup(float(keys[i])) == i


class TestRMIWindows:
    @COMMON
    @given(keys=key_sets, leaves=st.integers(1, 64))
    def test_windows_contain_truth(self, keys, leaves):
        index = RecursiveModelIndex(keys, stage_sizes=(1, leaves))
        for i in range(keys.size):
            _est, lo, hi = index.predict(float(keys[i]))
            assert lo <= i < hi


class TestSearchPrimitives:
    @COMMON
    @given(
        keys=key_sets,
        q=st.integers(-(2 * 10**9), 2 * 10**9),
        guess_frac=st.floats(0.0, 1.0),
    )
    def test_all_searches_agree_with_bisect(self, keys, q, guess_frac):
        expected = lower_bound(keys, q)
        guess = int(guess_frac * (len(keys) - 1))
        assert binary_search(keys, q) == expected
        assert interpolation_search(keys, q) == expected
        assert exponential_search(keys, q, guess) == expected
        for strategy in ("biased_binary", "biased_quaternary"):
            assert (
                SEARCH_STRATEGIES[strategy](keys, q, 0, len(keys), guess)
                == expected
            )

    @COMMON
    @given(
        keys=key_sets,
        lo_frac=st.floats(0.0, 1.0),
        width=st.integers(0, 50),
        q=st.integers(-(2 * 10**9), 2 * 10**9),
    )
    def test_windowed_binary_matches_bisect_window(
        self, keys, lo_frac, width, q
    ):
        n = len(keys)
        lo = int(lo_frac * n)
        hi = min(lo + width, n)
        expected = bisect.bisect_left(keys.tolist(), q, lo, hi)
        assert binary_search(keys, q, lo, hi) == expected


class TestBloomNoFalseNegatives:
    @COMMON
    @given(
        keys=st.lists(st.text(min_size=1, max_size=12), min_size=1, max_size=80, unique=True),
        fpr=st.floats(0.001, 0.2),
    )
    def test_standard_bloom(self, keys, fpr):
        bloom = BloomFilter.for_capacity(len(keys), fpr)
        bloom.add_batch(keys)
        assert all(k in bloom for k in keys)

    @COMMON
    @given(
        n_keys=st.integers(20, 120),
        miss=st.floats(0.0, 0.9),
        target=st.floats(0.005, 0.1),
    )
    def test_learned_bloom(self, n_keys, miss, target):
        from repro.core import LearnedBloomFilter

        keys = [f"key:{i}" for i in range(n_keys)]
        negatives = [f"neg:{i}" for i in range(200)]
        cut = int(n_keys * (1.0 - miss))

        class Model:
            def predict_proba(self, texts):
                return np.array([self.predict_proba_one(t) for t in texts])

            def predict_proba_one(self, text):
                kind, _, num = text.partition(":")
                if kind == "key":
                    return 0.9 if int(num) < cut else 0.1
                return 0.1

            def size_bytes(self):
                return 100

        lbf = LearnedBloomFilter(Model(), keys, negatives, target_fpr=target)
        assert all(k in lbf for k in keys)


class TestHashMapsRoundTrip:
    kv_sets = st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10**12),
            st.integers(min_value=0, max_value=10**9),
        ),
        min_size=1,
        max_size=120,
        unique_by=lambda t: t[0],
    )

    @COMMON
    @given(kv=kv_sets, seed=st.integers(0, 100))
    def test_chaining(self, kv, seed):
        hm = ChainingHashMap(len(kv), RandomHashFunction(len(kv), seed=seed))
        for k, v in kv:
            hm.insert(k, v)
        for k, v in kv:
            assert hm.get(k) == v

    @COMMON
    @given(kv=kv_sets, seed=st.integers(0, 100))
    def test_generic_cuckoo(self, kv, seed):
        cuckoo = GenericCuckooHashMap(len(kv), seed=seed)
        for k, v in kv:
            assert cuckoo.insert(k, v)
        for k, v in kv:
            assert cuckoo.get(k) == v

    @COMMON
    @given(kv=kv_sets, seed=st.integers(0, 100))
    def test_absent_keys_return_none(self, kv, seed):
        hm = ChainingHashMap(len(kv), RandomHashFunction(len(kv), seed=seed))
        present = {k for k, _v in kv}
        for k, v in kv:
            hm.insert(k, v)
        for probe in range(10**12, 10**12 + 50):
            if probe not in present:
                assert hm.get(probe) is None


class TestModelsAndTokens:
    @COMMON
    @given(
        points=st.lists(
            st.tuples(
                st.floats(-1e6, 1e6),
                st.floats(-1e6, 1e6),
            ),
            min_size=2,
            max_size=60,
            unique_by=lambda t: t[0],
        )
    )
    def test_linear_model_residuals_orthogonal(self, points):
        keys = np.array([p[0] for p in points])
        positions = np.array([p[1] for p in points])
        model = LinearModel().fit(keys, positions)
        residuals = model.predict_batch(keys) - positions
        # least-squares optimality: residuals orthogonal to inputs
        scale = max(float(np.abs(positions).max()), 1.0) * max(
            float(np.abs(keys).max()), 1.0
        )
        assert abs(float(residuals.sum())) <= 1e-6 * scale * len(points)

    @COMMON
    @given(
        strings=st.lists(
            st.text(
                alphabet=st.characters(min_codepoint=32, max_codepoint=126),
                max_size=10,
            ),
            min_size=2,
            max_size=40,
        )
    )
    def test_lexicographic_scalar_order(self, strings):
        max_len = 12
        ordered = sorted(strings)
        scalars = [lexicographic_scalar(s, max_len) for s in ordered]
        assert all(a <= b for a, b in zip(scalars, scalars[1:]))


class TestEmpiricalCDFMonotone:
    @COMMON
    @given(keys=key_sets, qs=queries)
    def test_monotone_unit_interval(self, keys, qs):
        from oracles import empirical_cdf

        values = empirical_cdf(keys, np.sort(np.asarray(qs, dtype=np.float64)))
        assert np.all((values >= 0) & (values <= 1))
        assert np.all(np.diff(values) >= 0)
