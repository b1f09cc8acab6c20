"""Unit tests for the last-mile search strategies (Section 3.4)."""

from bisect import bisect_left, bisect_right

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.search import (
    SEARCH_STRATEGIES,
    Counter,
    biased_binary_search,
    biased_quaternary_search,
    halving_rounds,
    vectorized_bounded_search,
)
from repro.btree.search_baselines import binary_search
from repro.dispatch import COMPACT_MIN_BATCH
from repro.families import RadixSplineIndex


@pytest.fixture(scope="module")
def keys():
    rng = np.random.default_rng(3)
    return np.unique(rng.integers(0, 10**6, size=3_000))


def truth(keys, q):
    return int(np.searchsorted(keys, q, side="left"))


class TestBiasedBinary:
    def test_matches_searchsorted_any_guess(self, keys):
        rng = np.random.default_rng(0)
        n = len(keys)
        for q in np.concatenate(
            [rng.choice(keys, 150), rng.integers(-5, 10**6 + 5, 150)]
        ):
            expected = truth(keys, q)
            for guess in (0, n - 1, expected, rng.integers(0, n)):
                got = biased_binary_search(keys, q, 0, n, int(guess))
                assert got == expected

    def test_perfect_guess_single_comparison_window(self, keys):
        q = int(keys[777])
        counter = Counter()
        biased_binary_search(keys, q, 770, 785, 777, counter)
        # perfect first probe collapses the window immediately
        assert counter.comparisons <= 5

    def test_respects_window(self, keys):
        expected = truth(keys, int(keys[100]))
        got = biased_binary_search(keys, int(keys[100]), 90, 110, 95)
        assert got == expected


class TestBiasedQuaternary:
    def test_matches_searchsorted(self, keys):
        rng = np.random.default_rng(1)
        n = len(keys)
        for q in np.concatenate(
            [rng.choice(keys, 150), rng.integers(-5, 10**6 + 5, 150)]
        ):
            expected = truth(keys, q)
            for sigma in (1, 4, 32):
                got = biased_quaternary_search(
                    keys, q, 0, n, expected, sigma=sigma
                )
                assert got == expected, (q, sigma)

    def test_bad_guess_still_correct(self, keys):
        n = len(keys)
        rng = np.random.default_rng(2)
        for q in rng.choice(keys, 100):
            guess = int(rng.integers(0, n))
            assert biased_quaternary_search(
                keys, int(q), 0, n, guess, sigma=2
            ) == truth(keys, q)

    def test_accurate_guess_cheaper_than_plain_binary(self, keys):
        c_quat, c_bin = Counter(), Counter()
        rng = np.random.default_rng(3)
        for q in rng.choice(keys, 200):
            expected = truth(keys, int(q))
            biased_quaternary_search(
                keys, int(q), 0, len(keys), expected, sigma=2, counter=c_quat
            )
            binary_search(keys, int(q), 0, len(keys), c_bin)
        assert c_quat.comparisons < c_bin.comparisons


class Probes:
    """A key sequence that records every position it is read at."""

    def __init__(self, keys):
        self.keys = keys
        self.at: list[int] = []

    def __len__(self):
        return len(self.keys)

    def __getitem__(self, i):
        self.at.append(i)
        return self.keys[i]


class TestBiasedQuaternarySchedule:
    """One round at guess - sigma, guess, guess + sigma, then binary
    search of the bracket the round picked."""

    @pytest.mark.parametrize(
        "target, bracket",
        [(990, (900, 996)), (1000, (996, 1004)), (1008, (1004, 1012)),
         (1050, (1012, 1100))],
    )
    def test_one_round_then_binary(self, keys, target, bracket):
        q = int(keys[target])
        probes, counter = Probes(keys), Counter()
        got = biased_quaternary_search(probes, q, 900, 1100, 1003, 8, counter)
        assert got == target
        binary, binary_counter = Probes(keys), Counter()
        assert binary_search(binary, q, *bracket, binary_counter) == target
        assert counter.comparisons == 3 + binary_counter.comparisons
        rounds = len(probes.at) - len(binary.at)
        assert set(probes.at[:rounds]) <= {995, 1003, 1011}
        assert probes.at[rounds:] == binary.at

    def test_narrow_window_is_binary(self, keys):
        q = int(keys[501])
        counter, binary_counter = Counter(), Counter()
        assert biased_quaternary_search(keys, q, 500, 503, 501, 1, counter) == 501
        binary_search(keys, q, 500, 503, binary_counter)
        assert counter.comparisons == binary_counter.comparisons


class TestStrategyTable:
    def test_all_strategies_agree(self, keys):
        rng = np.random.default_rng(4)
        n = len(keys)
        for q in np.concatenate(
            [rng.choice(keys, 80), rng.integers(-5, 10**6 + 5, 80)]
        ):
            expected = truth(keys, q)
            for name, search in SEARCH_STRATEGIES.items():
                assert search(keys, q, 0, n, expected) == expected, name


# -- the batch last mile: fixed branch-free rounds ---------------------------


def _sorted_keys(kind: str, n: int, rng) -> np.ndarray:
    """Sorted keys with duplicates: int64 around zero, uint64 just
    below 2**64, float64 rounded to one decimal."""
    if kind == "int64":
        return np.sort(rng.integers(-(n // 2), n // 2 + 1, n))
    if kind == "uint64":
        top = np.uint64(2**64 - 1)
        return np.sort(top - rng.integers(0, n, n).astype(np.uint64))
    return np.sort(np.round(rng.normal(0.0, n / 8, n), 1))


@st.composite
def bounded_batches(draw):
    """Keys, queries in the key dtype and clamped windows
    ``0 <= lo <= hi <= n``: empty windows, windows ending at ``n``,
    queries whose lower bound lies left of ``lo`` or right of ``hi``,
    and optionally one full-column lane among narrow ones, over batches
    on both sides of ``COMPACT_MIN_BATCH``."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["int64", "uint64", "float64"]))
    keys = _sorted_keys(kind, draw(st.integers(1, 3_000)), rng)
    n = keys.size
    lanes = draw(st.sampled_from(
        [1, 2, 7, 64, COMPACT_MIN_BATCH - 1, COMPACT_MIN_BATCH + 5]
    ))
    lo = rng.integers(0, n + 1, lanes)
    hi = np.minimum(lo + rng.integers(0, draw(st.integers(1, 40)), lanes), n)
    hi[rng.random(lanes) < 0.1] = n
    if draw(st.booleans()):
        lo[lanes // 2], hi[lanes // 2] = 0, n
    # Queries aimed inside, left of and right of each window.
    target = np.clip(lo + rng.integers(-3, hi - lo + 4), 0, n - 1)
    queries = keys[target]
    nudge = rng.integers(-1, 2, lanes)
    if kind == "float64":
        queries = queries + nudge * 0.05
    else:
        info = np.iinfo(keys.dtype)
        down = (nudge < 0) & (queries > info.min)
        up = (nudge > 0) & (queries < info.max)
        queries[down] -= 1
        queries[up] += 1
    return keys, queries, lo, hi


def _window_oracle(keys, queries, lo, hi) -> list:
    """Per-lane ``bisect_left`` restricted to ``[lo, hi]``: the lower
    bound where it lies inside the window, else ``lo`` or ``hi``."""
    values, probes = keys.tolist(), queries.tolist()
    return [
        bisect_left(values, probes[i], int(lo[i]), int(hi[i]))
        for i in range(len(probes))
    ]


class TestVectorizedBoundedSearch:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(bounded_batches())
    def test_matches_the_windowed_bisect_oracle(self, batch):
        keys, queries, lo, hi = batch
        got = vectorized_bounded_search(keys, queries, lo, hi)
        assert got.tolist() == _window_oracle(keys, queries, lo, hi)

    def test_a_wide_lane_runs_its_top_rounds_alone(self):
        # A full-column lane beside COMPACT_MIN_BATCH three-slot lanes
        # runs its 21 rounds alone down to the narrow lanes' two.
        keys = np.arange(1 << 20, dtype=np.int64)
        lanes = COMPACT_MIN_BATCH + 1
        lo = np.arange(lanes, dtype=np.int64) * 16
        hi = lo + 3
        lo[7], hi[7] = 0, keys.size
        queries = keys[lo + 2]
        queries[7] = 777_777
        got = vectorized_bounded_search(keys, queries, lo, hi)
        np.testing.assert_array_equal(
            got, np.clip(np.searchsorted(keys, queries), lo, hi)
        )

    @pytest.mark.parametrize("side, bound", [("left", bisect_left),
                                             ("right", bisect_right)])
    def test_halving_rounds_clamp_to_their_span(self, side, bound):
        # From base, `rounds` rounds resolve 2**rounds positions; a
        # probe past the end reads the last key.
        rng = np.random.default_rng(7)
        keys = np.sort(rng.integers(0, 50, 200)).astype(np.float64)
        values = keys.tolist()
        queries = rng.integers(-5, 56, 500).astype(np.float64)
        base = rng.integers(0, keys.size + 1, 500)
        for rounds in (0, 1, 3, 9):
            got = halving_rounds(keys, queries, base.copy(), rounds, side)
            for q, b, g in zip(queries.tolist(), base.tolist(), got.tolist()):
                at = bound(values, q)
                span_end = b + (1 << rounds) - 1
                assert g == min(max(at if at < keys.size else span_end, b),
                                span_end)

    def test_radix_spline_knot_route_is_bisect_right(self):
        rng = np.random.default_rng(5)
        keys = np.unique(rng.lognormal(0.0, 2.0, 20_000) * 1e6).astype(
            np.int64
        )
        index = RadixSplineIndex(keys, epsilon=8)
        knots = index._knots.tolist()
        qf = np.concatenate([
            index._knots, index._knots + 0.5, index._knots - 0.5,
            rng.uniform(-1e6, knots[-1] * 1.5, 5_000),
        ])
        got = index._route_knots(qf)
        want = [max(bisect_right(knots, q) - 1, 0) for q in qf.tolist()]
        assert got.tolist() == want
