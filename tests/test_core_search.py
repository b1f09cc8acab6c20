"""Unit tests for the last-mile search strategies (Section 3.4)."""

import numpy as np
import pytest

from repro.core.search import (
    SEARCH_STRATEGIES,
    Counter,
    biased_binary_search,
    biased_quaternary_search,
)
from repro.btree.search_baselines import binary_search


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
