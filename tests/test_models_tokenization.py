"""Unit tests for string tokenization (Section 3.5)."""

import numpy as np
import pytest

from oracles import lexicographic_scalar, tokenize
from repro.models import lexicographic_scalar_batch, tokenize_batch


class TestTokenize:
    def test_ascii_values(self):
        vec = tokenize("AB", 4)
        np.testing.assert_array_equal(vec, [65.0, 66.0, 0.0, 0.0])

    def test_truncation(self):
        vec = tokenize("abcdef", 3)
        assert vec.shape == (3,)
        np.testing.assert_array_equal(vec, [97.0, 98.0, 99.0])

    def test_empty_string(self):
        np.testing.assert_array_equal(tokenize("", 3), np.zeros(3))

    def test_unicode_clamped(self):
        vec = tokenize("€", 1)  # euro sign, ord > 255
        assert vec[0] == 255.0

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            tokenize("a", 0)

    def test_batch_matches_single(self):
        keys = ["", "a", "hello", "zz"]
        batch = tokenize_batch(keys, 6)
        for row, key in zip(batch, keys):
            np.testing.assert_array_equal(row, tokenize(key, 6))


class TestLexicographicScalar:
    def test_preserves_order(self):
        keys = sorted(
            ["", "a", "aa", "ab", "b", "ba", "zzz", "document-17", "doz"]
        )
        scalars = [lexicographic_scalar(k, 8) for k in keys]
        assert scalars == sorted(scalars)
        # strict where prefixes differ within the window
        assert len(set(scalars)) == len(keys)

    def test_prefix_collapse_beyond_window(self):
        a = lexicographic_scalar("prefix-one", 6)
        b = lexicographic_scalar("prefix-two", 6)
        assert a == b  # identical in the first 6 chars

    def test_range(self):
        for key in ("", "a", "~~~~~~~~"):
            value = lexicographic_scalar(key, 8)
            assert 0.0 <= value < 1.0

    def test_batch_matches_single(self):
        keys = ["alpha", "beta", "", "gamma9", "aa/bb"]
        batch = lexicographic_scalar_batch(keys, 10)
        for key, expected in zip(keys, batch):
            assert lexicographic_scalar(key, 10) == pytest.approx(
                float(expected), rel=1e-12
            )

    def test_sorted_dataset_gives_sorted_scalars(self):
        from repro.data import string_dataset

        keys = string_dataset(500, seed=3)
        scalars = lexicographic_scalar_batch(keys, 16)
        assert np.all(np.diff(scalars) >= 0)
