"""Unit tests for the character-level GRU classifier."""

import numpy as np
import pytest

from oracles import gru_finite_difference_gradients
from repro.models import CharVocabulary, GRUClassifier


class TestCharVocabulary:
    def test_roundtrip_ascii(self):
        vocab = CharVocabulary()
        ids = vocab.encode("abc", 5)
        assert ids.shape == (5,)
        assert ids[3] == CharVocabulary.PAD
        assert ids[0] != ids[1] != ids[2]

    def test_oov(self):
        vocab = CharVocabulary()
        ids = vocab.encode("é", 2)  # non-ASCII
        assert ids[0] == CharVocabulary.OOV

    def test_truncation(self):
        vocab = CharVocabulary()
        ids = vocab.encode("abcdef", 3)
        assert ids.shape == (3,)

    def test_batch_matches_single(self):
        vocab = CharVocabulary()
        batch = vocab.encode_batch(["ab", "xyz"], 4)
        np.testing.assert_array_equal(batch[0], vocab.encode("ab", 4))
        np.testing.assert_array_equal(batch[1], vocab.encode("xyz", 4))


class TestGRUGradients:
    def test_bptt_matches_finite_differences(self):
        gru = GRUClassifier(width=3, embedding_dim=4, max_length=6, seed=0)
        texts = ["abc", "xy", "hello", "q"]
        labels = np.array([1.0, 0.0, 1.0, 0.0])
        ids = gru.vocab.encode_batch(texts, 6)
        _prob, cache = gru._forward(ids)
        analytic = gru._backward(cache, labels)
        numeric = gru_finite_difference_gradients(gru, texts, labels)
        names = ["embedding", "w_x", "w_h", "b", "w_out", "b_out"]
        for name, a, n in zip(names, analytic, numeric):
            scale = max(float(np.abs(n).max()), 1e-8)
            assert np.abs(a - n).max() / scale < 1e-4, name

    def test_padding_is_masked(self):
        """Trailing pad characters must not change the prediction."""
        gru = GRUClassifier(width=4, embedding_dim=4, max_length=8, seed=0)
        a = gru.predict_proba_one("abc")
        ids_padded = gru.vocab.encode("abc", 8)
        assert (ids_padded[3:] == CharVocabulary.PAD).all()
        b = gru.predict_proba_one("abc")
        assert a == pytest.approx(b)


class TestGRUTraining:
    def test_loss_decreases_and_separates(self):
        rng = np.random.default_rng(0)
        positives = ["login" + str(rng.integers(1000)) for _ in range(150)]
        negatives = ["docs" + str(rng.integers(1000)) for _ in range(150)]
        texts = positives + negatives
        labels = np.array([1.0] * 150 + [0.0] * 150)
        gru = GRUClassifier(width=8, embedding_dim=8, max_length=12, seed=0)
        history = gru.fit(
            texts, labels, epochs=6, batch_size=64, learning_rate=5e-3
        )
        assert history[-1] < history[0]
        pos_scores = gru.predict_proba(positives[:50])
        neg_scores = gru.predict_proba(negatives[:50])
        assert pos_scores.mean() > neg_scores.mean() + 0.3

    def test_rejects_mismatched_lengths(self):
        gru = GRUClassifier(width=2, embedding_dim=2, max_length=4)
        with pytest.raises(ValueError):
            gru.fit(["a"], np.array([1.0, 0.0]), epochs=1)

    def test_probabilities_in_unit_interval(self):
        gru = GRUClassifier(width=4, embedding_dim=4, max_length=8, seed=0)
        scores = gru.predict_proba(["anything", "at", "all"])
        assert np.all((scores >= 0.0) & (scores <= 1.0))


class TestGRUAccounting:
    def test_param_count_formula(self):
        gru = GRUClassifier(width=16, embedding_dim=32, max_length=10, seed=0)
        v = gru.vocab.size
        expected = (
            v * 32          # embedding
            + 32 * 48       # w_x
            + 16 * 48       # w_h
            + 48            # b
            + 16            # w_out
            + 1             # b_out
        )
        assert gru.param_count == expected

    def test_size_scales_with_width(self):
        small = GRUClassifier(width=16, embedding_dim=32).size_bytes()
        large = GRUClassifier(width=128, embedding_dim=32).size_bytes()
        assert large > 3 * small

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            GRUClassifier(width=0)
