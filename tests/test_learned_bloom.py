"""Unit tests for learned Bloom filters (Section 5)."""

import numpy as np
import pytest

from repro.bloom import BloomFilter
from repro.core import LearnedBloomFilter, ModelHashBloomFilter


class ScoreModel:
    """Deterministic stand-in classifier with a controllable score map.

    Scores keys by a hash-free rule so threshold behaviour is exactly
    testable without GRU training time.
    """

    def __init__(self, score_fn, model_bytes: int = 1000):
        self._score = score_fn
        self._bytes = model_bytes

    def predict_proba(self, texts):
        return np.array([self._score(t) for t in texts])

    def predict_proba_one(self, text):
        return float(self._score(text))

    def size_bytes(self):
        return self._bytes


def make_separable_data(n_keys=600, n_negs=900):
    keys = [f"key:{i:05d}" for i in range(n_keys)]
    negatives = [f"neg:{i:05d}" for i in range(n_negs)]
    model = ScoreModel(lambda t: 0.9 if t.startswith("key") else 0.1)
    return keys, negatives, model


def make_noisy_data(n_keys=600, n_negs=1200, miss_rate=0.3, seed=0):
    rng = np.random.default_rng(seed)
    keys = [f"key:{i:05d}" for i in range(n_keys)]
    negatives = [f"neg:{i:05d}" for i in range(n_negs)]
    hard_keys = set(
        rng.choice(n_keys, size=int(n_keys * miss_rate), replace=False)
    )

    def score(text):
        kind, _, num = text.partition(":")
        i = int(num)
        if kind == "key":
            return 0.05 if i in hard_keys else 0.95
        # a sliver of negatives look key-ish (but score strictly below
        # real keys, so threshold ties cannot wipe out the key set)
        return 0.85 if i % 97 == 0 else 0.05

    return keys, negatives, ScoreModel(score)


class TestLearnedBloomFilter:
    def test_zero_false_negatives_always(self):
        keys, negatives, model = make_noisy_data()
        val, test = negatives[:600], negatives[600:]
        lbf = LearnedBloomFilter(model, keys, val, target_fpr=0.02)
        assert all(k in lbf for k in keys)

    def test_fpr_within_budget(self):
        keys, negatives, model = make_noisy_data()
        val, test = negatives[:600], negatives[600:]
        lbf = LearnedBloomFilter(model, keys, val, target_fpr=0.05)
        assert lbf.measured_fpr(test) <= 0.08

    def test_overflow_scales_with_fnr(self):
        keys, negatives, easy_model = make_separable_data()
        val = negatives[:450]
        easy = LearnedBloomFilter(easy_model, keys, val, target_fpr=0.02)
        noisy_keys, noisy_negs, noisy_model = make_noisy_data(miss_rate=0.5)
        noisy = LearnedBloomFilter(
            noisy_model, noisy_keys, noisy_negs[:600], target_fpr=0.02
        )
        assert easy.false_negative_rate < 0.05
        assert noisy.false_negative_rate == pytest.approx(0.5, abs=0.05)
        assert noisy.overflow.size_bytes() > easy.overflow.size_bytes()

    def test_beats_plain_bloom_when_model_separates(self):
        keys, negatives, model = make_separable_data(n_keys=5_000)
        val = negatives[:450]
        small_model = ScoreModel(
            lambda t: 0.9 if t.startswith("key") else 0.1, model_bytes=500
        )
        lbf = LearnedBloomFilter(small_model, keys, val, target_fpr=0.01)
        plain = BloomFilter.for_capacity(len(keys), 0.01)
        assert lbf.size_bytes() < plain.size_bytes()

    def test_tuning_record(self):
        keys, negatives, model = make_noisy_data()
        lbf = LearnedBloomFilter(model, keys, negatives[:600], target_fpr=0.02)
        assert lbf.tuning.target_model_fpr == pytest.approx(0.01)
        assert 0.0 <= lbf.tuning.tau <= 1.0
        assert lbf.tuning.false_negative_rate == lbf.false_negative_rate

    def test_batch_matches_scalar(self):
        keys, negatives, model = make_noisy_data()
        lbf = LearnedBloomFilter(model, keys, negatives[:600], target_fpr=0.02)
        probes = keys[:50] + negatives[600:650]
        batch = lbf.contains_batch(probes)
        for probe, expected in zip(probes, batch):
            assert (probe in lbf) == bool(expected)

    def test_bad_parameters(self):
        keys, negatives, model = make_separable_data(60, 60)
        with pytest.raises(ValueError):
            LearnedBloomFilter(model, keys, negatives, target_fpr=0.0)
        with pytest.raises(ValueError):
            LearnedBloomFilter(
                model, keys, negatives, target_fpr=0.01, model_fpr_share=1.5
            )


class TestModelHashBloomFilter:
    def test_zero_false_negatives(self):
        keys, negatives, model = make_noisy_data()
        mh = ModelHashBloomFilter(
            model, keys, negatives[:600], target_fpr=0.02, bitmap_bits=4096
        )
        assert all(k in mh for k in keys)

    def test_fpr_below_target(self):
        keys, negatives, model = make_noisy_data()
        mh = ModelHashBloomFilter(
            model, keys, negatives[:600], target_fpr=0.05, bitmap_bits=4096
        )
        assert mh.measured_fpr(negatives[600:]) <= 0.08

    def test_bitmap_rejects_low_scores(self):
        keys, negatives, model = make_separable_data()
        mh = ModelHashBloomFilter(
            model, keys, negatives[:450], target_fpr=0.02, bitmap_bits=4096
        )
        # negatives scoring 0.1 land on an unset bitmap region
        assert mh.measured_fpr(negatives[450:]) == 0.0

    def test_batch_matches_scalar(self):
        keys, negatives, model = make_noisy_data()
        mh = ModelHashBloomFilter(
            model, keys, negatives[:600], target_fpr=0.02, bitmap_bits=4096
        )
        probes = keys[:40] + negatives[600:640]
        batch = mh.contains_batch(probes)
        for probe, expected in zip(probes, batch):
            assert (probe in mh) == bool(expected)

    def test_bitmap_and_aux_rates_meet_the_target(self):
        keys, negatives, model = make_noisy_data()
        mh = ModelHashBloomFilter(
            model, keys, negatives[:600], target_fpr=0.02, bitmap_bits=4096
        )
        assert mh.bitmap_fpr * mh.aux_fpr <= 0.021

    def test_bad_parameters(self):
        keys, negatives, model = make_separable_data(60, 60)
        with pytest.raises(ValueError):
            ModelHashBloomFilter(model, keys, negatives, target_fpr=2.0)
        with pytest.raises(ValueError):
            ModelHashBloomFilter(
                model, keys, negatives, target_fpr=0.01, bitmap_bits=2
            )
