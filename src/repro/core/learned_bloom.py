"""Learned Bloom filters (Section 5).

Two constructions from the paper, both preserving the zero-false-
negative guarantee of existence indexes:

* :class:`LearnedBloomFilter` (Section 5.1.1) — a binary classifier
  ``f`` with threshold tau plus an **overflow Bloom filter** over the
  classifier's false negatives ``K- = {x in K | f(x) < tau}``.  Query:
  if ``f(x) >= tau`` report present, else consult the overflow filter.
  Overall FPR is ``FPR_tau + (1 - FPR_tau) * FPR_B``; following the
  paper we set both budgets to ``p*/2`` and tune tau on a held-out
  non-key validation set.
* :class:`ModelHashBloomFilter` (Section 5.1.2 / Appendix E) — the
  classifier output is discretized into an ``m``-bit bitmap,
  ``M[floor(f(x) * m)] = 1`` for keys; a query must hit a set bitmap
  bit **and** pass an auxiliary standard Bloom filter sized for
  ``FPR_B = p* / FPR_m``.

The classifier is pluggable; the paper's GRU
(:class:`repro.models.gru.GRUClassifier`) is the default for URL keys.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..bloom.standard import BloomFilter

__all__ = ["LearnedBloomFilter", "ModelHashBloomFilter", "ThresholdTuning"]


@dataclass(frozen=True)
class ThresholdTuning:
    """Record of how tau was chosen (reported by benchmarks)."""

    tau: float
    target_model_fpr: float
    validation_fpr: float
    false_negative_rate: float


def _tune_threshold(
    scores_nonkeys: np.ndarray, target_fpr: float
) -> float:
    """Smallest tau achieving ``FPR <= target`` on validation non-keys.

    FPR_tau = |{u : f(u) > tau}| / |U|; choosing tau as the
    (1 - target) quantile of non-key scores achieves it exactly up to
    ties.
    """
    if scores_nonkeys.size == 0:
        return 0.5
    if not 0.0 < target_fpr < 1.0:
        raise ValueError("target_fpr must be in (0, 1)")
    tau = float(np.quantile(scores_nonkeys, 1.0 - target_fpr))
    return min(max(tau, 0.0), 1.0)


class LearnedBloomFilter:
    """Classifier + overflow filter with zero false negatives.

    Parameters
    ----------
    model:
        Trained classifier exposing ``predict_proba(list[str]) ->
        array`` and ``predict_proba_one(str) -> float`` (and ideally
        ``size_bytes()``), e.g. :class:`repro.models.gru.GRUClassifier`.
    keys:
        The key set K; membership queries for these always return True.
    validation_nonkeys:
        Held-out non-keys used to tune tau (the paper's U~).
    target_fpr:
        Overall FPR budget p*; split per the paper as
        FPR_tau = FPR_B = p*/2 (overridable via ``model_fpr_share``).
    """

    def __init__(
        self,
        model,
        keys: list[str],
        validation_nonkeys: list[str],
        target_fpr: float = 0.01,
        *,
        model_fpr_share: float = 0.5,
    ):
        if not 0.0 < target_fpr < 1.0:
            raise ValueError("target_fpr must be in (0, 1)")
        if not 0.0 < model_fpr_share < 1.0:
            raise ValueError("model_fpr_share must be in (0, 1)")
        self.model = model
        self.target_fpr = float(target_fpr)
        model_budget = target_fpr * model_fpr_share
        overflow_budget = target_fpr * (1.0 - model_fpr_share)

        val_scores = np.asarray(model.predict_proba(validation_nonkeys))
        self.tau = _tune_threshold(val_scores, model_budget)
        validation_fpr = (
            float((val_scores > self.tau).mean()) if val_scores.size else 0.0
        )

        key_scores = np.asarray(model.predict_proba(keys))
        false_negatives = [
            key for key, score in zip(keys, key_scores) if score <= self.tau
        ]
        self.false_negative_rate = (
            len(false_negatives) / len(keys) if keys else 0.0
        )
        # Overflow filter sized for the spill-over keys only — this is
        # why the construction saves memory: it "scales with the FNR",
        # not with |K|.
        self.overflow = BloomFilter.for_capacity(
            max(len(false_negatives), 1), overflow_budget
        )
        self.overflow.add_batch(false_negatives)
        self.tuning = ThresholdTuning(
            tau=self.tau,
            target_model_fpr=model_budget,
            validation_fpr=validation_fpr,
            false_negative_rate=self.false_negative_rate,
        )

    def __contains__(self, key: str) -> bool:
        if self.model.predict_proba_one(key) > self.tau:
            return True
        return key in self.overflow

    def contains_batch(self, keys: list[str]) -> np.ndarray:
        """Vectorized membership: batched model scores, and only the
        sub-threshold minority consults the overflow filter (batched)."""
        keys = list(keys)
        scores = np.asarray(self.model.predict_proba(keys))
        out = scores > self.tau
        below = np.nonzero(~out)[0]
        if below.size:
            out[below] = self.overflow.contains_batch(
                [keys[i] for i in below]
            )
        return out

    def measured_fpr(self, test_nonkeys: list[str]) -> float:
        if not test_nonkeys:
            return 0.0
        return float(self.contains_batch(test_nonkeys).mean())

    def size_bytes(self) -> int:
        model_bytes = (
            self.model.size_bytes() if hasattr(self.model, "size_bytes") else 0
        )
        return model_bytes + self.overflow.size_bytes()

    def __repr__(self) -> str:
        return (
            f"LearnedBloomFilter(tau={self.tau:.4f}, "
            f"fnr={self.false_negative_rate:.1%}, "
            f"size={self.size_bytes()}B)"
        )


class ModelHashBloomFilter:
    """Appendix E: classifier output as a Bloom-filter hash function.

    The model maps keys toward high scores and non-keys toward low
    scores, so the discretized bitmap has "lots of collisions among
    keys and ... among non-keys, but few collisions of keys and
    non-keys" (Section 5.1.2).
    """

    def __init__(
        self,
        model,
        keys: list[str],
        validation_nonkeys: list[str],
        target_fpr: float = 0.01,
        *,
        bitmap_bits: int = 100_000,
    ):
        if not 0.0 < target_fpr < 1.0:
            raise ValueError("target_fpr must be in (0, 1)")
        if bitmap_bits < 8:
            raise ValueError("bitmap_bits must be >= 8")
        self.model = model
        self.target_fpr = float(target_fpr)
        self.bitmap_bits = int(bitmap_bits)
        self._bitmap = np.zeros((self.bitmap_bits + 7) // 8, dtype=np.uint8)

        key_scores = np.asarray(model.predict_proba(keys))
        positions = self._discretize(key_scores)
        for pos in positions:
            self._bitmap[pos >> 3] |= 1 << (pos & 7)

        # Measured bitmap FPR on validation non-keys:
        # FPR_m = sum(M[floor(f(x) m)]) / |U~|.
        val_scores = np.asarray(model.predict_proba(validation_nonkeys))
        if val_scores.size:
            val_positions = self._discretize(val_scores)
            hits = sum(
                (self._bitmap[p >> 3] >> (p & 7)) & 1 for p in val_positions
            )
            self.bitmap_fpr = float(hits / val_scores.size)
        else:
            self.bitmap_fpr = 1.0

        # Auxiliary filter at FPR_B = p* / FPR_m (Appendix E), over all
        # keys — both checks must pass, total FPR = FPR_m * FPR_B.
        aux_fpr = min(max(target_fpr / max(self.bitmap_fpr, 1e-9), 1e-6), 0.5)
        self.aux_fpr = aux_fpr
        self.aux = BloomFilter.for_capacity(max(len(keys), 1), aux_fpr)
        self.aux.add_batch(keys)

    def _discretize(self, scores: np.ndarray) -> np.ndarray:
        positions = (scores * self.bitmap_bits).astype(np.int64)
        return np.clip(positions, 0, self.bitmap_bits - 1)

    def _bitmap_hit(self, score: float) -> bool:
        pos = min(max(int(score * self.bitmap_bits), 0), self.bitmap_bits - 1)
        return bool((self._bitmap[pos >> 3] >> (pos & 7)) & 1)

    def __contains__(self, key: str) -> bool:
        if not self._bitmap_hit(self.model.predict_proba_one(key)):
            return False
        return key in self.aux

    def contains_batch(self, keys: list[str]) -> np.ndarray:
        """Batched membership: vectorized bitmap probe, then only the
        bitmap hits consult the auxiliary filter (batched)."""
        keys = list(keys)
        scores = np.asarray(self.model.predict_proba(keys))
        positions = self._discretize(scores)
        out = (
            (self._bitmap[positions >> 3] >> (positions & 7)) & 1
        ).astype(bool)
        hits = np.nonzero(out)[0]
        if hits.size:
            out[hits] = self.aux.contains_batch([keys[i] for i in hits])
        return out

    def measured_fpr(self, test_nonkeys: list[str]) -> float:
        if not test_nonkeys:
            return 0.0
        return float(self.contains_batch(test_nonkeys).mean())

    def size_bytes(self) -> int:
        model_bytes = (
            self.model.size_bytes() if hasattr(self.model, "size_bytes") else 0
        )
        return model_bytes + len(self._bitmap) + self.aux.size_bytes()

    def __repr__(self) -> str:
        return (
            f"ModelHashBloomFilter(m={self.bitmap_bits}, "
            f"bitmap_fpr={self.bitmap_fpr:.4f}, aux_fpr={self.aux_fpr:.4f}, "
            f"size={self.size_bytes()}B)"
        )
