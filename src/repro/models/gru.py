"""Character-level GRU classifier (numpy, trained with BPTT).

The paper's learned Bloom filter (Section 5.2) uses "a character-level
RNN (GRU, in particular) to predict which set a URL belongs to", with a
"W-dimensional GRU with an E-dimensional embedding for each character"
— Figure 10 sweeps W in {16, 32, 128} at E = 32.

This module implements that model from scratch:

* character vocabulary over printable ASCII + out-of-vocabulary bucket,
* learned embedding matrix (V x E),
* single GRU layer (update gate z, reset gate r, candidate h~),
* final hidden state -> dense -> sigmoid probability,
* full backpropagation through time, mini-batch Adam,
* model size accounting for the Figure 10 memory-footprint axis
  (float32 storage, matching deployable model formats).

Sequences in a batch are right-padded; padded steps are masked out of
both the forward recurrence and the gradients.
"""

from __future__ import annotations

import numpy as np

__all__ = ["CharVocabulary", "GRUClassifier"]

#: Global gradient-norm bound of each Adam step.
GRAD_CLIP = 5.0

#: Seed of the per-epoch shuffles in ``fit``.
SHUFFLE_SEED = 1

#: Strings per forward pass in ``predict_proba``.
PREDICT_BATCH = 512

#: Bytes per parameter in ``size_bytes``: float32, like a deployed model.
FLOAT_BYTES = 4


class CharVocabulary:
    """Maps characters to dense ids: printable ASCII + <pad> + <oov>."""

    PAD = 0
    OOV = 1

    def __init__(self):
        chars = [chr(c) for c in range(32, 127)]
        self._to_id = {ch: i + 2 for i, ch in enumerate(chars)}
        self.size = len(chars) + 2

    def encode(self, text: str, max_length: int) -> np.ndarray:
        ids = np.full(max_length, self.PAD, dtype=np.int64)
        for i, ch in enumerate(text[:max_length]):
            ids[i] = self._to_id.get(ch, self.OOV)
        return ids

    def encode_batch(self, texts: list[str], max_length: int) -> np.ndarray:
        out = np.full((len(texts), max_length), self.PAD, dtype=np.int64)
        for row, text in enumerate(texts):
            for i, ch in enumerate(text[:max_length]):
                out[row, i] = self._to_id.get(ch, self.OOV)
        return out


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60, 60)))


class GRUClassifier:
    """Embedding -> GRU -> sigmoid binary classifier over strings."""

    def __init__(
        self,
        width: int = 16,
        embedding_dim: int = 32,
        max_length: int = 64,
        seed: int = 0,
    ):
        if width < 1 or embedding_dim < 1 or max_length < 1:
            raise ValueError("width, embedding_dim, max_length must be >= 1")
        self.width = int(width)
        self.embedding_dim = int(embedding_dim)
        self.max_length = int(max_length)
        self.vocab = CharVocabulary()
        rng = np.random.default_rng(seed)
        v, e, h = self.vocab.size, self.embedding_dim, self.width

        def glorot(fan_in: int, fan_out: int) -> np.ndarray:
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            return rng.uniform(-limit, limit, size=(fan_in, fan_out))

        self.embedding = rng.normal(0.0, 0.1, size=(v, e))
        # Gates stacked as [z | r | c] along the output axis (3h wide).
        self.w_x = glorot(e, 3 * h)
        self.w_h = glorot(h, 3 * h)
        self.b = np.zeros(3 * h)
        self.w_out = glorot(h, 1)
        self.b_out = np.zeros(1)
        self._adam: dict | None = None

    # -- parameter plumbing --------------------------------------------------

    def _params(self) -> list[np.ndarray]:
        return [
            self.embedding,
            self.w_x,
            self.w_h,
            self.b,
            self.w_out,
            self.b_out,
        ]

    @property
    def param_count(self) -> int:
        return int(sum(p.size for p in self._params()))

    def size_bytes(self) -> int:
        """Model footprint in float32, like a deployed model."""
        return self.param_count * FLOAT_BYTES

    # -- forward -------------------------------------------------------------

    def _forward(
        self, ids: np.ndarray
    ) -> tuple[np.ndarray, dict]:
        """Run the recurrence; returns (probabilities, cache for BPTT)."""
        batch, steps = ids.shape
        h_dim = self.width
        mask = (ids != CharVocabulary.PAD).astype(np.float64)
        x = self.embedding[ids]  # (batch, steps, E)
        h = np.zeros((batch, h_dim))
        cache = {
            "ids": ids,
            "mask": mask,
            "x": x,
            "h_prev": [],
            "z": [],
            "r": [],
            "c": [],
            "h": [],
        }
        for t in range(steps):
            gates = x[:, t, :] @ self.w_x + self.b
            z = _sigmoid(gates[:, :h_dim] + h @ self.w_h[:, :h_dim])
            r = _sigmoid(
                gates[:, h_dim:2 * h_dim] + h @ self.w_h[:, h_dim:2 * h_dim]
            )
            c = np.tanh(
                gates[:, 2 * h_dim:] + (r * h) @ self.w_h[:, 2 * h_dim:]
            )
            h_new = (1.0 - z) * h + z * c
            m = mask[:, t:t + 1]
            cache["h_prev"].append(h)
            h = m * h_new + (1.0 - m) * h
            cache["z"].append(z)
            cache["r"].append(r)
            cache["c"].append(c)
            cache["h"].append(h)
        logits = h @ self.w_out + self.b_out
        prob = _sigmoid(logits)
        cache["final_h"] = h
        cache["prob"] = prob
        return prob.ravel(), cache

    def predict_proba(self, texts: list[str]) -> np.ndarray:
        """P(key) for each string."""
        out = np.empty(len(texts))
        for start in range(0, len(texts), PREDICT_BATCH):
            chunk = texts[start:start + PREDICT_BATCH]
            ids = self.vocab.encode_batch(chunk, self.max_length)
            prob, _ = self._forward(ids)
            out[start:start + len(chunk)] = prob
        return out

    def predict_proba_one(self, text: str) -> float:
        ids = self.vocab.encode(text, self.max_length).reshape(1, -1)
        prob, _ = self._forward(ids)
        return float(prob[0])

    # -- backward ------------------------------------------------------------

    def _backward(
        self, cache: dict, y: np.ndarray
    ) -> list[np.ndarray]:
        """Full BPTT for mean log-loss; returns grads aligned to _params()."""
        ids = cache["ids"]
        mask = cache["mask"]
        x = cache["x"]
        prob = cache["prob"].ravel()
        batch, steps = ids.shape
        h_dim = self.width

        g_embedding = np.zeros_like(self.embedding)
        g_wx = np.zeros_like(self.w_x)
        g_wh = np.zeros_like(self.w_h)
        g_b = np.zeros_like(self.b)

        # dLoss/dlogit for mean log loss = (p - y) / batch
        dlogit = ((prob - y) / batch).reshape(-1, 1)
        g_wout = cache["final_h"].T @ dlogit
        g_bout = dlogit.sum(axis=0)
        dh = dlogit @ self.w_out.T

        for t in range(steps - 1, -1, -1):
            m = mask[:, t:t + 1]
            z = cache["z"][t]
            r = cache["r"][t]
            c = cache["c"][t]
            h_prev = cache["h_prev"][t]
            # h_t = m*(1-z)*h_prev + m*z*c + (1-m)*h_prev
            dh_new = dh * m
            dh_passthrough = dh * (1.0 - m)
            dz = dh_new * (c - h_prev)
            dc = dh_new * z
            dh_prev = dh_new * (1.0 - z) + dh_passthrough

            dc_raw = dc * (1.0 - c * c)
            dz_raw = dz * z * (1.0 - z)
            dr = (dc_raw @ self.w_h[:, 2 * h_dim:].T) * h_prev
            dh_prev += (dc_raw @ self.w_h[:, 2 * h_dim:].T) * r
            dr_raw = dr * r * (1.0 - r)

            dgates = np.concatenate([dz_raw, dr_raw, dc_raw], axis=1)
            xt = x[:, t, :]
            g_wx += xt.T @ dgates
            g_b += dgates.sum(axis=0)
            g_wh[:, :h_dim] += h_prev.T @ dz_raw
            g_wh[:, h_dim:2 * h_dim] += h_prev.T @ dr_raw
            g_wh[:, 2 * h_dim:] += (r * h_prev).T @ dc_raw

            dxt = dgates @ self.w_x.T
            np.add.at(g_embedding, ids[:, t], dxt)

            dh_prev += dz_raw @ self.w_h[:, :h_dim].T
            dh_prev += dr_raw @ self.w_h[:, h_dim:2 * h_dim].T
            dh = dh_prev

        return [g_embedding, g_wx, g_wh, g_b, g_wout, g_bout]

    # -- training ------------------------------------------------------------

    def fit(
        self,
        texts: list[str],
        labels: np.ndarray,
        *,
        epochs: int = 3,
        batch_size: int = 128,
        learning_rate: float = 3e-3,
    ) -> list[float]:
        """Mini-batch Adam over (texts, binary labels); returns loss history."""
        labels = np.asarray(labels, dtype=np.float64).ravel()
        if len(texts) != labels.size:
            raise ValueError("texts and labels length mismatch")
        ids_all = self.vocab.encode_batch(texts, self.max_length)
        rng = np.random.default_rng(SHUFFLE_SEED)
        n = len(texts)
        params = self._params()
        self._adam = {
            "m": [np.zeros_like(p) for p in params],
            "v": [np.zeros_like(p) for p in params],
            "t": 0,
        }
        history: list[float] = []
        for _ in range(epochs):
            order = rng.permutation(n)
            total_loss = 0.0
            batches = 0
            for start in range(0, n, batch_size):
                idx = order[start:start + batch_size]
                ids = ids_all[idx]
                y = labels[idx]
                prob, cache = self._forward(ids)
                eps = 1e-12
                loss = float(
                    -np.mean(
                        y * np.log(prob + eps)
                        + (1 - y) * np.log(1 - prob + eps)
                    )
                )
                grads = self._backward(cache, y)
                self._adam_step(grads, learning_rate)
                total_loss += loss
                batches += 1
            history.append(total_loss / max(batches, 1))
        return history

    def _adam_step(self, grads: list[np.ndarray], lr: float) -> None:
        norm = np.sqrt(sum(float((g * g).sum()) for g in grads))
        if norm > GRAD_CLIP:
            grads = [g * (GRAD_CLIP / norm) for g in grads]
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        self._adam["t"] += 1
        t = self._adam["t"]
        for i, (param, grad) in enumerate(zip(self._params(), grads)):
            m = self._adam["m"][i]
            v = self._adam["v"][i]
            m *= beta1
            m += (1 - beta1) * grad
            v *= beta2
            v += (1 - beta2) * grad * grad
            m_hat = m / (1 - beta1**t)
            v_hat = v / (1 - beta2**t)
            param -= lr * m_hat / (np.sqrt(v_hat) + eps)
