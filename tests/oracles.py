"""Reference implementations and generators that only tests use.

Each definition here is the plain, per-item form of something the
product computes in bulk, a numerical check of something it computes
analytically (finite-difference gradients), or test data no product
path consumes — kept as an oracle rather than as product code.  Import
it from a test module as ``from oracles import ...``.
"""

from __future__ import annotations

import numpy as np

from repro.models.cdf import ErrorStats


def empirical_cdf(sorted_keys: np.ndarray, query: np.ndarray) -> np.ndarray:
    """F_hat(q) = |{k <= q}| / N for each query value (Section 2.2,
    Appendix A): the function every CDF model approximates."""
    sorted_keys = np.asarray(sorted_keys)
    query = np.asarray(query)
    if sorted_keys.size == 0:
        return np.zeros(query.shape, dtype=np.float64)
    counts = np.searchsorted(sorted_keys, query, side="right")
    return counts / float(sorted_keys.size)


def error_stats(predictions: np.ndarray, truths: np.ndarray) -> ErrorStats:
    """:class:`ErrorStats` of one model from parallel prediction/truth
    arrays — the per-leaf form of
    :func:`repro.models.cdf.segmented_error_arrays`."""
    predictions = np.asarray(predictions, dtype=np.float64)
    truths = np.asarray(truths, dtype=np.float64)
    if predictions.shape != truths.shape:
        raise ValueError("prediction/truth shape mismatch")
    if predictions.size == 0:
        return ErrorStats(0, 0, 0.0, 0.0, 0)
    signed = predictions - truths
    return ErrorStats(
        min_error=int(np.floor(signed.min())),
        max_error=int(np.ceil(signed.max())),
        mean_absolute=float(np.abs(signed).mean()),
        std=float(signed.std()),
        count=int(signed.size),
    )


def stage_assignments(index, keys: np.ndarray) -> list[np.ndarray]:
    """Which model of each stage below a
    :class:`~repro.core.RecursiveModelIndex`'s root every stored key
    trains: ``floor(f(x) · M_l / n)``, clamped, with ``f`` the root and
    then each internal stage's affine model — the routing the build
    does, written out."""
    n = max(keys.size, 1)
    x = index._space.encode(keys)
    pred = np.asarray(index._root_model.predict_batch(x), dtype=np.float64)
    stages = index._internal_stages + [(index.stage_sizes[-1], None, None)]
    out = []
    for m_l, slopes, intercepts in stages:
        j = np.clip(np.floor(pred * m_l / n), 0, m_l - 1).astype(np.int64)
        out.append(j)
        if slopes is not None:
            pred = slopes[j] * x + intercepts[j]
    return out


def max_absolute(stats: ErrorStats) -> int:
    """Algorithm 1's ``max_abs_err`` hybrid-replacement criterion."""
    return max(abs(stats.min_error), abs(stats.max_error))


def unique_dup_fraction(queries: np.ndarray, sample: int) -> float:
    """:func:`repro.core.engine.batch_dup_fraction` written with
    ``np.unique``: the exact duplicate fraction of a batch of at most
    ``sample`` queries, else the birthday estimate from a fixed-seed
    probe of ``sample`` of them."""
    m = queries.size
    if m <= sample:
        return float(1.0 - np.unique(queries).size / max(m, 1))
    idx = np.random.default_rng(0x5EED).integers(0, m, sample)
    collisions = sample - np.unique(queries[idx]).size
    c = collisions - sample * sample / (2.0 * m)
    if c <= 0:
        return 0.0
    d = sample * sample / (2.0 * c)
    return float(1.0 - min(d * -np.expm1(-m / d), m) / m)


def _central_differences(params, loss, epsilon: float) -> list[np.ndarray]:
    """d loss / d p for every element of every array in ``params``, by
    central differences, perturbing each element in place."""
    grads = []
    for p in params:
        grad = np.zeros_like(p)
        for idx in np.ndindex(p.shape):
            orig = p[idx]
            p[idx] = orig + epsilon
            up = loss()
            p[idx] = orig - epsilon
            down = loss()
            p[idx] = orig
            grad[idx] = (up - down) / (2 * epsilon)
        grads.append(grad)
    return grads


def _log_loss(prob: np.ndarray, y: np.ndarray) -> float:
    eps = 1e-12
    return float(
        -np.mean(y * np.log(prob + eps) + (1 - y) * np.log(1 - prob + eps))
    )


def mlp_finite_difference_gradients(
    net, x: np.ndarray, y: np.ndarray, epsilon: float = 1e-6
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Numerical ``(weight, bias)`` gradients of an
    :class:`~repro.models.nn.MLP`'s training loss (mean squared
    error): the oracle its backprop is checked against."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64).reshape(-1, 1)

    def loss() -> float:
        out, _ = net._forward(x)
        return float(np.mean((out - y) ** 2))

    grads = _central_differences(net.weights + net.biases, loss, epsilon)
    return grads[:len(net.weights)], grads[len(net.weights):]


def gru_finite_difference_gradients(
    gru, texts: list[str], labels: np.ndarray, epsilon: float = 1e-5
) -> list[np.ndarray]:
    """Numerical log-loss gradients of a
    :class:`~repro.models.gru.GRUClassifier`, aligned to its
    parameters: the oracle its BPTT is checked against.  Only feasible
    for tiny models."""
    ids = gru.vocab.encode_batch(texts, gru.max_length)
    y = np.asarray(labels, dtype=np.float64).ravel()

    def loss() -> float:
        prob, _ = gru._forward(ids)
        return _log_loss(prob, y)

    return _central_differences(gru._params(), loss, epsilon)


def tokenize(key: str, max_length: int) -> np.ndarray:
    """One string as the paper's fixed-length ASCII feature vector —
    the per-string form of
    :func:`repro.models.tokenization.tokenize_batch`."""
    if max_length < 1:
        raise ValueError("max_length must be >= 1")
    vec = np.zeros(max_length, dtype=np.float64)
    for i, ch in enumerate(key[:max_length]):
        vec[i] = min(ord(ch), 255)
    return vec


def lexicographic_scalar(key: str, max_length: int) -> float:
    """One string's order-preserving base-257 scalar — the per-string
    form of :func:`repro.models.tokenization.lexicographic_scalar_batch`
    (and of ``StringRMI._featurize``'s scalar)."""
    total = 0.0
    scale = 1.0
    for i in range(max_length):
        scale /= 257.0
        if i < len(key):
            total += (min(ord(key[i]), 255) + 1) * scale
    return total


_WORDS = (
    "alpha beta gamma delta epsilon zeta eta theta iota kappa lamda mu nu "
    "xi omicron pi rho sigma tau upsilon phi chi psi omega index search "
    "doc page item node edge user group file data shard part chunk block "
    "store cache query plan scan join sort hash tree leaf root"
).split()


def web_paths(n: int, *, seed: int = 42, max_depth: int = 4) -> list[str]:
    """``n`` unique sorted URL-path-like string keys.

    Paths like ``"data/shard/item0042"`` with shared prefixes and mixed
    alphanumeric segments: a second string key shape, on a realistic
    alphabet (lowercase + digits + '/').
    """
    rng = np.random.default_rng(seed)
    seen: set[str] = set()
    out: list[str] = []
    attempts = 0
    while len(out) < n:
        attempts += 1
        if attempts > n * 64:
            raise RuntimeError("could not generate %d unique paths" % n)
        depth = int(rng.integers(1, max_depth + 1))
        segments = []
        for level in range(depth):
            word = _WORDS[int(rng.integers(0, len(_WORDS)))]
            if level == depth - 1 and rng.random() < 0.7:
                word = f"{word}{int(rng.integers(0, 10_000)):04d}"
            segments.append(word)
        key = "/".join(segments)
        if key not in seen:
            seen.add(key)
            out.append(key)
    out.sort()
    return out


_U64 = np.array([2**64 - 5], dtype=np.uint64)  # wraps onto key -5 if cast

#: (method, args, error): calls on a key-value holder that used to
#: answer for a neighbouring key, write one, or wedge the store — each
#: a typed refusal under the key contract, which writes nothing.
REFUSED_CALLS = (
    ("lookup", (2.5,), TypeError),
    ("lookup", ("7",), TypeError),
    ("contains", (2.0,), TypeError),
    ("delete", (4.9,), TypeError),
    ("insert", (7.9,), TypeError),
    ("insert", (8, 1.5), TypeError),
    ("insert", (2**63,), OverflowError),
    ("delete", (2**64 - 5,), OverflowError),
    ("lookup", (2**64 - 5,), OverflowError),
    ("lookup_batch", (_U64,), OverflowError),
    ("contains_batch", (_U64,), OverflowError),
    ("insert_batch", (_U64,), OverflowError),
    ("insert_batch", ([8], _U64), OverflowError),
    ("delete_batch", (_U64,), OverflowError),
    ("insert_batch", ([1000], [1.9]), TypeError),
    ("insert_batch", ([1.5],), TypeError),
)
