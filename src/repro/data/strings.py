"""Simulated document-id string keys.

The paper's string experiment (Section 3.7.2) builds "a secondary index
over 10M non-continuous document-ids of a large web index used as part
of a real product at Google".  That dataset is proprietary; this module
substitutes a hierarchical document-id generator with the properties
that make string indexing hard:

* ids are **non-continuous** — only a sparse subset of the id space is
  populated, with region-dependent density;
* ids share long common prefixes (hierarchical shards / collections),
  so early characters carry little information and the CDF conditioned
  on a prefix varies a lot between prefixes;
* lexicographic sort order, fixed alphabet.

``document_ids`` generates them: digit-based ids grouped into shard
prefixes, the default benchmark dataset.
"""

from __future__ import annotations

import numpy as np

__all__ = ["document_ids"]


def document_ids(
    n: int,
    *,
    seed: int = 42,
    shards: int = 64,
    id_digits: int = 12,
) -> list[str]:
    """Generate ``n`` unique, lexicographically sorted document ids.

    An id looks like ``"017-000482117392"``: a zero-padded shard prefix
    followed by a sparse numeric suffix.  Shard populations follow a
    Zipf-like law so some prefixes are dense and others nearly empty —
    the non-uniform structure the paper's string RMI has to learn.
    """
    rng = np.random.default_rng(seed)
    shard_weights = 1.0 / np.arange(1, shards + 1, dtype=np.float64) ** 0.8
    shard_weights /= shard_weights.sum()
    shard_of = rng.choice(shards, size=int(n * 1.2) + 16, p=shard_weights)
    max_suffix = 10**id_digits
    # Per-shard density: some shards cluster their ids low, others spread.
    shard_scale = rng.uniform(0.05, 1.0, size=shards)
    suffix = (
        rng.random(shard_of.size) ** 2.0 * shard_scale[shard_of] * max_suffix
    ).astype(np.int64)

    seen: set[str] = set()
    out: list[str] = []
    shard_width = len(str(shards - 1))
    for s, x in zip(shard_of, suffix):
        key = f"{s:0{shard_width}d}-{x:0{id_digits}d}"
        if key not in seen:
            seen.add(key)
            out.append(key)
            if len(out) == n:
                break
    attempts = 0
    while len(out) < n:
        attempts += 1
        if attempts > 64:
            raise RuntimeError("could not generate %d unique document ids" % n)
        s = int(rng.choice(shards, p=shard_weights))
        x = int(rng.random() ** 2.0 * shard_scale[s] * max_suffix)
        key = f"{s:0{shard_width}d}-{x:0{id_digits}d}"
        if key not in seen:
            seen.add(key)
            out.append(key)
    out.sort()
    return out

