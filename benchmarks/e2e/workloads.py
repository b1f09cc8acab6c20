"""The four workloads and the inputs each one generates from its seed.

A workload is one set of inputs: a key distribution plus the operation
mix every phase of the stack runs over it.  All four run the whole
stack and report every metric; they differ in where they put the work
(README.md records why each exists).  The program under test never
sees the seed — only the arrays :func:`generate` returns.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

#: Stored value for a key: distinguishable from the key itself, never
#: overflows, and any oracle can recompute it.
VALUE_MASK = 0x5BD1E995


def value_of(keys: np.ndarray) -> np.ndarray:
    return np.asarray(keys, dtype=np.int64) ^ VALUE_MASK


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    keys: str  # "uniform" | "u64_dense" | "lognormal"
    # static-index point calls
    call_keys: int  # keys per lookup_batch call
    calls_per_rep: int  # calls timed as one repetition
    hot: bool  # zipf(1.3)-hot query keys (duplicate-heavy)
    # static-index range calls
    ranges_per_call: int
    range_calls_per_rep: int
    long_ranges: bool  # spans of n/100..n/10 keys instead of zipf(1.2) <= 1000
    # KV write phase: a fresh store takes write_keys in write_batch calls;
    # with round_lookups > 0 a preloaded store takes rounds of
    # insert write_batch + delete round_deletes + lookup round_lookups
    write_keys: int
    write_batch: int
    memtable: int
    round_deletes: int
    round_lookups: int
    # KV read phase (not used by rounds: their lookups are the read phase)
    read_absent: float
    read_on_written: bool  # read the un-compacted store the write phase left
    # serving, closed loop
    clients: int
    request_keys: int
    requests_per_client: int
    insert_every: int  # client 0 inserts before every k-th request (0 = never)
    insert_keys: int
    # sharded reads
    shard_call_keys: int
    shard_calls_per_rep: int

    @property
    def rounds(self) -> int:
        return self.write_keys // self.write_batch if self.round_lookups else 0


_BIG_CALLS = dict(call_keys=100_000, calls_per_rep=1, shard_call_keys=100_000,
                  shard_calls_per_rep=1)
_FRESH_STORE = dict(write_keys=491_520, write_batch=1024, memtable=16_384,
                    round_deletes=0, round_lookups=0, read_absent=0.5,
                    read_on_written=False)
_ONE_KEY_REQUESTS = dict(clients=64, request_keys=1, requests_per_client=320,
                         insert_every=0, insert_keys=0)
_SHORT_RANGES = dict(ranges_per_call=10_000, range_calls_per_rep=1,
                     long_ranges=False)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="uniform",
            why="near-exact model and tiny windows put time in route/predict,"
            " per-call overhead, seals/merges and per-request coalescer cost",
            keys="uniform", hot=False,
            **_BIG_CALLS, **_SHORT_RANGES, **_FRESH_STORE, **_ONE_KEY_REQUESTS,
        ),
        Workload(
            name="u64_dense",
            why="control pair of uniform: same operations on keys near 2^63,"
            " where float64 ulp-wide windows put lookup time in bounded search",
            keys="u64_dense", hot=False,
            **_BIG_CALLS, **_SHORT_RANGES, **_FRESH_STORE, **_ONE_KEY_REQUESTS,
        ),
        Workload(
            name="lognormal_zipf",
            why="skewed keys and zipf-hot duplicate queries: model-error"
            " windows, sorted-batch dedup, bloom rejects over several runs,"
            " long range copies, memtable+WAL writes, engine-bound serving",
            keys="lognormal", hot=True, ranges_per_call=64,
            range_calls_per_rep=1, long_ranges=True,
            write_keys=999_424, write_batch=8192, memtable=393_216,
            round_deletes=0, round_lookups=0, read_absent=0.9,
            read_on_written=True, clients=16, request_keys=64,
            requests_per_client=150, insert_every=0, insert_keys=0,
            **_BIG_CALLS,
        ),
        Workload(
            name="uniform_mixed",
            why="same layers used differently: 64-key calls, writes beside"
            " reads, tombstones, a full memtable, RPC-bound shard round trips",
            keys="uniform", hot=False, call_keys=64, calls_per_rep=256,
            ranges_per_call=8, range_calls_per_rep=256, long_ranges=False,
            write_keys=60 * 4096, write_batch=4096, memtable=16_384,
            round_deletes=512, round_lookups=4096, read_absent=0.25,
            read_on_written=True, clients=16, request_keys=8,
            requests_per_client=200, insert_every=16, insert_keys=256,
            shard_call_keys=64, shard_calls_per_rep=40,
        ),
    )
}


@dataclass(frozen=True)
class Scale:
    """Sizes and repetition floors; ``--smoke`` shrinks them together."""

    n: int  # static-index keys
    n_kv: int  # bulk-loaded KV / sharded keys
    kernel_reps: int  # floor for kernel-call repetitions
    write_reps: int  # floor for write repetitions (>= 0.5 s each)
    serve_reps: int  # floor for serve repetitions (~0.2 s each)
    warmups: int  # discarded repetitions before each timing
    setups: int  # full set-ups timed per untraced run (fastest -> setup_s)
    pool: int  # distinct batches a kernel phase cycles through


FULL = Scale(n=1_000_000, n_kv=500_000, kernel_reps=31, write_reps=7,
             serve_reps=18, warmups=2, setups=2, pool=4)
SMOKE = Scale(n=20_000, n_kv=10_000, kernel_reps=3, write_reps=3,
              serve_reps=3, warmups=1, setups=1, pool=2)


def smoke_sized(w: Workload) -> Workload:
    """The same operation mix at 1/50 of the volume."""

    def cut(value: int, floor: int) -> int:
        return max(value // 50, floor)

    batch = cut(w.write_batch, 64)
    return replace(
        w,
        call_keys=cut(w.call_keys, 8),
        calls_per_rep=min(w.calls_per_rep, 16),
        ranges_per_call=cut(w.ranges_per_call, 4),
        range_calls_per_rep=min(w.range_calls_per_rep, 16),
        write_keys=cut(w.write_keys, batch) // batch * batch,
        write_batch=batch,
        memtable=cut(w.memtable, 256),
        round_deletes=cut(w.round_deletes, 8) if w.round_lookups else 0,
        round_lookups=cut(w.round_lookups, 64) if w.round_lookups else 0,
        requests_per_client=cut(w.requests_per_client, 16),
        insert_keys=cut(w.insert_keys, 16) if w.insert_every else 0,
        shard_call_keys=cut(w.shard_call_keys, 8),
        shard_calls_per_rep=min(w.shard_calls_per_rep, 8),
    )


@dataclass
class Inputs:
    keys: np.ndarray  # static index column, sorted unique
    point_pool: np.ndarray  # (calls, call_keys)
    range_lows: np.ndarray  # (calls, ranges_per_call)
    range_highs: np.ndarray
    kv_keys: np.ndarray  # bulk-loaded keys, sorted unique int64
    stream: np.ndarray  # write-phase keys, arrival order, disjoint from kv_keys
    absent: np.ndarray  # keys of the same distribution that are never stored
    round_deletes: np.ndarray | None  # (rounds, round_deletes)
    round_lookups: np.ndarray | None  # (rounds, round_lookups)
    read_pool: np.ndarray  # (calls, call_keys) KV read batches
    serve_requests: np.ndarray  # (clients, requests_per_client, request_keys)
    serve_inserts: np.ndarray | None  # (inserts, insert_keys), never-stored keys
    shard_pool: np.ndarray  # (calls, shard_call_keys)


def _draw(kind: str, rng, m: int) -> np.ndarray:
    if kind == "uniform":
        return rng.integers(0, 2**40, m)
    return (np.exp(rng.normal(0.0, 2.0, m)) * 1e7).astype(np.int64)


def _unique_keys(kind: str, rng, count: int) -> np.ndarray:
    """Exactly ``count`` sorted unique int64 keys of distribution ``kind``."""
    have = np.empty(0, dtype=np.int64)
    factor = 1.02 if kind == "uniform" else 1.4
    while have.size < count:
        drawn = np.sort(np.concatenate(
            [have, _draw(kind, rng, int((count - have.size) * factor) + 16)]
        ))
        have = drawn[np.concatenate(([True], drawn[1:] != drawn[:-1]))]
    extra = have.size - count
    if extra:
        have = np.delete(have, rng.choice(have.size, extra, replace=False))
    return have


def _hot_indices(rng, size: int, n: int) -> np.ndarray:
    """zipf(1.3) ranks mapped through a random permutation, so the hot
    set is scattered over the key space rather than its low end."""
    ranks = np.minimum(rng.zipf(1.3, size), n) - 1
    return rng.permutation(n)[ranks]


def generate(w: Workload, seed: int, scale: Scale) -> Inputs:
    """Every input array of workload ``w`` (already smoke-sized if the
    run is), deterministically from ``seed``."""
    rng = np.random.default_rng(seed)
    n, n_kv = scale.n, scale.n_kv

    # -- static index column and its queries --------------------------------
    if w.keys == "u64_dense":
        keys = np.uint64(2**63 - n) + 2 * np.arange(n, dtype=np.uint64)
    else:
        keys = _unique_keys(w.keys, rng, n)

    def pick(m: int) -> np.ndarray:
        return _hot_indices(rng, m, n) if w.hot else rng.integers(0, n, m)

    calls = max(scale.pool, w.calls_per_rep * 2)
    half = w.call_keys // 2
    point_pool = np.empty((calls, w.call_keys), dtype=keys.dtype)
    for c in range(calls):
        # Present keys, then their absent neighbours: key+1 is stored only
        # by rare coincidence, and the oracle decides, not this construction.
        point_pool[c] = rng.permutation(np.concatenate([
            keys[pick(half)],
            keys[pick(w.call_keys - half)] + keys.dtype.type(1),
        ]))

    range_calls = max(scale.pool, w.range_calls_per_rep * 2)
    shape = (range_calls, w.ranges_per_call)
    if w.long_ranges:
        spans = rng.integers(n // 100, n // 10, shape)
    else:
        spans = np.minimum(rng.zipf(1.2, shape), min(1000, n - 1))
    starts = rng.integers(0, n - spans)
    range_lows, range_highs = keys[starts], keys[starts + spans]

    # -- KV: one unique pool split into bulk / stream / absent / fresh -------
    n_absent = max(n_kv // 2, 1024)
    inserts = -(-w.requests_per_client // w.insert_every) if w.insert_every else 0
    n_fresh = inserts * w.insert_keys
    total = n_kv + w.write_keys + n_absent + n_fresh
    if w.keys == "u64_dense":
        # The static column's dense even pattern as int64 around 2^62,
        # where neighbouring keys share a float64 (ulp 1024).
        pool = np.int64(2**62 - total) + 2 * np.arange(total, dtype=np.int64)
    else:
        pool = _unique_keys(w.keys, rng, total)
    pool = rng.permutation(pool)
    cuts = np.cumsum([n_kv, w.write_keys, n_absent])
    kv_keys = np.sort(pool[:cuts[0]])
    stream, absent, fresh = np.split(pool[cuts[0]:], cuts[1:] - cuts[0])

    round_deletes = round_lookups = None
    if w.round_lookups:
        # Deletes hit distinct live preloaded keys.  Lookups take a quarter
        # each of this repetition's inserts so far (memtable and young
        # runs), preloaded keys, deleted keys (tombstones), never-stored keys.
        round_deletes = rng.choice(
            kv_keys, (w.rounds, w.round_deletes), replace=False
        )
        round_lookups = np.empty((w.rounds, w.round_lookups), dtype=np.int64)
        q = w.round_lookups // 4
        for r in range(w.rounds):
            round_lookups[r] = rng.permutation(np.concatenate([
                rng.choice(stream[:(r + 1) * w.write_batch], q),
                rng.choice(kv_keys, q),
                rng.choice(round_deletes[:r + 1].ravel(), q),
                rng.choice(absent, w.round_lookups - 3 * q),
            ]))

    # -- KV reads, serving requests, sharded reads: hits + true misses -------
    def reads(present: np.ndarray, shape: tuple) -> np.ndarray:
        size = int(np.prod(shape))
        miss = int(size * w.read_absent)
        return rng.permutation(np.concatenate(
            [rng.choice(present, size - miss), rng.choice(absent, miss)]
        )).reshape(shape)

    # Reads go to the bulk-loaded store, or to the one the write phase left
    # (after rounds that store still holds the surviving preloaded keys).
    stored = stream if (w.read_on_written and not w.round_lookups) else kv_keys
    read_pool = reads(stored, (scale.pool, w.call_keys))
    serve_requests = reads(
        stored, (w.clients, w.requests_per_client, w.request_keys)
    )
    shard_calls = max(scale.pool, w.shard_calls_per_rep * 2)
    shard_pool = reads(kv_keys, (shard_calls, w.shard_call_keys))
    return Inputs(
        keys=keys, point_pool=point_pool, range_lows=range_lows,
        range_highs=range_highs, kv_keys=kv_keys, stream=stream, absent=absent,
        round_deletes=round_deletes, round_lookups=round_lookups,
        read_pool=read_pool, serve_requests=serve_requests,
        serve_inserts=fresh.reshape(inserts, w.insert_keys) if inserts else None,
        shard_pool=shard_pool,
    )
