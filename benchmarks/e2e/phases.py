"""Set-up, oracles and the end-to-end phases of one workload.

Everything here drives the stack through its public surface only:
``repro.core``, ``repro.families``, ``repro.lsm``, ``repro.serving``.
The traced run (layers.py) reuses these phases with a span recorder.
"""

from __future__ import annotations

import asyncio
import gc
import multiprocessing
import os
import shutil
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core import RecursiveModelIndex
from repro.families import PGMIndex, RadixSplineIndex
from repro.lsm import LearnedLSMStore
from repro.serving import CoalescingIndexServer, ShardedLSMStore

from harness import (
    Contender, Tally, by_position, exact, metric, perf, pool_calls, quiet_gc,
    ratio, repetitions, time_calls,
)
from workloads import Inputs, Scale, Workload, generate, value_of

#: Gated write/read metrics keep the device and the scheduler out:
#: no per-append fsync (two identical fsync'd runs measured 1785 and
#: 3373 ns/key) and inline compaction, so seal and merge counts repeat
#: exactly.  The fsync'd and background variants are per-layer.
STORE_OPTIONS = dict(wal_fsync=False, background=False)

SHARDS = 2


def start_shards(w: Workload, inputs: Inputs) -> ShardedLSMStore:
    """Two shard workers over the bulk keys, one pinned to each CPU.
    Unpinned, the scheduler sometimes parks both workers on one CPU and
    a fan-out runs them back to back: 100k-key reads then flip between
    ~155 and ~270 ns/key, within a run and between runs."""
    before = set(multiprocessing.active_children())
    shards = ShardedLSMStore(
        SHARDS, inputs.kv_keys, value_of(inputs.kv_keys), read_via="worker",
        store_kwargs=dict(memtable_capacity=w.memtable),
    )
    cpus = sorted(os.sched_getaffinity(0))
    workers = set(multiprocessing.active_children()) - before
    for i, worker in enumerate(sorted(workers, key=lambda p: p.pid)):
        os.sched_setaffinity(worker.pid, {cpus[i % len(cpus)]})
    return shards


# -- set-up ---------------------------------------------------------------------


@dataclass
class Stack:
    """What set-up builds: three static indexes, the bulk-loaded durable
    store compacted to one run, and the started shard workers."""

    rmi: RecursiveModelIndex
    pgm: PGMIndex
    rs: RadixSplineIndex
    kv: LearnedLSMStore
    kv_dir: str
    shards: ShardedLSMStore
    seconds: dict = field(default_factory=dict)  # build time per part

    def close(self) -> None:
        self.shards.close()
        self.kv.close()
        shutil.rmtree(self.kv_dir, ignore_errors=True)


def build_stack(w: Workload, inputs: Inputs, kv_dir: str) -> Stack:
    parts: dict = {}

    def timed(name, build):
        t0 = perf()
        built = build()
        parts[name] = perf() - t0
        return built

    keys = inputs.keys
    leaves = max(keys.size // 100, 16)
    rmi = timed("rmi", lambda: RecursiveModelIndex(keys, stage_sizes=(1, leaves)))
    pgm = timed("pgm", lambda: PGMIndex(keys))
    rs = timed("rs", lambda: RadixSplineIndex(keys))
    kv_values = value_of(inputs.kv_keys)

    def bulk_load():
        store = LearnedLSMStore(
            inputs.kv_keys, kv_values, path=kv_dir,
            memtable_capacity=w.memtable, **STORE_OPTIONS,
        )
        store.compact()
        return store

    kv = timed("kv", bulk_load)
    try:
        shards = timed("shards", lambda: start_shards(w, inputs))
    except BaseException:
        kv.close()
        raise
    return Stack(rmi, pgm, rs, kv, kv_dir, shards, parts)


def set_up(w: Workload, seed: int, scale: Scale, workdir: str):
    """Generate inputs and build the stack ``scale.setups`` times; keep
    the last.  Returns (inputs, stack, seconds per full set-up)."""
    kv_dir = os.path.join(workdir, "kv")
    samples = []
    stack = None
    for _ in range(scale.setups):
        if stack is not None:
            stack.close()
        with quiet_gc():
            t0 = perf()
            inputs = generate(w, seed, scale)
            stack = build_stack(w, inputs, kv_dir)
            samples.append(perf() - t0)
    return inputs, stack, samples


# -- oracles --------------------------------------------------------------------


def kv_expect(live_sorted: np.ndarray, queries: np.ndarray):
    """(values, found) a store holding exactly ``live_sorted`` must give."""
    pos = np.minimum(np.searchsorted(live_sorted, queries), live_sorted.size - 1)
    found = live_sorted[pos] == queries
    return np.where(found, value_of(queries), 0), found


def same_kv(got, want) -> bool:
    return np.array_equal(got[1], want[1]) and np.array_equal(got[0], want[0])


@dataclass
class Expected:
    point: list  # lower-bound positions per point-pool call
    ranges: list  # (offsets, value checksum, first values) per range call
    read: list  # (values, found) per read-pool call
    shard: list
    serve: tuple  # (values, found), one row per request
    rounds: list | None  # (values, found) per round of lookups
    sample: tuple  # (queries, (values, found)) checked after every write rep
    live: np.ndarray  # sorted keys the written store holds at the end
    acked: np.ndarray  # every key the write phase ever touched


def _range_expect(keys, prefix, lows, highs):
    starts = np.searchsorted(keys, lows, side="left")
    ends = np.searchsorted(keys, highs, side="right")
    offsets = np.zeros(starts.size + 1, dtype=np.int64)
    np.cumsum(ends - starts, out=offsets[1:])
    return offsets, (prefix[ends] - prefix[starts]).sum(), keys[starts]


def same_ranges(got, want) -> bool:
    """Offsets and each range's first key are compared exactly against
    ``np.searchsorted``; the gathered keys by their wrapping sum."""
    offsets, checksum, firsts = want
    values = np.asarray(got.values)
    return (
        np.array_equal(got.offsets, offsets)
        and values.sum() == checksum
        and np.array_equal(values[offsets[:-1]], firsts)
    )


def build_expected(w: Workload, inputs: Inputs) -> Expected:
    keys = inputs.keys
    prefix = np.zeros(keys.size + 1, dtype=keys.dtype)  # wraps, like .sum()
    np.cumsum(keys, out=prefix[1:])
    rounds = None
    if w.round_lookups:
        # The dict oracle: replay the rounds key by key.
        state = dict(zip(inputs.kv_keys.tolist(),
                         value_of(inputs.kv_keys).tolist()))
        rounds = []
        for r in range(w.rounds):
            ins = inputs.stream[r * w.write_batch:(r + 1) * w.write_batch]
            state.update(zip(ins.tolist(), value_of(ins).tolist()))
            for key in inputs.round_deletes[r].tolist():
                state.pop(key, None)
            hits = [state.get(k) for k in inputs.round_lookups[r].tolist()]
            rounds.append((
                np.array([0 if v is None else v for v in hits], dtype=np.int64),
                np.array([v is not None for v in hits]),
            ))
        live = np.sort(np.fromiter(state, dtype=np.int64, count=len(state)))
        acked = np.concatenate([inputs.stream, inputs.kv_keys])
    else:
        live = np.sort(inputs.stream)
        acked = inputs.stream
    served = live if w.read_on_written else inputs.kv_keys
    sample = np.concatenate([inputs.stream[:1024], inputs.absent[:1024]])
    k = w.request_keys
    return Expected(
        point=[np.searchsorted(keys, q) for q in inputs.point_pool],
        ranges=[_range_expect(keys, prefix, lo, hi)
                for lo, hi in zip(inputs.range_lows, inputs.range_highs)],
        read=[kv_expect(served, q) for q in inputs.read_pool],
        shard=[kv_expect(inputs.kv_keys, q) for q in inputs.shard_pool],
        serve=kv_expect(served, inputs.serve_requests.reshape(-1, k)),
        rounds=rounds,
        sample=(sample, kv_expect(np.sort(inputs.stream), sample)),
        live=live,
        acked=acked,
    )


# -- the repetition functions of each phase --------------------------------------
#
# Each returns ``run(i)``: perform repetition ``i``, check its answers,
# return its sample.  harness.repetitions interleaves them.


def point_runs(w, inputs, stack, expected, tally, wrap=None) -> dict:
    """RMI, PGM, RadixSpline and ``np.searchsorted`` on the same
    batches; seconds per call of a repetition for each."""
    keys = inputs.keys
    calls = pool_calls([(q,) for q in inputs.point_pool], expected.point,
                       w.calls_per_rep)
    wrap = wrap or (lambda name, fn: fn)

    def run_of(name, fn):
        fn = wrap(name, fn)
        return lambda i: time_calls(
            tally, name, fn, calls(i), np.array_equal)

    return {
        "rmi": run_of("core.rmi.lookup_batch", stack.rmi.lookup_batch),
        "pgm": run_of("families.pgm.lookup_batch", stack.pgm.lookup_batch),
        "rs": run_of("families.rs.lookup_batch", stack.rs.lookup_batch),
        "searchsorted": run_of(
            "btree.searchsorted", lambda q: np.searchsorted(keys, q)),
    }


def range_run(w, inputs, stack, expected, tally):
    calls = pool_calls(list(zip(inputs.range_lows, inputs.range_highs)),
                       expected.ranges, w.range_calls_per_rep)
    return lambda i: time_calls(
        tally, "core.rmi.range_query_batch", stack.rmi.range_query_batch,
        calls(i), same_ranges).sum()


def read_run(name, lookup_batch, pool, want, per_rep, tally):
    """Seconds per call of a repetition of ``per_rep`` KV
    ``lookup_batch`` calls."""
    calls = pool_calls([(q,) for q in pool], want, per_rep)
    return lambda i: time_calls(
        tally, name, lookup_batch, calls(i), same_kv)


# -- KV write phase -----------------------------------------------------------------


def open_store(w, path, **options) -> LearnedLSMStore:
    options = {**STORE_OPTIONS, "memtable_capacity": w.memtable, **options}
    return LearnedLSMStore(path=path, **options)


def open_write_store(w, inputs, stack, path, **options) -> LearnedLSMStore:
    """The store a write repetition starts on: fresh, or — for rounds —
    a hard-linked copy of the bulk-loaded store, touched once so its
    lazily mapped run is resident before the clock starts."""
    if not w.round_lookups:
        return open_store(w, path, **options)
    if path is None:
        options = {**STORE_OPTIONS, "memtable_capacity": w.memtable, **options}
        return LearnedLSMStore(
            inputs.kv_keys, value_of(inputs.kv_keys), **options)
    stack.kv.backup(path)
    store = open_store(w, path, **options)
    store.lookup_batch(inputs.kv_keys[:: max(inputs.kv_keys.size // 4096, 1)])
    return store


def run_writes(w, inputs, expected, store, tally, keys_limit=None):
    """Drive one repetition's write stream into ``store``.

    Returns (seconds per write call, keys those calls wrote or deleted,
    seconds per lookup call of the rounds, keys they looked up)."""
    limit = keys_limit or w.write_keys
    stream = inputs.stream[:limit]
    values = value_of(stream)
    batch = w.write_batch
    no_answer = lambda got, want: got is None  # noqa: E731
    if not w.round_lookups:
        calls = [((stream[i:i + batch], values[i:i + batch]), None)
                 for i in range(0, limit, batch)]
        seconds = time_calls(
            tally, "lsm.store.insert_batch", store.insert_batch, calls,
            no_answer)
        return seconds, limit, np.zeros(0), 0
    write_s, read_s = [], []
    rounds = limit // batch
    for r in range(rounds):
        rows = slice(r * batch, (r + 1) * batch)
        write_s.append(time_calls(
            tally, "lsm.store.insert_batch", store.insert_batch,
            [((stream[rows], values[rows]), None)], no_answer)[0])
        write_s.append(time_calls(
            tally, "lsm.store.delete_batch", store.delete_batch,
            [((inputs.round_deletes[r],), None)], no_answer)[0])
        read_s.append(time_calls(
            tally, "lsm.store.lookup_batch", store.lookup_batch,
            [((inputs.round_lookups[r],), expected.rounds[r])], same_kv)[0])
    return (np.array(write_s), rounds * (batch + w.round_deletes),
            np.array(read_s), rounds * w.round_lookups)


def directory_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _dirs, names in os.walk(path) for name in names
    )


def write_repetition(w, inputs, stack, expected, tally, path, keys_limit=None):
    """The write stream into a new store at ``path``, a read-back, and a
    close.  Returns what ``run_writes`` does: seconds per write call,
    keys written, seconds per lookup call of the rounds, keys looked up."""
    store = open_write_store(w, inputs, stack, path)
    try:
        seconds, keys, lookup_s, looked = run_writes(
            w, inputs, expected, store, tally, keys_limit)
        sample, want = expected.sample
        tally.check(same_kv(store.lookup_batch(sample), want),
                    "read-back after write repetition")
    finally:
        store.close()
    return seconds, keys, lookup_s, looked


def write_run(w, scale, inputs, stack, expected, tally, workdir):
    """Each repetition writes the whole stream into its own directory and
    removes it.  The first full pass already ran (it left the store the
    later phases read), so the remaining warm-ups take a quarter."""
    quarter = w.write_keys // 4 // w.write_batch * w.write_batch

    def run(i: int):
        path = os.path.join(workdir, "write-rep")
        try:
            return write_repetition(
                w, inputs, stack, expected, tally, path,
                quarter if i < scale.warmups - 1 else None)
        finally:
            shutil.rmtree(path, ignore_errors=True)
            gc.collect()

    return run


def reopen(w, path, expected, tally) -> LearnedLSMStore:
    """Reopen the directory a write pass left; every acknowledged key
    must come back (and every deleted key must not)."""
    store = open_store(w, path)
    check_reopened(store, expected, tally)
    return store


def check_reopened(store, expected, tally) -> None:
    got = store.lookup_batch(expected.acked)
    tally.check(same_kv(got, kv_expect(expected.live, expected.acked)),
                "reopened store lost or resurrected a key")


# -- serving -----------------------------------------------------------------------


def closed_loop(w, store, requests, inserts=None, rec=None, server_store=None):
    """``w.clients`` coroutines, each awaiting one request at a time
    through one ``CoalescingIndexServer``.  Client 0 also performs the
    workload's inline inserts.  Returns (wall seconds, results per
    client, server stats)."""
    single = w.request_keys == 1
    results = [[None] * w.requests_per_client for _ in range(w.clients)]

    async def main():
        server = CoalescingIndexServer(server_store or store)
        call = server.lookup if single else server.lookup_batch

        async def client(c: int) -> None:
            mine = requests[c]
            args = mine[:, 0].tolist() if single else list(mine)
            out = results[c]
            writes = inserts is not None and c == 0
            for i, arg in enumerate(args):
                if writes and i % w.insert_every == 0:
                    fresh = inserts[i // w.insert_every]
                    store.insert_batch(fresh, value_of(fresh))
                t0 = perf() if rec is not None else 0.0
                try:
                    out[i] = await call(arg)
                except Exception as exc:  # noqa: BLE001 — counted below
                    out[i] = exc
                if rec is not None:
                    rec.add("serving.request", t0, perf(),
                            request=c * w.requests_per_client + i)

        t0 = perf()
        await asyncio.gather(*(client(c) for c in range(w.clients)))
        return perf() - t0, server.stats

    wall, stats = asyncio.run(main())
    return wall, results, stats


def check_served(w, results, want, tally) -> None:
    """One operation per request; a request fails if it raised or any
    of its keys came back wrong."""
    flat = [r for row in results for r in row]
    raised = [isinstance(r, Exception) for r in flat]
    k = w.request_keys
    blank = None if k == 1 else (np.zeros(k, np.int64), np.zeros(k, bool))
    flat = [blank if bad else r for r, bad in zip(flat, raised)]
    if k == 1:
        found = np.array([r is not None for r in flat])[:, None]
        values = np.array([r or 0 for r in flat], dtype=np.int64)[:, None]
    else:
        values = np.stack([r[0] for r in flat])
        found = np.stack([r[1] for r in flat])
    wrong = ((values != want[0]) | (found != want[1])).any(axis=1)
    tally.attempted += len(flat)
    bad = int(np.count_nonzero(wrong | np.array(raised)))
    if bad:
        tally.fail("serving: wrong or failed request", bad)


def serve_run(w, scale, inputs, store, expected, tally, workdir):
    """Closed-loop repetitions; kreq/s each.  Warm-ups send a quarter of
    the requests.  With inline inserts every repetition runs on its own
    hard-linked copy of ``store``, so each starts from the same state."""
    per_client = w.requests_per_client
    by_client = [e.reshape(w.clients, per_client, -1) for e in expected.serve]

    def run(i: int) -> float:
        sized = w
        if i < scale.warmups:
            sized = replace(w, requests_per_client=max(per_client // 4, 1))
        n = sized.requests_per_client
        requests = inputs.serve_requests[:, :n]
        want = [e[:, :n].reshape(-1, w.request_keys) for e in by_client]
        if inputs.serve_inserts is None:
            wall, results, _ = closed_loop(sized, store, requests)
        else:
            path = os.path.join(workdir, "serve-rep")
            store.backup(path)
            copy = open_store(w, path)
            try:
                wall, results, _ = closed_loop(
                    sized, copy, requests, inputs.serve_inserts)
            finally:
                copy.close()
                shutil.rmtree(path)
        check_served(sized, results, want, tally)
        gc.collect()
        return w.clients * n / wall / 1e3

    return run


# -- the untraced run ------------------------------------------------------------------


def written_store(w, inputs, stack, expected, tally, workdir):
    """One full pass of the write phase, kept: (reopened store, its
    bytes on disk).  Reopening is the durability check."""
    path = os.path.join(workdir, "written")
    write_repetition(w, inputs, stack, expected, tally, path)
    return reopen(w, path, expected, tally), directory_bytes(path)


def run_end_to_end(w: Workload, scale: Scale, seed: int, seconds: float,
                   workdir: str):
    """Every end-to-end metric of one workload.  Returns (metrics, tally)."""
    tally = Tally()
    t0 = perf()
    inputs, stack, setup_samples = set_up(w, seed, scale, workdir)
    written = None
    try:
        t1 = perf()
        expected = build_expected(w, inputs)
        written, disk_bytes = written_store(
            w, inputs, stack, expected, tally, workdir)
        t2 = perf()
        served = written if w.read_on_written else stack.kv

        rounds = scale.warmups + scale.kernel_reps

        def kernel(run):
            return Contender(run, scale.kernel_reps, scale.warmups)

        def slow(run, floor, warmups, offset):
            """Spread over the kernel rounds rather than run in each."""
            every = max(rounds // (warmups + floor), 1)
            return Contender(run, floor, warmups, every, offset)

        contenders = {
            name: kernel(run) for name, run in point_runs(
                w, inputs, stack, expected, tally).items()
        }
        contenders["range"] = kernel(
            range_run(w, inputs, stack, expected, tally))
        if not w.round_lookups:
            contenders["read"] = kernel(read_run(
                "lsm.store.lookup_batch", served.lookup_batch,
                inputs.read_pool, expected.read, 1, tally))
        contenders["shard"] = kernel(read_run(
            "serving.sharded.lookup_batch", stack.shards.lookup_batch,
            inputs.shard_pool, expected.shard, w.shard_calls_per_rep, tally))
        contenders["write"] = slow(
            write_run(w, scale, inputs, stack, expected, tally, workdir),
            scale.write_reps, scale.warmups - 1, 0)
        contenders["serve"] = slow(
            serve_run(w, scale, inputs, served, expected, tally, workdir),
            scale.serve_reps, scale.warmups, 1)
        with quiet_gc():
            kept = repetitions(contenders, seconds)
        print(f"{w.name}: set-up x{scale.setups} {t1 - t0:.1f} s, oracles and "
              f"first write pass {t2 - t1:.1f} s, measured {perf() - t2:.1f} s")

        _, written_keys, _, looked_keys = kept["write"][0]
        write_ns = by_position(
            [seconds for seconds, _, _, _ in kept["write"]], "ns/key",
            1e9 / written_keys)
        if w.round_lookups:
            read_ns = by_position(
                [lookup_s for _, _, lookup_s, _ in kept["write"]], "ns/key",
                1e9 / looked_keys)
        else:
            read_ns = metric(kept["read"], "ns/key", 1e9 / w.call_keys)
        ns_key = 1e9 / w.call_keys
        setup = metric(setup_samples, "s")
        # the first set-up also pays for imports and a cold page cache
        setup["value"] = float(min(setup_samples))
        metrics = {
            "setup_s": setup,
            "lookup_ns": metric(kept["rmi"], "ns/key", ns_key),
            "lookup_ns_pgm": metric(kept["pgm"], "ns/key", ns_key),
            "lookup_ns_rs": metric(kept["rs"], "ns/key", ns_key),
            "speedup_vs_searchsorted": ratio(
                kept["searchsorted"], kept["rmi"], "ratio"),
            "range_ns": metric(
                kept["range"], "ns/range",
                1e9 / (w.ranges_per_call * w.range_calls_per_rep)),
            "bytes_per_key": exact(
                stack.rmi.size_bytes() / inputs.keys.size, "B/key"),
            "write_ns": write_ns,
            "read_ns": read_ns,
            "disk_bytes_per_key": exact(
                disk_bytes / expected.live.size, "B/key"),
            "serve_kreq_s": metric(kept["serve"], "kreq/s", higher=True),
            "shard_read_ns": metric(
                kept["shard"], "ns/key", 1e9 / w.shard_call_keys),
        }
        return metrics, tally
    finally:
        if written is not None:
            written.close()
        stack.close()
