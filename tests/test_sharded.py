"""Sharded-store integration tests: worker processes, worker-held
snapshots, differential correctness against a single-store oracle.

Workers are real spawned processes, so each store here costs ~a second
of interpreter startup; tests share fixtures where isolation allows
and keep datasets small.
"""

from __future__ import annotations

import asyncio
import inspect
import multiprocessing
import os
import pathlib
import signal
import threading
from multiprocessing.reduction import ForkingPickler

import numpy as np
import pytest

from repro import obs
from repro.lsm.store import KVSurface, LearnedLSMStore, ReadView, StoreSnapshot
from repro.serving import (
    CDFSplitter,
    CoalescingIndexServer,
    ShardedLSMStore,
    ShardUnavailable,
    sharded,
)

def _dataset(seed: int = 7, n: int = 20_000):
    rng = np.random.default_rng(seed)
    keys = np.unique(rng.integers(0, 10**9, n).astype(np.int64))
    return keys, keys * 7


@pytest.fixture(scope="module")
def bulk():
    """One bulk-loaded 2-shard store + its oracle, shared by the
    read-only tests."""
    keys, values = _dataset()
    oracle = LearnedLSMStore(keys, values, background=False)
    store = ShardedLSMStore(2, keys, values)
    yield keys, values, store, oracle
    store.close()
    oracle.close()


class TestShardedReads:
    def test_reads_match_oracle(self, bulk, rng):
        keys, _values, store, oracle = bulk
        queries = np.concatenate([
            rng.choice(keys, 800),
            rng.integers(0, 10**9, 200).astype(np.int64),
        ])
        expect_v, expect_f = oracle.lookup_batch(queries)
        values, found = store.lookup_batch(queries)
        assert np.array_equal(found, expect_f)
        assert np.array_equal(values[found], expect_v[expect_f])

    def test_ranges_stitch_across_shards(self, bulk, rng):
        keys, _values, store, oracle = bulk
        # Ranges straddling the shard boundary, fully inside one
        # shard, empty, and inverted.
        mid = int(store.splitter.boundaries[0])
        lows = np.array(
            [keys[0], mid - 10**6, mid, 10**9 + 5, 500, keys[100]],
            dtype=np.int64,
        )
        highs = np.array(
            [keys[-1], mid + 10**6, mid, 10**9 + 50, 400, keys[120]],
            dtype=np.int64,
        )
        expect = oracle.range_query_batch(lows, highs)
        got = store.range_query_batch(lows, highs)
        assert np.array_equal(
            np.asarray(got.values), np.asarray(expect.values)
        )
        assert np.array_equal(
            np.asarray(got.offsets), np.asarray(expect.offsets)
        )

    def test_range_items_carry_payloads(self, bulk):
        keys, _values, store, oracle = bulk
        lows = np.array([keys[10], keys[5000]], dtype=np.int64)
        highs = np.array([keys[40], keys[5030]], dtype=np.int64)
        got, payloads = store.range_items_batch(lows, highs)
        expect, expect_payloads = oracle.range_items_batch(lows, highs)
        assert np.array_equal(
            np.asarray(got.values), np.asarray(expect.values)
        )
        assert np.array_equal(payloads, expect_payloads)

    def test_scalar_helpers(self, bulk):
        keys, _values, store, _oracle = bulk
        k = int(keys[123])
        assert store.lookup(k) == k * 7
        assert store.contains(k)
        assert store.lookup(k + 1) is None or keys[124] == k + 1
        span = store.range_query(int(keys[10]), int(keys[15]))
        assert np.array_equal(span, keys[10:16])

    def test_splitter_balances_bulk_load(self, bulk):
        _keys, _values, store, _oracle = bulk
        sizes = [s["live_keys"] for s in store.shard_stats()]
        assert min(sizes) > 0.8 * max(sizes)

    def test_coalescer_over_sharded_store(self, bulk):
        keys, _values, store, _oracle = bulk

        async def main():
            srv = CoalescingIndexServer(store)
            sample = keys[::997]
            results = await asyncio.gather(
                *(srv.lookup(int(k)) for k in sample),
                srv.range_query(int(keys[0]), int(keys[25])),
            )
            assert results[:-1] == [int(k) * 7 for k in sample]
            assert np.array_equal(results[-1], keys[:26])
            return srv.stats

        stats = asyncio.run(main())
        assert stats.store_calls <= 4  # coalesced, not per-request


class TestShardedWrites:
    def test_differential_interleaved_history(self, tmp_path):
        """Reads interleaved with writes, deletes, seals, and
        compactions must match the single-store oracle at every
        step — including reads taken through a pinned snapshot while
        later writes land."""
        rng = np.random.default_rng(42)
        keys, values = _dataset(seed=3, n=6_000)
        with LearnedLSMStore(
            background=False, memtable_capacity=1_024
        ) as oracle, ShardedLSMStore(
            2,
            sample_keys=keys,
            store_kwargs={"memtable_capacity": 1_024},
        ) as store:
            universe = np.unique(
                np.concatenate([
                    keys, rng.integers(0, 10**9, 2_000).astype(np.int64)
                ])
            )
            snap = None
            snap_expect = None
            for step in range(8):
                batch = rng.choice(keys, 700)
                vals = batch * (step + 2)
                store.insert_batch(batch, vals)
                oracle.insert_batch(batch, vals)
                dels = rng.choice(keys, 150)
                store.delete_batch(dels)
                oracle.delete_batch(dels)
                if step == 2:
                    store.flush()
                    oracle.flush()
                if step == 4:
                    store.compact()
                    oracle.compact()
                if step == 5:
                    snap = store.snapshot()
                    snap_expect = oracle.lookup_batch(universe)
                probe = rng.choice(universe, 500)
                expect_v, expect_f = oracle.lookup_batch(probe)
                got_v, got_f = store.lookup_batch(probe)
                assert np.array_equal(got_f, expect_f), step
                assert np.array_equal(
                    got_v[got_f], expect_v[expect_f]
                ), step
                lows = rng.choice(universe, 20)
                highs = lows + rng.integers(0, 10**7, 20)
                expect_r = oracle.range_query_batch(lows, highs)
                got_r = store.range_query_batch(lows, highs)
                assert np.array_equal(
                    np.asarray(got_r.values),
                    np.asarray(expect_r.values),
                ), step
            # The snapshot still answers from step-5 state even after
            # three more rounds of writes, seals and compactions.
            snap_v, snap_f = snap.lookup_batch(universe)
            assert np.array_equal(snap_f, snap_expect[1])
            assert np.array_equal(
                snap_v[snap_f], snap_expect[0][snap_expect[1]]
            )
            snap.release()

    def test_read_your_writes_and_empty_store(self):
        with ShardedLSMStore(2) as store:
            _v, f = store.lookup_batch(
                np.array([1, 2, 3], dtype=np.int64)
            )
            assert not f.any()
            empty = store.range_query_batch([0], [10**9])
            assert empty.total == 0
            store.insert(5, 50)
            assert store.lookup(5) == 50
            store.delete(5)
            assert store.lookup(5) is None

    def test_worker_held_snapshot_on_durable_shards(self, tmp_path):
        """A snapshot pins each shard's runs in its worker: it answers
        the old values across an overwrite, a flush and a compaction;
        its release lets the workers delete the runs it held; one left
        unreleased does not outlive close()."""
        keys = np.arange(0, 40_000, 2, dtype=np.int64)
        split = CDFSplitter.fit(keys, 2)

        def run_files() -> list:
            return [
                {f.name for f in (tmp_path / f"shard-{i}").glob("run-*.run")}
                for i in range(2)
            ]

        with ShardedLSMStore(
            2, keys, keys, splitter=split, path=str(tmp_path),
            store_kwargs={"memtable_capacity": 2_048},
        ) as store:
            snap = store.snapshot()
            pinned = run_files()
            assert all(pinned)
            store.insert_batch(keys, keys * 9)
            store.flush()
            store.compact()
            values, found = snap.lookup_batch(keys)
            assert found.all() and np.array_equal(values, keys)
            scan = snap.range_query_batch([keys[0]], [keys[99]])
            assert np.array_equal(scan[0], keys[:100])
            assert all(old <= now for old, now in zip(pinned, run_files()))
            snap.release()
            snap.release()  # idempotent
            assert not any(old & now for old, now in zip(pinned, run_files()))
            with pytest.raises(ValueError, match="released"):
                snap.lookup_batch(keys[:5])
            held = store.snapshot()
            store.insert_batch(keys[:10], keys[:10] * 5)
        assert not any(proc.is_alive() for proc in store._procs)
        held.release()  # the workers are gone: nothing to release
        live = keys * 9
        live[:10] = keys[:10] * 5
        with ShardedLSMStore(2, splitter=split, path=str(tmp_path)) as store:
            values, found = store.lookup_batch(keys)
            assert found.all() and np.array_equal(values, live)

    def test_snapshots_pin_their_own_states(self):
        """Each snapshot holds its own cross-shard state, memtable
        included; releasing one leaves the others answering."""
        keys = np.arange(0, 4_000, 2, dtype=np.int64)
        second_v, second_f = keys.copy(), np.ones(keys.size, dtype=bool)
        second_v[:100] *= 3
        second_v[100:200], second_f[100:200] = 0, False
        with ShardedLSMStore(2, keys, keys) as store:
            first = store.snapshot()
            store.insert_batch(keys[:100], keys[:100] * 3)
            store.delete_batch(keys[100:200])
            with store.snapshot() as second:
                store.flush()
                store.insert_batch(keys, keys * 5)
                store.compact()
                values, found = first.lookup_batch(keys)
                assert found.all() and np.array_equal(values, keys)
                first.release()
                values, found = second.lookup_batch(keys)
                assert np.array_equal(found, second_f)
                assert np.array_equal(values, second_v)
                assert np.array_equal(store.lookup_batch(keys)[0], keys * 5)
            for snap in (first, second):
                with pytest.raises(ValueError, match="released"):
                    snap.range_query_batch([0], [10])

    def test_durable_shards_reopen(self, tmp_path):
        keys, values = _dataset(seed=9, n=4_000)
        split = CDFSplitter.fit(keys, 2)
        with ShardedLSMStore(
            2, splitter=split, path=str(tmp_path)
        ) as store:
            store.insert_batch(keys, values)
            store.delete_batch(keys[::7])
            store.flush()
        with ShardedLSMStore(
            2, splitter=split, path=str(tmp_path)
        ) as store:
            got_v, got_f = store.lookup_batch(keys)
            deleted = np.zeros(keys.size, dtype=bool)
            deleted[::7] = True
            assert np.array_equal(got_f, ~deleted)
            assert np.array_equal(got_v[got_f], values[~deleted])

    def test_sharded_backup(self, tmp_path):
        keys, values = _dataset(seed=11, n=3_000)
        src = tmp_path / "src"
        dst = tmp_path / "bak"
        split = CDFSplitter.fit(keys, 2)
        with ShardedLSMStore(
            2, splitter=split, path=str(src)
        ) as store:
            store.insert_batch(keys, values)
            store.flush()
            store.backup(str(dst))
        with ShardedLSMStore(
            2, splitter=split, path=str(dst)
        ) as restored:
            got_v, got_f = restored.lookup_batch(keys)
            assert got_f.all()
            assert np.array_equal(got_v, values)

    def test_worker_error_relayed_store_stays_usable(self, tmp_path):
        with ShardedLSMStore(
            2, path=str(tmp_path / "s")
        ) as store:
            store.insert(1, 10)
            busy = tmp_path / "busy"
            busy.mkdir()
            (busy / "shard-0").mkdir()
            (busy / "shard-0" / "junk").write_text("x")
            with pytest.raises(RuntimeError, match="shard 0"):
                store.backup(str(busy))
            # The failed command did not wedge the worker protocol.
            assert store.lookup(1) == 10
            store.insert(2, 20)
            assert store.lookup(2) == 20

    def test_closed_store_rejects_use(self):
        store = ShardedLSMStore(1)
        store.close()
        store.close()  # idempotent
        with pytest.raises(ValueError):
            store.lookup_batch(np.array([1], dtype=np.int64))
        with pytest.raises(ValueError):
            store.insert(1, 1)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            ShardedLSMStore(0)
        split = CDFSplitter.uniform(3)
        with pytest.raises(ValueError):
            ShardedLSMStore(2, splitter=split)
        for via in ("auto", "local"):  # reads have one path
            with pytest.raises(ValueError, match="read_via"):
                ShardedLSMStore(1, read_via=via)
        with ShardedLSMStore(1) as store:
            with pytest.raises(ValueError):
                store.insert_batch(
                    np.array([1, 2], dtype=np.int64),
                    np.array([1], dtype=np.int64),
                )


# -- wire form: one raw frame per message, and a lost shard fails closed -------

_LO, _HI = np.iinfo(np.int64).min, np.iinfo(np.int64).max


def _obs_tail() -> dict:
    registry = obs.MetricsRegistry()
    registry.counter("serving.sharded.test").inc(3)
    span = {"name": "worker.flush", "trace_id": "t1", "span_id": "s1"}
    return {"spans": [span], "metrics": registry.snapshot()}


#: id -> (op, arrays, tail): every command and ack shape the store sends.
_FRAMES = {
    "close": ("close", (), None),
    "flush_traced": ("flush", (), {"trace": {"trace_id": "t1"}}),
    "backup": ("backup", (), {"dest": "/some/dir"}),
    "lookup_empty": ("lookup_batch", (np.empty(0, dtype=np.int64),), None),
    "lookup_one": ("lookup_batch", (np.array([42]),), None),
    "insert_extremes": (
        "insert_batch",
        (np.array([_LO, -1, 0, _HI]), np.array([_HI, 7, 0, _LO])),
        None,
    ),
    "delete": ("delete_batch", (np.array([5, 3, 5]),), None),
    "range_float_ends": (
        "range_items_batch",
        (np.array([1.5, -np.inf]), np.array([7.5, 2.0])),
        None,
    ),
    "lookup_ack": (
        "ack", (np.array([7, 0, _LO]), np.array([True, False, True])), None,
    ),
    "range_items_ack": (
        "ack", (np.arange(5), np.array([0, 2, 5]), np.arange(5) * 7), None,
    ),
    "over_16k": (  # Connection sends header and body separately
        "ack", (np.arange(4_001), np.arange(4_001) % 3 == 0), None,
    ),
    "spawn_ack": ("ack", (), None),  # also every untraced write ack
    "traced_ack": ("ack", (), {"obs": _obs_tail()}),
    "stats_ack": ("ack", (), {"stats": {"num_runs": 2, "memtable": 0}}),
    "error_ack": ("error", (), {"error": "OSError: busy", "obs": _obs_tail()}),
    "snapshot": ("snapshot", (), {"snapshot": 3}),
    "release": ("release", (), {"snapshot": 3}),
    "snapshot_lookup": ("lookup_batch", (np.array([42]),), {"snapshot": 3}),
    "snapshot_read": (
        "range_query_batch", (np.array([1]), np.array([9])), {"snapshot": 3},
    ),
}


def _plain(tail: dict) -> dict:
    if "obs" not in tail:
        return tail
    metrics = tail["obs"]["metrics"].to_dict()
    return {**tail, "obs": {**tail["obs"], "metrics": metrics}}


@pytest.mark.parametrize(
    "op, arrays, tail", _FRAMES.values(), ids=list(_FRAMES)
)
def test_frame_round_trip(op, arrays, tail):
    sent = sharded._encode(op, 2**40 + 3, arrays, tail)
    near, far = multiprocessing.Pipe()
    try:
        near.send_bytes(sent)
        frame = far.recv_bytes()
    finally:
        near.close()
        far.close()
    assert frame == sent
    got_op, seq, got, got_tail = sharded._decode(frame)
    assert (got_op, seq) == (op, 2**40 + 3)
    assert len(got) == len(arrays)
    for array, want in zip(got, arrays):
        assert array.dtype == want.dtype
        assert np.array_equal(array, want)
        assert array.base is frame
        assert array.flags.aligned and not array.flags.writeable
    assert _plain(got_tail) == _plain(tail or {})
    if op == "lookup_batch" and not tail:  # a plain read carries no tail
        assert len(frame) == 16 + 16 + -(-arrays[0].nbytes // 8) * 8


def test_client_pickles_nothing(monkeypatch):
    """With telemetry off, writes, flushes and reads outside a
    snapshot are raw frames both ways."""
    calls = []
    dumps, loads = ForkingPickler.dumps, ForkingPickler.loads

    def counting_dumps(cls, obj, protocol=None):
        calls.append(("dumps", obj))
        return dumps(obj, protocol)

    def counting_loads(data, *args, **kwargs):
        calls.append(("loads", data))
        return loads(data, *args, **kwargs)

    monkeypatch.delenv("REPRO_OBS", raising=False)  # spawned workers too
    prev = obs.set_enabled(False)
    keys = np.arange(0, 20_000, 2, dtype=np.int64)
    fresh = np.arange(1, 129, 2, dtype=np.int64)
    lows, highs = keys[:40:10], keys[5:45:10]
    try:
        with ShardedLSMStore(2, keys, keys * 7) as store:
            monkeypatch.setattr(
                ForkingPickler, "dumps", classmethod(counting_dumps)
            )
            monkeypatch.setattr(
                ForkingPickler, "loads", staticmethod(counting_loads)
            )
            store.insert_batch(fresh, fresh * 3)
            store.delete_batch(fresh[::2])
            store.flush()
            values, found = store.lookup_batch(np.concatenate([keys, fresh]))
            scan = store.range_query_batch(lows, highs)
    finally:
        obs.set_enabled(prev)
    assert calls == []
    alive = np.ones(fresh.size, dtype=bool)
    alive[::2] = False
    assert found[: keys.size].all()
    assert np.array_equal(found[keys.size:], alive)
    assert np.array_equal(values[: keys.size], keys * 7)
    assert np.array_equal(values[keys.size:][alive], fresh[alive] * 3)
    assert [list(r) for r in scan] == [
        [k for k in range(lo, hi + 1) if k % 2 == 0 or k in fresh[alive]]
        for lo, hi in zip(lows.tolist(), highs.tolist())
    ]


def test_decoded_arrays_are_read_only_and_never_written(tmp_path):
    """A worker hands frame views straight to its store: every write,
    read and range op, the WAL and a seal must take them read-only."""
    keys = np.array([9, 3, 7, 3, 2**62], dtype=np.int64)

    def views(*arrays):
        got = sharded._decode(sharded._encode("ack", 1, arrays))[2]
        assert not any(a.flags.writeable for a in got)
        return got

    path = str(tmp_path / "store")
    with LearnedLSMStore(
        path=path, background=False, memtable_capacity=4
    ) as store:
        store.insert_batch(*views(keys, keys + 1))
        assert store.num_runs == 1  # the seal built a run from them
        store.delete_batch(*views(keys[:1]))
        store.insert_batch(*views(np.array([11])))
        assert store.lookup_batch(*views(keys))[1].tolist() == [
            False, True, True, True, True
        ]
        lows, highs = views(np.array([0, 5]), np.array([8, 2**62]))
        assert [list(r) for r in store.range_query_batch(lows, highs)] == [
            [3, 7], [7, 11, 2**62]
        ]
        scan, payloads = store.range_items_batch(lows, highs)
        assert payloads.tolist() == [4, 8, 8, 11, 2**62 + 1]
    with LearnedLSMStore(path=path, background=False) as reopened:
        values, _found = reopened.lookup_batch(keys)
        assert values.tolist() == [0, 4, 8, 4, 2**62 + 1]


def _kill_worker(store, shard):
    proc = store._procs[shard]
    proc.kill()
    proc.join(timeout=10)
    assert proc.exitcode is not None


def _stray_command(store, shard):
    # A command the client did not count: its ack arrives first.
    store._conns[shard].send_bytes(sharded._encode("stats", 0))


@pytest.mark.parametrize(
    "fault", [_kill_worker, _stray_command], ids=["killed", "stray_ack"]
)
def test_lost_shard_fails_closed_and_leaves_nothing(fault):
    keys = np.arange(0, 2_000, 2, dtype=np.int64)
    store = ShardedLSMStore(2, keys, keys * 10)
    try:
        owner = store.splitter.shard_of_batch(keys)
        first, second = keys[owner == 0], keys[owner == 1]
        fault(store, 1)
        with pytest.raises(ShardUnavailable, match="shard 1"):
            store.lookup_batch(np.concatenate([first[:8], second[:8]]))
        # An ack of that call is still unread; a store that read it as
        # this call's answer would return the first call's values.
        with pytest.raises(ShardUnavailable):
            store.lookup_batch(first[100:108])
        with pytest.raises(ShardUnavailable):
            store.insert(1, 1)
    finally:
        store.close()
    assert not any(proc.is_alive() for proc in store._procs)


def test_snapshot_fails_closed_with_its_store():
    keys = np.arange(0, 2_000, 2, dtype=np.int64)
    with ShardedLSMStore(2, keys, keys) as store:
        snap = store.snapshot()
        _kill_worker(store, 1)
        with pytest.raises(ShardUnavailable, match="shard 1"):
            snap.lookup_batch(keys)
        with pytest.raises(ShardUnavailable):
            store.snapshot()
        snap.release()  # a failed store's workers are not asked
    assert not any(proc.is_alive() for proc in store._procs)


def test_close_returns_despite_a_hung_worker(monkeypatch):
    monkeypatch.setattr(sharded, "CLOSE_GRACE_S", 0.5)
    store = ShardedLSMStore(2, np.arange(0, 2_000, 2, dtype=np.int64))
    hung = store._procs[1]
    os.kill(hung.pid, signal.SIGSTOP)
    closer = threading.Thread(target=store.close, daemon=True)
    closer.start()
    try:
        closer.join(timeout=30)
        assert not closer.is_alive(), "close() blocked on a stopped worker"
    finally:
        if hung.is_alive():  # let a blocked close() finish after all
            os.kill(hung.pid, signal.SIGCONT)
            closer.join()
    assert not any(proc.is_alive() for proc in store._procs)


# -- one read state: every holder answers through ReadView ---------------------

_BIG = 2**53


def _replay_history(write, model: dict) -> None:
    """One write history, applied to a store (through ``write``) and
    to the dict oracle alike: three flushed generations with
    overwrites, deletes and resurrections, then an unflushed tail of
    puts *and* tombstones.  Keys >= 2^53 alias their neighbours in
    float64, so any float round trip in a read path shows up."""
    keys = np.concatenate([
        np.arange(0, 600, 2), _BIG + np.arange(0, 600, 3)
    ]).astype(np.int64)

    def put(batch, factor):
        write("insert_batch", batch, batch * factor)
        model.update(zip(batch.tolist(), (batch * factor).tolist()))

    def delete(batch):
        write("delete_batch", batch)
        for key in batch.tolist():
            model.pop(key, None)

    put(keys, 3)
    write("flush")
    put(keys[::5], 5)
    delete(keys[1::7])
    write("flush")
    put(np.arange(1, 100, 2, dtype=np.int64), 7)
    put(keys[1::14], 11)
    delete(keys[2::9])
    write("flush")
    put(keys[3::11], 13)
    put(np.array([_BIG + 1], dtype=np.int64), 17)
    delete(np.concatenate([keys[4::13], [12_345]]).astype(np.int64))


class _SyncCoalescer:
    """Drive a CoalescingIndexServer like a plain store."""

    def __init__(self, store):
        self._server = CoalescingIndexServer(store)

    def lookup_batch(self, keys):
        return asyncio.run(self._server.lookup_batch(keys))

    def range_query_batch(self, lows, highs):
        return asyncio.run(self._server.range_query_batch(lows, highs))


@pytest.fixture(scope="module")
def read_holders():
    model: dict = {}
    single = LearnedLSMStore(background=False)
    _replay_history(lambda op, *a: getattr(single, op)(*a), model)
    sharded = ShardedLSMStore(2, sample_keys=np.array(sorted(model)))
    _replay_history(lambda op, *a: getattr(sharded, op)(*a), {})
    # The state the issue asks for: >= 3 runs under a memtable holding
    # both puts and tombstones — in the single store and in each shard.
    assert single.num_runs >= 3
    _keys, _values, dead = single.memtable.entries()
    assert dead.any() and not dead.all()
    for stats in sharded.shard_stats():
        assert stats["num_runs"] >= 3 and stats["memtable"] > 0
    snapshots = [single.snapshot(), sharded.snapshot()]
    holders = {
        "store": single,
        "store_snapshot": snapshots[0],
        "sharded": sharded,
        "sharded_snapshot": snapshots[1],
        "coalescer": _SyncCoalescer(single),
        "sharded_coalescer": _SyncCoalescer(sharded),  # the serving stack
    }
    yield model, holders
    for snap in snapshots:
        snap.release()
    sharded.close()
    single.close()


_HOLDERS = (
    "store", "store_snapshot", "sharded", "sharded_snapshot", "coalescer",
    "sharded_coalescer",
)


@pytest.mark.parametrize("name", _HOLDERS)
class TestReadHolderConformance:
    """Every holder of an LSM read state gives the dict replay's
    answer, for all three reads — they are one ReadView."""

    def test_point_reads(self, read_holders, name):
        model, holders = read_holders
        view = holders[name]
        live = np.array(sorted(model), dtype=np.int64)
        queries = np.concatenate([
            live[::3],                       # present (some overwritten)
            np.arange(0, 700, 1),            # small: present/deleted/absent
            _BIG + np.arange(-2, 610),       # >= 2^53 neighbours
            [12_345, -5, 2**62],
        ]).astype(np.int64)
        values, found = view.lookup_batch(queries)
        expect_found = np.array([int(q) in model for q in queries])
        assert np.array_equal(found, expect_found)
        assert values[found].tolist() == [
            model[int(q)] for q in queries[expect_found]
        ]
        assert not values[~found].any()
        empty_v, empty_f = view.lookup_batch(np.empty(0, dtype=np.int64))
        assert empty_v.size == 0 and empty_f.size == 0

    def test_float_point_batch_is_a_type_error(self, read_holders, name):
        _model, holders = read_holders
        with pytest.raises(TypeError):
            holders[name].lookup_batch(np.array([1.5, 2.0]))

    def _check_ranges(self, model, view, lows, highs, *, items):
        live = sorted(model)
        expect = [
            [k for k in live if lo <= k <= hi]
            for lo, hi in zip(lows.tolist(), highs.tolist())
        ]
        got = view.range_query_batch(lows, highs)
        assert [np.asarray(r).tolist() for r in got] == expect
        if items:
            scan, payloads = view.range_items_batch(lows, highs)
            assert [np.asarray(r).tolist() for r in scan] == expect
            assert payloads.tolist() == [
                model[k] for keys in expect for k in keys
            ]

    def test_integer_ranges(self, read_holders, name):
        model, holders = read_holders
        lows = np.array(
            [0, 37, 500, 90, -10, _BIG - 3, _BIG + 1, 10**6], dtype=np.int64
        )
        highs = np.array(
            [60, 37, _BIG + 9, 10, 2**62, _BIG + 1, _BIG + 40, 10**7],
            dtype=np.int64,
        )
        self._check_ranges(
            model, holders[name], lows, highs,
            items=not name.endswith("coalescer"),
        )
        empty = holders[name].range_query_batch(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        )
        assert len(empty) == 0 and empty.total == 0

    def test_half_integer_endpoints(self, read_holders, name):
        model, holders = read_holders
        lows = np.array([1.5, 9.5, 3.5, 100.5])
        highs = np.array([7.5, 20.5, 3.5, 90.5])
        if name.endswith("coalescer"):
            # One packed int64 array per tick: refused, not truncated.
            with pytest.raises(TypeError):
                holders[name].range_query_batch(lows, highs)
            return
        self._check_ranges(model, holders[name], lows, highs, items=True)


def test_sharded_store_reads_only_through_readview():
    # The serving layer holds read states; it must not regrow a read
    # implementation of its own beside lsm.store.ReadView.
    source = inspect.getsource(sharded)
    for name in (
        "searchsorted", "merge_scan_results", "bloom_contains_batch",
        "probe_batch",
    ):
        assert name not in source, name
    assert issubclass(StoreSnapshot, ReadView)
    # ...and answers through the workers' stores, not over mapped
    # copies of their state.
    for module in pathlib.Path(sharded.__file__).parents[1].rglob("*.py"):
        assert "shared_memory" not in module.read_text(), module


# -- one store surface: one key contract on every entry point (ISSUE 20) -------

_U64 = np.array([2**64 - 5], dtype=np.uint64)  # wraps onto key -5 if cast

#: (method, args, error): calls that used to answer for a neighbouring
#: key, write one, or wedge the store — each a typed refusal now.
_REFUSED = (
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


def _refuse_all(store) -> None:
    for method, args, error in _REFUSED:
        with pytest.raises(error):
            getattr(store, method)(*args)


def test_refused_calls_leave_every_holder_unchanged(read_holders):
    model, holders = read_holders
    single, shards = holders["store"], holders["sharded"]
    server = holders["coalescer"]._server
    written = single.write_stats.keys_written
    _refuse_all(single)
    _refuse_all(shards)
    for key, error in ((2.5, TypeError), (2**64 - 5, OverflowError)):
        with pytest.raises(error):
            asyncio.run(server.lookup(key))
    with pytest.raises(TypeError):  # the coalescer's own batch contract
        asyncio.run(server.range_query(2.5, 6.5))
    # Float range endpoints are not keys: they bound the range.
    expect = [k for k in sorted(model) if 2.5 <= k <= 6.5]
    assert single.range_query(2.5, 6.5).tolist() == expect
    assert shards.range_query(2.5, 6.5).tolist() == expect
    # Nothing landed, nothing is wedged: contents are the dict replay.
    assert single.write_stats.keys_written == written
    assert len(single) == len(model)
    assert sum(s["live_keys"] for s in shards.shard_stats()) == len(model)
    probe = np.array(sorted(model) + [-5, 4, 7, 8, 1000, 2**62], dtype=np.int64)
    for name in ("store", "sharded", "coalescer"):
        values, found = holders[name].lookup_batch(probe)
        assert found.tolist() == [int(k) in model for k in probe], name
        assert values[found].tolist() == [model[int(k)] for k in probe[found]]
    assert asyncio.run(server.lookup(np.int64(1))) == model[1]


def test_scalars_agree_with_one_element_batches(tmp_path):
    keys = [3, np.int64(_BIG + 1), np.uint32(77), _BIG + 2, -9, _BIG]
    path = str(tmp_path / "durable")
    with LearnedLSMStore(background=False) as mem, LearnedLSMStore(
        path=path, background=False
    ) as durable, ShardedLSMStore(
        2, sample_keys=np.array([0, _BIG])
    ) as shards:
        for store in (mem, durable, shards):
            model: dict = {}
            with LearnedLSMStore(background=False) as twin:
                for i, key in enumerate(keys):
                    store.insert(key, np.int64(i + 1))
                    twin.insert_batch([key], [i + 1])
                    model[int(key)] = i + 1
                store.insert(5)
                twin.insert_batch([5])
                model[5] = 5
                store.delete(np.int64(3))
                twin.delete_batch([3])
                del model[3]
                _refuse_all(store)
                probe = sorted(model) + [3, 4, _BIG + 3]
                for got, want in zip(
                    store.lookup_batch(probe), twin.lookup_batch(probe)
                ):
                    assert np.array_equal(got, want)
            for key in probe:
                values, found = store.lookup_batch([key])
                batch = int(values[0]) if found[0] else None
                assert store.lookup(np.int64(key)) == batch == model.get(key)
                assert store.contains(key) == (key in model)
                assert store.contains_batch([key]).tolist() == [key in model]
            span = store.range_query(-10, _BIG + 2).tolist()
            assert span == sorted(model)
            assert span == list(store.range_query_batch([-10], [_BIG + 2])[0])
    # The WAL holds the eight acknowledged writes and no refused one.
    with LearnedLSMStore(path=path, background=False) as reopened:
        assert reopened.recovered_wal_records == len(keys) + 2
        assert reopened.lookup_batch(sorted(model))[0].tolist() == [
            model[k] for k in sorted(model)
        ]
        assert len(reopened) == len(model)


def test_store_surface_is_written_once():
    derived = {
        "insert", "insert_batch", "delete", "delete_batch",
        "lookup", "contains", "contains_batch", "range_query",
    }
    assert not derived & set(vars(ShardedLSMStore))
    assert derived & set(vars(LearnedLSMStore)) == {"insert", "delete", "lookup"}
    for holder in (LearnedLSMStore, ShardedLSMStore):
        assert issubclass(holder, KVSurface) and "_write" in vars(holder)
    for reader in (
        ReadView, StoreSnapshot, sharded.ShardedSnapshot, CoalescingIndexServer
    ):
        assert not hasattr(reader, "_write") and not hasattr(reader, "insert")
