"""Sharded-store integration tests: worker processes, worker-held
snapshots on durable shards, the wire form, and a lost or hung worker.

That the sharded store, its snapshots and a coalescer over it answer
like a dict through any history of writes, flushes, compactions and
refused calls is ``test_kv_history.py``'s model-based history; this
file keeps what a history cannot see: run files, reopen and backup of
shard directories, frames, and failure.

Workers are real spawned processes, so each store here costs about
half a second of interpreter startup; tests share fixtures where
isolation allows and keep datasets small.
"""

from __future__ import annotations

import asyncio
import inspect
import multiprocessing
import os
import pathlib
import signal
import subprocess
import sys
import threading
from multiprocessing.reduction import ForkingPickler

import numpy as np
import pytest

from oracles import REFUSED_CALLS
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
    """One bulk-loaded 2-shard store, shared by the read-only tests."""
    keys, values = _dataset()
    with ShardedLSMStore(2, keys, values) as store:
        yield keys, store


class TestShardedReads:
    def test_splitter_balances_bulk_load(self, bulk):
        _keys, store = bulk
        sizes = [s["live_keys"] for s in store.shard_stats()]
        assert min(sizes) > 0.8 * max(sizes)

    def test_coalescer_over_sharded_store(self, bulk):
        keys, store = bulk

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


_DIES_AT_START_UP = """
import numpy as np
from repro.serving import ShardedLSMStore, ShardUnavailable
keys = np.arange(500_000, dtype=np.int64)
try:
    ShardedLSMStore(2, keys, keys)
except ShardUnavailable as exc:
    print("ShardUnavailable:", exc)
"""


def test_worker_dying_at_start_up_is_shard_unavailable(tmp_path):
    """Fed on stdin, the main module cannot be re-imported, so every
    spawned worker dies before it reads a frame.  A 500k-key bulk load
    must then fail the client's send, not block ``Process.start`` on a
    spawn payload bigger than the pipe that nobody reads."""
    src = str(pathlib.Path(sharded.__file__).parents[2])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-"], input=_DIES_AT_START_UP, text=True,
        capture_output=True, cwd=tmp_path, env=env, timeout=60,
    )
    assert "ShardUnavailable: shard " in done.stdout, done.stderr[-2000:]


# -- one read state: every holder answers through ReadView ---------------------
# (that they answer alike is test_kv_history.py's)

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

def test_refused_writes_append_no_wal_record(tmp_path):
    path = str(tmp_path / "durable")
    with LearnedLSMStore(path=path, background=False) as store:
        store.insert(3, 1)
        store.delete_batch([3, 4])
        for method, args, error in REFUSED_CALLS:
            with pytest.raises(error):
                getattr(store, method)(*args)
    with LearnedLSMStore(path=path, background=False) as reopened:
        assert reopened.recovered_wal_records == 2
        assert len(reopened) == 0


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
