"""Concurrency tests for the LSM store (ISSUE 7).

Three layers of assurance for the repo's first threads:

* **Stress** — the races the thread-safety audit fixed, amplified with
  a tiny interpreter switch interval so broken code fails here: a
  memtable layout build racing the writer's record appends and
  scalar-segment folds (a torn triple, or a lock-free ``probe`` that
  misses an acknowledged write), and unsynchronized ``+=`` on the
  stats counters losing increments.  Run under ``PYTHONDEVMODE=1`` in
  the CI stress lane.
* **Differential oracle** — reader threads issuing ``lookup_batch`` /
  ``range_items_batch`` *while* the writer seals and the background
  worker merges, checked against a dict oracle.  Racing reads cannot
  be compared to a single oracle state, so the invariants are
  linearizability bounds: every write acknowledged before a read
  began must be visible, every value returned must be one the key
  actually held, and a quiesced final sweep must match the oracle
  exactly.
* **Crash fuzz mid-merge** — deterministic kills injected while the
  background worker owns the fault filesystem's site counter
  alongside the writer; acknowledged writes must survive recovery and
  tombstones must not resurrect, whichever thread died.
"""

import os
import sys
import threading

import numpy as np
import pytest

from fault_injection import FaultInjectingFilesystem, SimulatedCrash
from repro.lsm import LearnedLSMStore, Memtable, SizeTieredCompaction

#: Sweep stride for the mid-merge crash fuzz (same knob as
#: test_crash_recovery; the CI stress lane widens it).
STRIDE = max(1, int(os.environ.get("REPRO_CRASH_FUZZ_STRIDE", "1")))


@pytest.fixture
def fast_switching():
    """Amplify thread interleavings: switch the interpreter every
    ~1µs instead of every 5ms, making torn read-modify-write windows
    thousands of times more likely."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(previous)


def _run_threads(workers):
    """Start, join, and re-raise the first failure from any worker."""
    errors = []

    def wrap(fn):
        def run():
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001 — surfaced below
                errors.append(exc)

        return run

    threads = [threading.Thread(target=wrap(fn)) for fn in workers]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


# -- stress: the audited races -------------------------------------------------


class TestStress:
    def test_layout_build_races_appends_and_folds(self, fast_switching):
        """Readers building the run layout while the writer appends
        batch records and folds its scalar segment into one: every
        triple a reader gets is whole (sorted, unique, parallel, each
        value one its key was written with)."""
        mem = Memtable()
        stop = threading.Event()
        rng = np.random.default_rng(7)

        def writer():
            try:
                for i in range(400):
                    keys = rng.integers(0, 5_000, 64).astype(np.int64)
                    mem.put_batch(keys, keys * 2)
                    for key in keys[:4].tolist():
                        mem.put(key, key * 2)
                    mem.delete(int(keys[4]))
                    mem.delete_batch(keys[::3])
                    if i % 50 == 0:
                        mem.clear()
            finally:
                stop.set()

        def reader():
            while not stop.is_set():
                keys, values, dead = mem.entries()
                assert keys.size == values.size == dead.size
                if keys.size > 1:
                    assert (np.diff(keys) > 0).all()
                assert not values[dead].any()
                np.testing.assert_array_equal(values[~dead], keys[~dead] * 2)

        _run_threads([writer, reader, reader, reader])

    def test_scalar_probe_sees_every_acknowledged_write(
        self, fast_switching
    ):
        """A lock-free scalar ``probe`` racing layout builds (its own
        and other readers' ``entries``) and the writer's folds: a key
        whose write returned before the probe began must be found,
        whichever segment — dict, pending record or layout — holds it."""
        mem = Memtable()
        acked = [0]  # keys below this were all written, and returned
        stop = threading.Event()

        def writer():
            try:
                for base in range(0, 24_000, 48):
                    keys = np.arange(base, base + 40, dtype=np.int64)
                    mem.put_batch(keys, keys * 2)
                    for key in range(base + 40, base + 48):
                        mem.put(key, key * 2)
                    acked[0] = base + 48
            finally:
                stop.set()

        def prober(seed):
            def run():
                rng = np.random.default_rng(seed)
                while not stop.is_set():
                    top = acked[0]
                    if top == 0:
                        continue
                    for key in (top - 1, top - 9, int(rng.integers(top))):
                        if key >= 0:
                            assert mem.probe(key) == (True, False, key * 2)
            return run

        def builder():
            while not stop.is_set():
                top = acked[0]
                keys = mem.entries()[0]
                assert keys.size >= top
                np.testing.assert_array_equal(keys[:top], np.arange(top))

        _run_threads([writer, prober(1), prober(2), builder])

    def test_read_stats_exact_under_concurrent_lookups(
        self, fast_switching
    ):
        """N threads, L lookups each: the counter must land on exactly
        N*L.  Unfixed ``+=`` increments tear under the 1µs switch
        interval and undercount."""
        store = LearnedLSMStore(memtable_capacity=64)
        keys = np.arange(256, dtype=np.int64)
        store.insert_batch(keys, keys)
        per_thread, threads = 4_000, 6

        def prober():
            for i in range(per_thread):
                store.lookup(int(keys[i % keys.size]))

        _run_threads([prober] * threads)
        assert store.read_stats.lookups == per_thread * threads

    def test_write_stats_add_is_atomic(self, fast_switching):
        stats = LearnedLSMStore(memtable_capacity=2**30).write_stats

        def bump():
            for _ in range(10_000):
                stats.add(keys_written=1, entries_sealed=2)

        _run_threads([bump] * 6)
        assert stats.keys_written == 60_000
        assert stats.entries_sealed == 120_000


# -- differential oracle under background compaction ---------------------------


def _check_monotone_reads(store, universe, values_of, published, stop):
    """Reader body: every key acknowledged before the read began must
    be found with its (immutable) value; every hit must carry the
    right value; range items must agree with point lookups."""
    rng = np.random.default_rng(threading.get_ident() % 2**32)
    while not stop.is_set():
        floor = published[0]  # acked count before the read begins
        values, found = store.lookup_batch(universe)
        assert found[:floor].all(), "acked key invisible to lookup_batch"
        hits = np.nonzero(found)[0]
        assert np.array_equal(values[hits], values_of[hits])
        # Spot-check a range slice through the same snapshot contract.
        i = int(rng.integers(0, max(universe.size - 64, 1)))
        lo, hi = int(universe[i]), int(universe[i]) + 10_000
        result, vals = store.range_items_batch([lo], [hi])
        got = np.asarray(result[0], dtype=np.int64)
        assert (np.diff(got) > 0).all() if got.size > 1 else True
        pos = np.searchsorted(universe, got)
        assert np.array_equal(universe[pos], got), "range invented a key"
        assert np.array_equal(vals, values_of[pos])


@pytest.mark.parametrize("durable", [False, True])
def test_concurrent_readers_differential_oracle(tmp_path, durable):
    rng = np.random.default_rng(11)
    universe = np.sort(
        rng.choice(50_000_000, size=24_000, replace=False)
    ).astype(np.int64)
    order = rng.permutation(universe.size)
    values_of = universe * 7 + 1  # immutable value per key
    kwargs = dict(
        memtable_capacity=1_024,
        compaction=SizeTieredCompaction(min_runs=2),
        background=True,
    )
    if durable:
        kwargs["path"] = str(tmp_path / "db")
    store = LearnedLSMStore(**kwargs)
    try:
        published = [0]  # keys acked, in `order` position... see below
        stop = threading.Event()

        # Phase 1: monotone inserts (keys in sorted-prefix ack order so
        # readers can assert "first `published` universe keys visible").
        def writer():
            try:
                acked = np.zeros(universe.size, dtype=bool)
                frontier = 0
                for i in range(0, order.size, 500):
                    idx = order[i:i + 500]
                    store.insert_batch(universe[idx], values_of[idx])
                    acked[idx] = True
                    while frontier < acked.size and acked[frontier]:
                        frontier += 1
                    published[0] = frontier
            finally:
                stop.set()

        readers = [
            (
                lambda: _check_monotone_reads(
                    store, universe, values_of, published, stop
                )
            )
            for _ in range(3)
        ]
        _run_threads([writer] + readers)
        store.wait_for_compaction()

        # Quiesced: exact oracle equality.
        values, found = store.lookup_batch(universe)
        assert found.all()
        assert np.array_equal(values, values_of)

        # Phase 2: deletes racing reads — a key acked-deleted before a
        # read begins must stay invisible (no tombstone resurrection
        # through any snapshot), keys not yet deleted must remain.
        doomed = universe[: universe.size // 2]
        deleted = [0]
        stop2 = threading.Event()

        def deleter():
            try:
                for i in range(0, doomed.size, 400):
                    store.delete_batch(doomed[i:i + 400])
                    deleted[0] = i + min(400, doomed.size - i)
            finally:
                stop2.set()

        def tomb_reader():
            while not stop2.is_set():
                floor = deleted[0]
                values, found = store.lookup_batch(universe)
                assert not found[:floor].any(), "deleted key resurrected"
                assert found[doomed.size:].all(), "live key vanished"
                hits = np.nonzero(found)[0]
                assert np.array_equal(values[hits], values_of[hits])

        _run_threads([deleter, tomb_reader, tomb_reader])
        store.wait_for_compaction()
        survivors = store.live_keys()
        assert np.array_equal(survivors, universe[doomed.size:])
    finally:
        store.close()


def test_deferred_deletion_waits_for_pins(tmp_path):
    """White-box pin contract: a full compaction must not unlink run
    files while a read snapshot pins them; the sweep after the last
    unpin must."""
    store = LearnedLSMStore(
        path=str(tmp_path / "db"),
        memtable_capacity=128,
        compaction=SizeTieredCompaction(min_runs=2),
    )
    with store:
        keys = np.arange(1_000, dtype=np.int64)
        for i in range(0, keys.size, 100):
            store.insert_batch(keys[i:i + 100], keys[i:i + 100] + 5)
        assert store.num_runs >= 2
        pinned = store._pin_runs()
        paths = [r.path for r in pinned]
        store.compact()
        assert store.num_runs == 1
        # Superseded but pinned: every input file must still exist...
        assert all(os.path.exists(p) for p in paths)
        # ...and still answer probes through the pinned snapshot.
        hit, dead, value = pinned[0].probe(int(pinned[0].keys[0]))
        assert hit and not dead
        store._unpin_runs(pinned)
        store.wait_for_compaction()  # sweeps the now-unpinned retirees
        live = {os.path.basename(r.path) for r in store.runs}
        remaining = {
            n for n in os.listdir(str(tmp_path / "db"))
            if n.startswith("run-")
        }
        assert remaining == live


# -- crash fuzz: kills landing mid-background-merge ----------------------------


def _bg_workload_ops(seed=23):
    rng = np.random.default_rng(seed)
    ops = []
    inserted = np.empty(0, dtype=np.int64)
    for i in range(30):
        if i % 5 == 4 and inserted.size:
            kill = rng.choice(inserted, size=min(8, inserted.size),
                              replace=False).astype(np.int64)
            ops.append(("del", kill, None))
        else:
            keys = rng.integers(0, 10**7, 24).astype(np.int64)
            ops.append(("put", keys, keys * 3 + 1))
            inserted = np.concatenate([inserted, keys])
    return ops


def _oracle(ops, n):
    state = {}
    for kind, keys, vals in ops[:n]:
        if kind == "put":
            state.update(zip(keys.tolist(), vals.tolist()))
        else:
            for key in keys.tolist():
                state.pop(key, None)
    return state


def _store_state(directory):
    with LearnedLSMStore(path=directory, background=False) as store:
        keys = store.live_keys()
        values, found = store.lookup_batch(keys)
        assert found.all()
        return dict(zip(keys.tolist(), values.tolist()))


@pytest.mark.parametrize("mode", ["lose", "keep"])
def test_crash_mid_background_merge(tmp_path, mode):
    """Deterministic-schedule kills while the background worker shares
    the injection-site counter with the writer.  Which thread dies at
    a given site varies with scheduling — the *guarantee* must not:
    every acknowledged batch survives recovery (WAL fsync is the ack
    barrier), the in-flight batch is all-or-nothing, and deleted keys
    stay deleted."""
    ops = _bg_workload_ops()

    def drive(fs, directory, acked):
        store = LearnedLSMStore(
            path=directory,
            filesystem=fs,
            memtable_capacity=64,
            compaction=SizeTieredCompaction(min_runs=2),
            background=True,
        )
        try:
            for kind, keys, vals in ops:
                if kind == "put":
                    store.insert_batch(keys, vals)
                else:
                    store.delete_batch(keys)
                acked[0] += 1
            store.wait_for_compaction()
        finally:
            # The worker may crash *after* the workload acked — stop it
            # before leaving so a late SimulatedCrash cannot escape
            # into another test.  close() must not raise here even on
            # a crashed filesystem.
            try:
                store.close()
            except SimulatedCrash:
                pass

    # Background scheduling makes the total op count nondeterministic;
    # size the sweep from an undisturbed dry run and accept that high
    # sites may not be reached on some interleavings.
    probe = FaultInjectingFilesystem()
    drive(probe, str(tmp_path / "dry"), [0])
    assert _store_state(str(tmp_path / "dry")) == _oracle(ops, len(ops))

    skipped = 0
    for crash_at in range(1, probe.ops + 1, STRIDE):
        d = str(tmp_path / f"{mode}-{crash_at}")
        fs = FaultInjectingFilesystem(crash_at=crash_at, mode=mode)
        cell = [0]
        try:
            drive(fs, d, cell)
        except SimulatedCrash:
            pass
        if not fs.crashed:
            skipped += 1
            continue
        acked = cell[0]
        state = _store_state(d)
        candidates = [_oracle(ops, acked), _oracle(ops, acked + 1)]
        assert state in candidates, (
            f"{mode} crash at site {crash_at}: recovered state is not a "
            f"consistent cut (acked={acked})"
        )
    # The schedule must actually exercise mid-merge kills: the vast
    # majority of dry-run sites recur under fault runs too.
    assert skipped <= probe.ops // 2
