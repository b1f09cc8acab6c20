"""The LSM write buffer against a dict oracle.

:class:`repro.lsm.Memtable` keeps batch writes as owned array records
and a scalar dict as its newest segment, and builds the sorted run
layout once per read after a burst of writes.  These tests replay
random write histories against a plain ``dict`` and check every read
after every step; they pin that the buffer owns what it was handed,
that the store seals on the same write as exact distinct counting, and
the newest-wins helper the write paths share.
"""

import numpy as np
import pytest

from repro.dispatch import PACKED_ORDER_MIN_KEYS, PROBE_SCAN_MAX_KEYS
from repro.lsm import LearnedLSMStore, Memtable
from repro.util import newest_per_key


def _oracle_triple(state: dict):
    """The run layout of a ``key -> value | None`` dict (None = tombstone)."""
    keys = np.array(sorted(state), dtype=np.int64)
    values = np.array([state[k] or 0 for k in keys.tolist()], dtype=np.int64)
    dead = np.array([state[k] is None for k in keys.tolist()], dtype=bool)
    return keys, values, dead


def _check(mem: Memtable, state: dict, universe: int, rng, read: str):
    """Every read of ``mem`` equals the oracle; ``read`` picks which
    read goes first, so a probe-triggered build is exercised too."""
    if read == "probe":
        for key in rng.integers(-2, universe + 2, 16).tolist():
            want = state.get(key, False)
            if want is False:
                assert mem.probe(key) == (False, False, 0)
            else:
                assert mem.probe(key) == (True, want is None, want or 0)
    assert mem.len_bound() >= len(state)
    keys, values, dead = mem.entries()
    want = _oracle_triple(state)
    np.testing.assert_array_equal(keys, want[0])
    np.testing.assert_array_equal(values, want[1])
    np.testing.assert_array_equal(dead, want[2])
    assert len(mem) == len(state)
    tombs = int(want[2].sum())
    assert mem.size_bytes() == (len(state) - tombs) * 16 + tombs * 8
    for key in list(state)[:32]:
        assert mem.probe(key) == (True, state[key] is None, state[key] or 0)


class TestDifferential:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_history_matches_dict(self, seed):
        rng = np.random.default_rng(seed)
        universe = int(rng.choice([8, 64, 400]))
        mem, state = Memtable(), {}
        for _ in range(150):
            op = rng.choice(
                ["put_batch", "delete_batch", "put", "delete", "clear"],
                p=[0.35, 0.2, 0.2, 0.2, 0.05],
            )
            size = int(rng.integers(0, 40))
            keys = rng.integers(0, universe, size)
            if op == "put_batch":
                values = rng.integers(-(2**62), 2**62, size)
                mem.put_batch(keys, values)
                state.update(zip(keys.tolist(), values.tolist()))
            elif op == "delete_batch":
                mem.delete_batch(keys)
                state.update(dict.fromkeys(keys.tolist()))
            elif op == "put":
                for key in keys[:4].tolist():
                    mem.put(key, key + 1)
                    state[key] = key + 1
            elif op == "delete":
                for key in keys[:4].tolist():
                    mem.delete(key)
                    state[key] = None
            else:
                mem.clear()
                state.clear()
            if rng.random() < 0.5:
                _check(mem, state, universe, rng,
                       read=rng.choice(["probe", "entries"]))
        _check(mem, state, universe, rng, read="probe")

    @pytest.mark.parametrize(
        "history, want",
        [
            # put then delete of one key, each in both forms
            ([("put_batch", [5], [50]), ("delete", 5)], {5: None}),
            ([("put", 5, 50), ("delete_batch", [5])], {5: None}),
            ([("delete_batch", [5]), ("put", 5, 51)], {5: 51}),
            ([("delete", 5), ("put_batch", [5, 5], [1, 2])], {5: 2}),
            # a batch after scalar writes lands after them
            ([("put", 1, 10), ("put", 2, 20), ("put_batch", [2], [21])],
             {1: 10, 2: 21}),
            # duplicates inside one batch: the last wins
            ([("put_batch", [3, 1, 3, 3, 1], [1, 2, 3, 4, 5])], {1: 5, 3: 4}),
            ([("put_batch", [7], [70]), ("delete_batch", [7, 7, 8])],
             {7: None, 8: None}),
        ],
    )
    def test_write_order_holds(self, history, want):
        for read_between in (False, True):
            mem = Memtable()
            for op, *args in history:
                getattr(mem, op)(*args)
                if read_between:
                    mem.probe(args[0] if np.isscalar(args[0]) else args[0][0])
            _check(mem, want, 10, np.random.default_rng(0), read="probe")

    def test_one_key_batches_read_back_on_both_sides_of_the_scan_bound(self):
        """A loop of one-key batch writes, each read back: while the
        pending records hold at most PROBE_SCAN_MAX_KEYS keys a probe
        scans them and leaves the layout as it was, past that it builds;
        every answer equals the dict replay."""
        rng = np.random.default_rng(43)
        mem, state = Memtable(), {}
        base = np.arange(0, 600, 3)
        mem.put_batch(base, base + 1)
        state.update(zip(base.tolist(), (base + 1).tolist()))
        layout = mem.entries()[0]
        for step in range(3 * PROBE_SCAN_MAX_KEYS):
            key = int(rng.integers(0, 600))
            if rng.random() < 0.3:
                mem.delete_batch([key])
                state[key] = None
            else:
                value = int(rng.integers(-(2**62), 2**62))
                mem.put_batch([key], [value])
                state[key] = value
            for probe in (key, int(rng.integers(-2, 602))):
                want = state.get(probe, False)
                if want is False:
                    assert mem.probe(probe) == (False, False, 0)
                else:
                    assert mem.probe(probe) == (True, want is None, want or 0)
            if step < PROBE_SCAN_MAX_KEYS:
                assert mem._layout[0] is layout  # scanned, not built
        assert mem._layout[0] is not layout
        _check(mem, state, 600, rng, read="probe")

    def test_scalar_reads_do_not_rebuild_after_scalar_writes(self):
        mem = Memtable()
        mem.put_batch(np.arange(100), np.arange(100))
        layout = mem.entries()
        for key in range(200, 210):
            mem.put(key, key)
            assert mem.probe(key) == (True, False, key)
            assert mem.probe(7) == (True, False, 7)
        assert mem._layout[0] is layout[0]  # the scalar segment stayed a dict
        assert len(mem) == 110


# -- what a lock-free reader can see ------------------------------------------


class _ReaderAtEveryStore(Memtable):
    """A memtable that runs a lock-free scalar probe of every
    acknowledged write at each attribute store its writer or builder
    makes: the instants at which a reader thread can interleave."""

    def __init__(self):
        object.__setattr__(self, "acked", {})
        super().__init__()

    def __setattr__(self, name, value):
        super().__setattr__(name, value)
        # With records pending a probe takes the lock and waits instead.
        if self.acked and not self._records:
            for key, want in self.acked.items():
                got = Memtable.probe(self, key)
                if got != want:  # no assert: its report would repr self
                    raise AssertionError(f"{name}: probe({key}) = {got}")


def test_every_intermediate_state_answers_acknowledged_writes():
    """A fold appends its record before it swaps the dict out, and a
    build publishes the layout before it drops the records; either
    order reversed leaves an instant where a lock-free probe misses an
    acknowledged write.  The sequence: batch, build, scalar
    writes, a batch that folds them, a probe-triggered build, more
    scalar writes, and a full build."""
    mem = _ReaderAtEveryStore()

    def ack_batch(keys):
        mem.put_batch(keys, keys * 2)
        mem.acked.update((k, (True, False, k * 2)) for k in keys.tolist())

    def ack_scalar(keys):
        for key in keys:
            mem.put(key, key * 2)
            mem.acked[key] = (True, False, key * 2)
        del mem.acked[keys[0]]  # in flight: either answer is right
        mem.delete(keys[0])
        mem.acked[keys[0]] = (True, True, 0)

    ack_batch(np.arange(0, 40, 2))
    mem.entries()
    ack_scalar([1, 3, 5])
    ack_batch(np.arange(100, 120))
    assert mem.probe(101) == (True, False, 202)
    ack_scalar([7, 9])
    mem.entries()
    assert len(mem) == 45


# -- the buffer owns its batches ----------------------------------------------


def _mutate(*arrays):
    for array in arrays:
        array[:] = array[::-1] + 1


@pytest.mark.parametrize("durable", [False, True])
def test_caller_mutation_after_a_write_changes_nothing(tmp_path, durable):
    """An int64 batch reaches the memtable uncopied by the key
    contract; the memtable copies it, so rewriting the caller's arrays
    after the call returns must not rewrite acknowledged writes."""
    path = str(tmp_path / "db") if durable else None
    base = np.arange(0, 4_000, 2, dtype=np.int64)
    store = LearnedLSMStore(base, base, memtable_capacity=10_000, path=path)
    keys = np.arange(1, 801, 2, dtype=np.int64)
    values = keys * 10
    gone = np.arange(0, 400, 4, dtype=np.int64)
    store.insert_batch(keys, values)
    store.delete_batch(gone)
    state = dict(zip(base.tolist(), base.tolist()))
    state.update(zip(keys.tolist(), values.tolist()))
    for key in gone.tolist():
        state.pop(key, None)
    want_keys = np.array(sorted(state), dtype=np.int64)
    want_values = np.array([state[k] for k in want_keys.tolist()])
    _mutate(keys, values, gone)
    probe = np.arange(-1, 4_001, dtype=np.int64)
    hit = np.isin(probe, want_keys)

    def answers(reader):
        got, found = reader.lookup_batch(probe)
        np.testing.assert_array_equal(found, hit)
        np.testing.assert_array_equal(got[found], want_values)
        result, items = reader.range_items_batch([0], [4_000])
        np.testing.assert_array_equal(result.values, want_keys)
        np.testing.assert_array_equal(items, want_values)

    try:
        for key in (1, 799, 0, 4, 2, 801, 3_998):
            assert store.lookup(key) == state.get(key)
        answers(store)
        snap = store.snapshot()
        try:
            answers(snap)
        finally:
            snap.release()
        store.flush()  # the sealed run holds what was acknowledged
        assert len(store.memtable) == 0
        answers(store)
        for key in (1, 799, 0, 4):
            assert store.lookup(key) == state.get(key)
    finally:
        store.close()
    if durable:
        with LearnedLSMStore(path=path) as reopened:
            answers(reopened)


# -- one newest-per-key dedup -------------------------------------------------


class TestNewestPerKey:
    @pytest.mark.parametrize("kind", ["quicksort", "stable"])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_a_put_loop(self, seed, kind):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 3_000))
        keys = rng.integers(-50, int(rng.choice([60, 10**6])), n)
        pick = newest_per_key(keys, kind)
        last = {}
        for i, key in enumerate(keys.tolist()):
            last[key] = i
        want = [last[k] for k in sorted(last)]
        np.testing.assert_array_equal(pick, want)

    @pytest.mark.parametrize("kind", ["quicksort", "stable"])
    @pytest.mark.parametrize("shape", ["ascending", "sorted_runs", "hot"])
    def test_presorted_and_duplicate_heavy(self, shape, kind):
        """Around the packed sort's crossover: strictly ascending keys
        (a bulk load's), sorted runs of duplicates, and a few hot keys
        repeated thousands of times."""
        rng = np.random.default_rng(len(shape))
        for n in (PACKED_ORDER_MIN_KEYS - 1, 4 * PACKED_ORDER_MIN_KEYS):
            if shape == "ascending":
                keys = np.cumsum(rng.integers(1, 2**40, n))
            elif shape == "sorted_runs":
                keys = np.sort(rng.integers(-(2**62), 2**62, n // 4 + 1))
                keys = np.repeat(keys, 4)[:n]
            else:
                keys = rng.choice(rng.integers(-(2**62), 2**62, 9), n)
            last = {}
            for i, key in enumerate(keys.tolist()):
                last[key] = i
            np.testing.assert_array_equal(
                newest_per_key(keys, kind), [last[k] for k in sorted(last)]
            )

    def test_unique_keys_are_their_argsort(self):
        keys = np.array([2**62, -(2**63), 5, -1], dtype=np.int64)
        np.testing.assert_array_equal(newest_per_key(keys), [1, 3, 2, 0])
        assert newest_per_key(np.empty(0, np.int64)).size == 0


@pytest.mark.parametrize("durable", [False, True])
def test_bulk_constructor_last_value_wins(tmp_path, durable):
    """Duplicates both adjacent and far apart: the later value wins,
    like a put loop."""
    keys = np.array([9, 9, 4, 7, 1, 4, 3, 7, 8, 9, 2, 4], dtype=np.int64)
    values = np.arange(keys.size, dtype=np.int64) * 100
    want = dict(zip(keys.tolist(), values.tolist()))
    path = str(tmp_path / "db") if durable else None
    with LearnedLSMStore(keys, values, path=path) as store:
        got, found = store.lookup_batch(np.arange(11))
        for key in range(11):
            assert bool(found[key]) == (key in want)
            assert store.lookup(key) == want.get(key)
            if key in want:
                assert got[key] == want[key]
        assert store.runs[0].keys.tolist() == sorted(want)


# -- seal points --------------------------------------------------------------


@pytest.mark.parametrize("capacity", [64, 1_000])
def test_seal_points_match_exact_distinct_counting(capacity):
    """Batches that overwrite live keys near capacity: the store must
    seal on exactly the write where the distinct buffered count reaches
    capacity, sealing that many entries, whatever bound it reads first."""
    rng = np.random.default_rng(capacity)
    base = np.arange(0, 10 * capacity, 3, dtype=np.int64)
    store = LearnedLSMStore(base, base, memtable_capacity=capacity)
    buffered, seals, sealed = set(), 0, 0

    def landed(keys):  # one write call: the oracle seals after it lands
        nonlocal seals, sealed
        buffered.update(keys)
        if len(buffered) >= capacity:
            seals, sealed = seals + 1, sealed + len(buffered)
            buffered.clear()

    for step in range(300):
        keys = rng.integers(0, 2 * capacity, int(rng.integers(1, capacity)))
        kind = rng.choice(["insert_batch", "delete_batch", "insert"])
        if kind == "insert_batch":
            store.insert_batch(keys, keys)
            landed(keys.tolist())
        elif kind == "delete_batch":
            store.delete_batch(keys)
            landed(keys.tolist())
        else:
            for key in keys[:3].tolist():
                store.insert(key)
                landed([key])
        assert store.write_stats.seals == seals, step
        assert store.write_stats.entries_sealed == sealed, step
        assert len(store.memtable) == len(buffered)
    assert seals > 10
