"""One model-based history for every key-value holder.

A hypothesis state machine writes one history into the LSM holders and
checks every read against a ``dict`` model: a memory-only and a durable
store (Appendix D.1's buffered inserts merged into retrained runs), up
to three pinned snapshots (each against a frozen copy of the model)
and a ``CoalescingIndexServer``; a second case runs the same machine
over a 2-shard ``ShardedLSMStore``.  The rules are the whole surface:
scalar and batch writes (a batch's duplicates resolve last-wins),
point and range reads in scalar and batch form, flush, compact,
snapshot and release, reopen, and the key contract's typed refusals,
which leave every holder as it was.  The key universe is small, so
tombstones meet the older runs they shadow; a cluster around 2^53,
where float64 aliases neighbouring keys, straddles the shard boundary.
Named histories, pinned ahead of the sampled ones, replay the cases
that matter most through the same rules over four run layouts.
"""

from __future__ import annotations

import asyncio
import inspect
import math
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from oracles import REFUSED_CALLS
from repro.lsm import LearnedLSMStore, SizeTieredCompaction
from repro.serving import CoalescingIndexServer, ShardedLSMStore

_BIG = 2**53

KEYS = (
    *range(-3, 45),
    *(_BIG + d for d in (-40, -9, -2, -1, 0, 1, 2, 3, 9, 40)),
)

#: The universe and keys no write reaches.
PROBES = (*KEYS, -50, -5, 45, 1_000, _BIG - 5, _BIG + 5, 2**62, 2**63 - 1,
          -2**63)

#: Float endpoints at and past the ends of int64: the first range reads
#: every live key.
_ALL = (np.array([-2.0**63, 0.5]), np.array([2.0**63, np.inf]))

#: A tiny memtable and two-run merges: every few writes seal a run, and
#: merges cascade.
OPTIONS = dict(
    memtable_capacity=6, compaction=SizeTieredCompaction(min_runs=2)
)

keys = st.sampled_from(KEYS)
values = st.integers(-1_000, 1_000) | st.sampled_from((-2**63, 2**63 - 1))
# A scalar key as an int, an np.int64 or (where it fits) an np.uint32.
key_forms = st.sampled_from((int, np.int64, np.uint32))
pairs = st.lists(st.tuples(keys, values), max_size=12)
# Batch reads of a few keys, and of the sizes either side of the
# memtable search's ordered-needle switch (ORDERED_SEARCH_MIN_KEYS).
def probe_sample(size: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    return rng.choice(np.array(PROBES, dtype=np.int64), size).tolist()


read_batches = st.one_of(
    st.lists(st.sampled_from(PROBES), max_size=16),
    st.tuples(st.sampled_from((127, 128, 512)), st.integers(0, 2**16)).map(
        lambda size_seed: probe_sample(*size_seed)
    ),
)


def _endpoint_forms(key: int) -> tuple:
    if abs(key) < 2**52:  # k + 0.5 is exact here
        return key, key + 0.5, key - 0.5
    return key, float(key)  # float(k) aliases its neighbours


endpoints = st.sampled_from(PROBES).flatmap(
    lambda k: st.sampled_from(_endpoint_forms(k))
)
ranges = st.lists(st.tuples(endpoints, endpoints), max_size=6)


def _scalar(key: int, form):
    return form(key) if form is not np.uint32 or 0 <= key < 2**32 else key


def _array(items: list) -> np.ndarray:
    floats = any(isinstance(item, float) for item in items)
    return np.array(items, dtype=np.float64 if floats else np.int64)


def check_points(answer, model: dict, queries: list) -> None:
    values, found = answer
    want = [model.get(q) for q in queries]
    assert found.tolist() == [w is not None for w in want]
    assert values.tolist() == [0 if w is None else w for w in want]


def expect_ranges(model: dict, lows: list, highs: list) -> list:
    # Python ints against Python endpoints: compared exactly.
    live = sorted(model)
    return [[k for k in live if lo <= k <= hi] for lo, hi in zip(lows, highs)]


def check_ranges(holder, model: dict, lows, highs) -> None:
    # As the holder receives them: a float array rounds an int endpoint.
    want = expect_ranges(model, lows.tolist(), highs.tolist())
    got = holder.range_query_batch(lows, highs)
    assert [np.asarray(r).tolist() for r in got] == want
    items, payloads = holder.range_items_batch(lows, highs)
    assert [np.asarray(r).tolist() for r in items] == want
    assert payloads.tolist() == [model[k] for span in want for k in span]


class KVHistory(RuleBasedStateMachine):
    """The history.  A subclass opens the stores written
    (``open_stores``) and counts a store's live keys (``live_count``)."""

    def __init__(self):
        super().__init__()
        self.model: dict[int, int] = {}
        self.stores: dict = {}
        #: (snapshot per store, the model it froze)
        self.snapshots: list[tuple[dict, dict]] = []

    @initialize(load=st.lists(st.tuples(keys, values), max_size=40))
    def bulk_load(self, load):
        self.model.update(load)  # a bulk load's duplicates: last wins
        self.stores = self.open_stores(
            [k for k, _v in load] or None, [v for _k, v in load] or None
        )
        self.server = CoalescingIndexServer(next(iter(self.stores.values())))

    def teardown(self):
        for snaps, _frozen in self.snapshots:
            for snap in snaps.values():
                snap.release()
        for store in self.stores.values():
            store.close()

    def holders(self):
        """(holder, the model it answers for), the coalescer aside."""
        for store in self.stores.values():
            yield store, self.model
        for snaps, frozen in self.snapshots:
            for snap in snaps.values():
                yield snap, frozen

    def check_everything(self) -> None:
        """Every probe and the whole domain, on every holder."""
        for holder, model in self.holders():
            check_points(holder.lookup_batch(PROBES), model, PROBES)
            check_ranges(holder, model, *_ALL)

    # -- writes ----------------------------------------------------------------

    @rule(key=keys, value=st.none() | values, form=key_forms)
    def insert(self, key, value, form):
        given = () if value is None else (np.int64(value),)  # or the key
        for store in self.stores.values():
            store.insert(_scalar(key, form), *given)
        self.model[key] = key if value is None else value

    @rule(batch=pairs, as_array=st.booleans())
    def insert_batch(self, batch, as_array):
        columns = [[k for k, _v in batch], [v for _k, v in batch]]
        for store in self.stores.values():
            store.insert_batch(*map(_array, columns) if as_array else columns)
        self.model.update(batch)

    @rule(key=keys, form=key_forms)
    def delete(self, key, form):
        for store in self.stores.values():
            store.delete(_scalar(key, form))
        self.model.pop(key, None)

    @rule(batch=st.lists(keys, max_size=12), as_array=st.booleans())
    def delete_batch(self, batch, as_array):
        for store in self.stores.values():
            store.delete_batch(_array(batch) if as_array else batch)
        for key in batch:
            self.model.pop(key, None)

    @rule()
    def flush(self):
        for store in self.stores.values():
            store.flush()

    @rule()
    def compact(self):
        for store in self.stores.values():
            store.compact()
            assert self.live_count(store) == len(self.model)
        self.check_everything()

    # -- reads -----------------------------------------------------------------

    @rule(queries=read_batches, form=key_forms)
    def read_batch(self, queries, form):
        for holder, model in self.holders():
            check_points(holder.lookup_batch(queries), model, queries)
        for store in self.stores.values():
            want = [q in self.model for q in queries]
            assert store.contains_batch(queries).tolist() == want
            for q in queries[:4]:  # scalars are one-element batches
                check_points(store.lookup_batch([q]), self.model, [q])
                assert store.lookup(_scalar(q, form)) == self.model.get(q)
                assert store.contains(_scalar(q, form)) == (q in self.model)

        async def serve():
            return await asyncio.gather(
                self.server.lookup_batch(queries),
                *(self.server.lookup(q) for q in queries[:4]),
            )

        served, *scalars = asyncio.run(serve())
        check_points(served, self.model, queries)
        assert scalars == [self.model.get(q) for q in queries[:4]]

    @rule(spans=ranges)
    def read_ranges(self, spans):
        ends = [lo for lo, _hi in spans], [hi for _lo, hi in spans]
        lows, highs = map(_array, ends)
        for holder, model in self.holders():
            check_ranges(holder, model, lows, highs)
        # A scalar range takes its endpoints as given.
        as_given = expect_ranges(self.model, *ends)
        for store in self.stores.values():
            for (lo, hi), want in zip(spans[:2], as_given):
                assert store.range_query(lo, hi).tolist() == want

        async def serve():
            return await asyncio.gather(
                self.server.range_query_batch(lows, highs),
                *(self.server.range_query(lo, hi) for lo, hi in spans[:2]),
                return_exceptions=True,
            )

        # One packed int64 array per tick: a float endpoint is refused.
        got, *scalars = asyncio.run(serve())
        floats = [isinstance(lo + hi, float) for lo, hi in spans]
        if any(floats):
            assert isinstance(got, TypeError)
        else:
            assert [np.asarray(r).tolist() for r in got] == as_given
        for answer, refused, want in zip(scalars, floats, as_given):
            if refused:
                assert isinstance(answer, TypeError)
            else:
                assert answer.tolist() == want

    # -- snapshots and reopen --------------------------------------------------

    @precondition(lambda self: len(self.snapshots) < 3)
    @rule()
    def snapshot(self):
        snaps = {name: store.snapshot() for name, store in self.stores.items()}
        self.snapshots.append((snaps, dict(self.model)))

    @precondition(lambda self: self.snapshots)
    @rule(data=st.data())
    def release(self, data):
        i = data.draw(st.integers(0, len(self.snapshots) - 1))
        for snap in self.snapshots.pop(i)[0].values():
            snap.release()
            snap.release()  # idempotent
            with pytest.raises(ValueError, match="released"):
                snap.lookup_batch([1])

    @precondition(lambda self: "durable" in self.stores and not self.snapshots)
    @rule()
    def reopen(self):
        self.stores["durable"].close()
        self.stores["durable"] = reopened = self.open_durable()
        assert all(run.is_loaded_lazy() for run in reopened.runs)
        self.check_everything()
        assert self.live_count(reopened) == len(self.model)

    # -- the key contract ------------------------------------------------------

    @rule()
    def refuse(self):
        """Each refused call raises its typed error and writes nothing."""
        for store in self.stores.values():
            for method, args, error in REFUSED_CALLS:
                with pytest.raises(error):
                    getattr(store, method)(*args)
        for holder, _model in self.holders():
            with pytest.raises(TypeError):
                holder.lookup_batch(np.array([1.5, 2.0]))
        for store in self.stores.values():  # a wrapped -5 or 2^63 included
            check_points(store.lookup_batch(PROBES), self.model, PROBES)
        server = self.server
        for call, error in (
            (lambda: server.lookup(2.5), TypeError),
            (lambda: server.lookup(2**64 - 5), OverflowError),
            (lambda: server.range_query(2.5, 6.5), TypeError),
            (lambda: server.lookup_batch(np.array([1.5])), TypeError),
        ):
            with pytest.raises(error):
                asyncio.run(call())


class LSMHistory(KVHistory):
    """A memory-only and a durable ``LearnedLSMStore`` written alike.

    ``background`` is left to ``REPRO_LSM_BACKGROUND``: synchronous in
    tier-1, a compaction thread in the CI stress lane.
    """

    def __init__(self, options=OPTIONS):
        super().__init__()
        self.options = options
        self.path = tempfile.mkdtemp(prefix="kv-history-")

    def open_durable(self, *load):
        return LearnedLSMStore(
            *load, path=self.path, wal_fsync=False, **self.options
        )

    def open_stores(self, *load):
        return {
            "memory": LearnedLSMStore(*load, **self.options),
            "durable": self.open_durable(*load),
        }

    def teardown(self):
        super().teardown()
        shutil.rmtree(self.path, ignore_errors=True)

    def live_count(self, store) -> int:
        assert store.live_keys().tolist() == sorted(self.model)
        return len(store)


class ShardedHistory(KVHistory):
    """The same history over two shard workers, split at 2^53."""

    def open_stores(self, *load):
        sharded = ShardedLSMStore(
            2, *load, sample_keys=[0, _BIG], store_kwargs=OPTIONS
        )
        return {"sharded": sharded}

    def live_count(self, store) -> int:
        return sum(shard["live_keys"] for shard in store.shard_stats())

    @invariant()
    def answers_like_the_model(self):
        # Few examples (the workers are slow to start), and each turns
        # some rules off: so every step reads.
        self.check_everything()


# -- pinned histories ----------------------------------------------------------
#
# Named histories replayed through the machine's own rules, every holder
# checked after every step.  Each pins a case that a sampled history
# reaches only by luck, and a regression there fails at once under its
# name, with no shrinking to wait for.


class _Step:
    """``step.insert(key=1)``: one rule call.  Arguments left out take
    their plainest form: an int key, a list batch, the key as value."""

    def __getattr__(self, rule_name):
        return lambda **args: (rule_name, args)


class _Pick:
    """Stands in for ``st.data()``: ``release`` draws this index."""

    def __init__(self, index: int):
        self.index = index

    def draw(self, _strategy) -> int:
        return self.index


step = _Step()
_PLAIN = dict(value=None, form=int, as_array=False)


def replay(machine: KVHistory, load: list, steps: list) -> None:
    try:
        machine.bulk_load(load)
        machine.check_everything()
        for rule_name, args in steps:
            method = getattr(machine, rule_name)
            params = inspect.signature(method).parameters
            plain = {k: v for k, v in _PLAIN.items() if k in params}
            method(**{**plain, **args})
            machine.check_everything()
    finally:
        machine.teardown()


#: Twenty even keys 0..38, valued 10k: one bulk-loaded run (size bucket
#: 2) that a newer run of a few keys (bucket 0 or 1) does not merge with.
LOAD = [(k, 10 * k) for k in range(0, 40, 2)]
_CLUSTER = [(_BIG + d, d) for d in (-40, -2, -1, 0, 1, 2, 40)]
_NEAR_BIG = [
    (float(_BIG - 1), float(_BIG + 1)),
    (_BIG - 2, float(_BIG + 2)),
    (float(_BIG), _BIG),
    (0, _BIG + 40),
]

PINNED = {
    "bulk_load_then_read": (LOAD, [
        step.read_batch(queries=list(PROBES)),
        step.read_ranges(spans=[(0, 10), (5, 5), (10, 3), (45, 44)]),
        step.read_ranges(spans=[(2.5, 7.5), (-0.5, 0.5), (7.5, 2.5)]),
        step.read_ranges(spans=[]),
    ]),
    "empty_store": ([], [
        step.read_batch(queries=[]),
        step.read_ranges(spans=[(0, 44)]),
        step.delete_batch(batch=[7, 7, 44, -3]),
        step.delete(key=_BIG),
        step.flush(),
        step.compact(),
    ]),
    "values_and_key_forms": ([], [
        step.insert(key=1, value=-2**63, form=np.uint32),
        step.insert(key=2, value=2**63 - 1, form=np.int64),
        step.insert(key=-3, form=np.uint32),  # below uint32: an int
        step.delete(key=1, form=np.int64),
        step.compact(),
        step.read_batch(queries=[1, 2, -3], form=np.uint32),
    ]),
    # Two small runs merge while the loaded run stays: the merge does
    # not reach the oldest run, so its tombstones must survive it.
    "a_tombstone_survives_a_partial_merge": (LOAD, [
        step.insert_batch(batch=[(k, 1) for k in (41, 42, 43, 44, -1, -2)]),
        step.flush(),
        step.delete_batch(batch=[4, 6, 8, 10, 12, 14]),
        step.flush(),
        step.compact(),
    ]),
    # A newer run of one key over the loaded run: the newest answers.
    "the_newest_run_answers_first": (LOAD, [
        step.insert(key=8, value=1),
        step.flush(),
        step.read_batch(queries=[8, 10]),
        step.delete(key=10),
    ]),
    # Two same-bucket runs both hold key 8: their merge keeps the newer.
    "a_merge_keeps_the_newest_version": (LOAD, [
        step.insert_batch(batch=[(8, 1), (41, 1), (42, 1)]),
        step.flush(),
        step.insert_batch(batch=[(8, 2), (41, 2), (43, 2)]),
        step.flush(),
        step.compact(),
    ]),
    "batches_resolve_last_wins": (LOAD, [
        step.insert_batch(batch=[(3, 1), (3, 2), (5, 7), (3, 3)]),
        step.insert_batch(batch=[(5, 1), (5, 9)], as_array=True),
        step.delete(key=2),
        step.insert_batch(batch=[(2, 99), (2, 98)]),
        step.delete_batch(batch=[3, 3, 9], as_array=True),
        step.compact(),
    ]),
    "float_endpoints_near_2p53": (LOAD + _CLUSTER, [
        step.read_ranges(spans=_NEAR_BIG),
        step.insert_batch(batch=[(_BIG + 3, 3), (_BIG - 9, -9)]),
        step.delete_batch(batch=[_BIG - 1, _BIG]),
        step.read_ranges(spans=_NEAR_BIG),
        step.flush(),
        step.read_ranges(spans=_NEAR_BIG),
    ]),
    "ranges_over_the_ends_of_int64": (LOAD + _CLUSTER, [
        step.read_ranges(spans=[(-2**63, 2**63 - 1), (2**62, 2**63 - 1)]),
        step.read_ranges(spans=[(-2.0**63, 2.0**63), (0.5, math.inf)]),
        step.read_ranges(spans=[(-math.inf, -5), (21.5, 2.0**63)]),
    ]),
    "reopen_replays_every_write": (LOAD, [
        step.insert_batch(batch=[(1, 1), (2, 6)]),
        step.delete(key=4),
        step.reopen(),
        step.flush(),
        step.delete(key=1),
        step.reopen(),
    ]),
    "three_snapshots_release_the_middle": ([], [
        step.insert(key=1, value=1),
        step.snapshot(),
        step.insert(key=2, value=2),
        step.flush(),
        step.snapshot(),
        step.delete(key=1),
        step.snapshot(),
        step.compact(),
        step.release(data=_Pick(1)),
        step.release(data=_Pick(1)),
        step.release(data=_Pick(0)),
        step.reopen(),
    ]),
    "a_snapshot_outlives_compactions": (LOAD, [
        step.snapshot(),
        step.delete_batch(batch=[k for k, _v in LOAD], as_array=True),
        step.compact(),
        step.insert(key=0, value=1),
        step.compact(),
        step.release(data=_Pick(0)),
    ]),
    "refusals_write_nothing": (LOAD, [
        step.refuse(),
        step.insert_batch(batch=[(1, 1), (-3, 5)]),
        step.refuse(),
        step.flush(),
        step.refuse(),
    ]),
    # Sizes either side of the memtable's ordered-needle switch.
    "reads_either_side_of_the_needle_switch": (LOAD, [
        step.insert_batch(batch=[(k, -k) for k in range(-3, 44, 3)]),
        *(step.read_batch(queries=probe_sample(n, n)) for n in (127, 128)),
        step.flush(),
        step.read_batch(queries=probe_sample(512, 0)),
    ]),
    # The loaded key's tombstone is collected by a full merge; a later
    # version and its own tombstone must not bring the first back.
    "a_reinsert_after_collection": (LOAD, [
        step.delete(key=4),
        step.compact(),
        step.insert(key=4, value=7),
        step.flush(),
        step.delete(key=4),
        step.flush(),
        step.compact(),
    ]),
}

#: The same history over four run layouts: every write sealed, a seal
#: every few writes with eager or lazy merges, and nothing sealed before
#: a flush.
MEMTABLES = {
    "every_write_seals": dict(OPTIONS, memtable_capacity=1),
    "sealed": OPTIONS,
    "lazy_merges": dict(OPTIONS, compaction=SizeTieredCompaction(min_runs=4)),
    "buffered": dict(OPTIONS, memtable_capacity=1_000),
}


@pytest.mark.parametrize("name", PINNED)
@pytest.mark.parametrize("memtable", MEMTABLES)
def test_pinned_history(memtable, name):
    replay(LSMHistory(MEMTABLES[memtable]), *PINNED[name])


#: No shrink phase: shrinking a failing 60-step history through these
#: holders ran past nine minutes, so a regression reports its first
#: failing example in seconds instead.  The pinned histories above are
#: the named minimal repros.
_SETTINGS = settings(
    derandomize=True, database=None, deadline=None,
    phases=[phase for phase in Phase if phase is not Phase.shrink],
)

TestLSMHistory = LSMHistory.TestCase
TestLSMHistory.settings = settings(
    _SETTINGS, max_examples=30, stateful_step_count=60
)

# One shard pair takes about half a second to start: a few examples.
TestShardedHistory = ShardedHistory.TestCase
TestShardedHistory.settings = settings(
    _SETTINGS, max_examples=3, stateful_step_count=40
)
