"""Differential crash-recovery fuzz (ISSUE 6 tentpole).

The harness runs a deterministic write workload against a durable
:class:`LearnedLSMStore` whose filesystem is a
:class:`FaultInjectingFilesystem`, kills the process at *every*
injection site (each write / fsync / rename / remove / truncate /
open), recovers the directory with the real filesystem, and checks the
reopened store against a dict oracle:

* every **acknowledged** batch (the call returned before the crash)
  must be present in full;
* the single **in-flight** batch may be present in full or absent in
  full — one WAL record per batch makes that the only legal pair of
  outcomes — never half-applied;
* point lookups, the full-range scan, and ``live_keys`` must all agree
  with the matching oracle state (mid-compaction kills can neither
  lose keys nor resurrect tombstoned ones).

Each site is exercised under two loss models: ``lose`` (unsynced bytes
evaporate) and ``keep`` with a torn final write (everything issued
persists, the crashed write lands a prefix) — real crashes sit between
the two.  ``REPRO_CRASH_FUZZ_STRIDE`` subsamples the site sweep for
quick CI lanes (stride 1 = every site).
"""

import os
import shutil

import numpy as np
import pytest

from fault_injection import FaultInjectingFilesystem, SimulatedCrash
from repro.lsm import LearnedLSMStore, SizeTieredCompaction

#: Key universe kept small so delete/overwrite collisions are dense.
DOMAIN = np.arange(0, 600, dtype=np.int64)

STRIDE = max(1, int(os.environ.get("REPRO_CRASH_FUZZ_STRIDE", "1")))


def make_ops(seed=7, n_ops=24, batch=48):
    """Deterministic mixed workload: 3 put batches : 1 delete batch."""
    rng = np.random.default_rng(seed)
    ops = []
    for i in range(n_ops):
        keys = rng.choice(DOMAIN, size=batch, replace=False).astype(np.int64)
        if i % 4 == 3:
            ops.append(("del", keys, None))
        else:
            vals = rng.integers(1, 1 << 50, size=batch, dtype=np.int64)
            ops.append(("put", keys, vals))
    return ops


def oracle_state(ops, n):
    """Dict after applying the first ``n`` ops."""
    state = {}
    for kind, keys, vals in ops[:n]:
        if kind == "put":
            state.update(zip(keys.tolist(), vals.tolist()))
        else:
            for key in keys.tolist():
                state.pop(key, None)
    return state


def _store(directory, fs=None):
    return LearnedLSMStore(
        path=directory,
        filesystem=fs,
        memtable_capacity=96,
        compaction=SizeTieredCompaction(min_runs=2),
        # The sweep's determinism contract (dry-run site counts match
        # crashing runs op for op) requires single-threaded compaction
        # regardless of the REPRO_LSM_BACKGROUND stress-lane env var;
        # threaded kills get their own tolerant fuzz in
        # test_lsm_concurrency.py.
        background=False,
    )


def run_workload(fs, directory, ops):
    """Drive ``ops`` then a full compact + close; returns the number of
    batches acknowledged before a crash (all of them if none)."""
    committed = 0
    store = None
    try:
        store = _store(directory, fs)
        for kind, keys, vals in ops:
            if kind == "put":
                store.insert_batch(keys, vals)
            else:
                store.delete_batch(keys)
            committed += 1
        store.compact()
        store.close()
    except SimulatedCrash:
        # Release the crashed store's descriptors (the kernel would on
        # a real kill); durability-wise the crash already happened.
        if store is not None:
            try:
                store.close()
            except SimulatedCrash:
                pass
    return committed


def matches(store, state):
    """Does the reopened store equal the oracle dict on every read
    surface?"""
    values, found = store.lookup_batch(DOMAIN)
    expect_found = np.array([int(k) in state for k in DOMAIN], dtype=bool)
    if not np.array_equal(found, expect_found):
        return False
    expect_values = np.array(
        [state.get(int(k), 0) for k in DOMAIN], dtype=np.int64
    )
    if not np.array_equal(values[found], expect_values[expect_found]):
        return False
    live = np.array(sorted(state), dtype=np.int64)
    if not np.array_equal(store.live_keys(), live):
        return False
    return np.array_equal(
        store.range_query(int(DOMAIN[0]), int(DOMAIN[-1])), live
    )


def assert_consistent_cut(directory, ops, committed):
    """Recover for real and demand the committed state, optionally plus
    the whole in-flight batch."""
    with _store(directory) as store:
        candidates = [
            oracle_state(ops, committed),
            oracle_state(ops, min(committed + 1, len(ops))),
        ]
        ok = any(matches(store, state) for state in candidates)
        assert ok, (
            f"recovered store matches neither the {committed} committed "
            f"batches nor committed+in-flight"
        )
        # The survivor must still accept writes.
        store.insert(10_000, 42)
        assert store.lookup(10_000) == 42


def count_sites(tmp_path, ops):
    """Dry run: total mutating-primitive calls in the full workload."""
    dry = FaultInjectingFilesystem()
    d = str(tmp_path / "dry")
    store = _store(d, dry)
    for kind, keys, vals in ops:
        if kind == "put":
            store.insert_batch(keys, vals)
        else:
            store.delete_batch(keys)
    # Prove the workload actually exercises the paths the sweep is
    # meant to kill: seals and compaction merges.
    assert store.write_stats.seals >= 5
    assert store.write_stats.compactions >= 3
    store.compact()
    store.close()
    return dry.ops


OPS = make_ops()


@pytest.fixture(scope="module")
def total_sites(tmp_path_factory):
    return count_sites(tmp_path_factory.mktemp("sites"), OPS)


@pytest.mark.parametrize(
    "mode,torn", [("lose", 0.0), ("keep", 0.5)], ids=["lose", "keep-torn"]
)
def test_crash_at_every_injection_site(tmp_path, total_sites, mode, torn):
    tested = 0
    for site in range(1, total_sites + 1, STRIDE):
        d = str(tmp_path / f"db-{mode}-{site}")
        fs = FaultInjectingFilesystem(
            crash_at=site, mode=mode, torn_fraction=torn
        )
        committed = run_workload(fs, d, OPS)
        assert fs.crashed, f"site {site} never fired (bound {total_sites})"
        assert committed < len(OPS) or site > 0
        assert_consistent_cut(d, OPS, committed)
        tested += 1
    assert tested == len(range(1, total_sites + 1, STRIDE))


def test_crash_during_recovery_is_idempotent(tmp_path, total_sites):
    """Kill the store mid-workload, then kill *recovery itself* at every
    one of its own injection sites; a final clean recovery must still
    reach a consistent cut."""
    for frac, label in ((1, "early"), (2, "mid"), (3, "late")):
        site = max(1, frac * total_sites // 4)
        crashed = str(tmp_path / f"crashed-{label}")
        fs = FaultInjectingFilesystem(crash_at=site, mode="lose")
        committed = run_workload(fs, crashed, OPS)
        assert fs.crashed
        # Recovery's own site count (dry run against a copy).
        probe = str(tmp_path / f"probe-{label}")
        shutil.copytree(crashed, probe)
        dry = FaultInjectingFilesystem()
        _store(probe, dry).close()
        for rec_site in range(1, dry.ops + 1, STRIDE):
            work = str(tmp_path / f"work-{label}-{rec_site}")
            shutil.copytree(crashed, work)
            faulty = FaultInjectingFilesystem(crash_at=rec_site, mode="lose")
            try:
                _store(work, faulty).close()
            except SimulatedCrash:
                pass
            assert_consistent_cut(work, OPS, committed)
            shutil.rmtree(work)


def test_dry_run_counts_sites(total_sites):
    """The workload must present a meaningful sweep surface."""
    assert total_sites > 100
