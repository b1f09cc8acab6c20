"""Cross-process tracing + metrics through the serving stack (ISSUE 9).

The acceptance path: a request enters :class:`CoalescingIndexServer`,
is stamped with a trace id, rides the coalescer tick into
:class:`ShardedLSMStore`'s pipe RPC, and the shard workers' own spans
(store lookup, WAL append, seal) come back piggybacked
on the command acks — so one exported JSON trace holds client-side and
worker-side spans joined by the propagated trace id, and
``ShardedLSMStore.metrics()`` merges every worker's registry deltas
into one exact aggregate.
"""

import asyncio

import numpy as np
import pytest

from repro import obs
from repro.serving.coalescer import CoalescingIndexServer
from repro.serving.sharded import ShardedLSMStore


@pytest.fixture
def traced_store(tmp_path):
    prev = obs.set_enabled(True)
    obs.reset_tracing()
    obs.set_process_name("client")
    keys = np.arange(0, 50_000, dtype=np.int64)
    store = ShardedLSMStore(
        2,
        keys,
        path=str(tmp_path),
        store_kwargs={"memtable_capacity": 512},
    )
    try:
        yield store, keys
    finally:
        store.close()
        obs.set_enabled(prev)
        obs.reset_tracing()


def test_traced_request_joins_client_and_worker_spans(traced_store):
    store, keys = traced_store

    async def drive():
        server = CoalescingIndexServer(store)
        got = await asyncio.gather(
            *(server.lookup(int(k)) for k in keys[:8])
        )
        assert got == [int(k) for k in keys[:8]]

    asyncio.run(drive())

    requests = [
        s for s in obs.all_spans() if s["name"] == "serving.request"
    ]
    assert len(requests) == 8
    trace = obs.export_trace(requests[0]["trace_id"])
    by_name = {}
    for s in trace["spans"]:
        by_name.setdefault(s["name"], []).append(s)

    # Client-side spans: the coalescer tick that served the request
    # and the sharded fanout it triggered.
    assert "coalesce.tick" in by_name
    assert "coalesce.store_call" in by_name
    assert "sharded.fanout" in by_name
    assert by_name["sharded.fanout"][0]["process"] != "shard-0"

    # Worker-side spans, recorded in the shard processes and shipped
    # back on the ack, land in the *same* exported trace.
    lookups = by_name["worker.lookup_batch"]
    assert {s["process"] for s in lookups} <= {"shard-0", "shard-1"}
    # ...and they parent onto the client's fanout span.
    fanout_ids = {s["span_id"] for s in by_name["sharded.fanout"]}
    assert all(s["parent_id"] in fanout_ids for s in lookups)


def test_traced_write_captures_wal_and_seal(traced_store):
    store, _ = traced_store
    with obs.trace_scope() as tid:
        # 1000 new keys through 512-capacity memtables forces a seal
        # in each shard.
        store.insert_batch(np.arange(200_000, 201_000, dtype=np.int64))
    names = {s["name"] for s in obs.trace_spans(tid)}
    assert {"sharded.fanout", "worker.insert_batch",
            "lsm.wal.append", "lsm.seal"} <= names


def test_traced_snapshot_read_keeps_its_snapshot(traced_store):
    """The trace context joins the snapshot number in the frame tail
    without displacing it."""
    store, keys = traced_store
    probe = keys[::50]
    with store.snapshot() as snap:
        store.insert_batch(probe, probe + 1)
        with obs.trace_scope() as tid:
            values, found = snap.lookup_batch(probe)
        assert found.all() and np.array_equal(values, probe)
    names = {s["name"] for s in obs.trace_spans(tid)}
    assert {"sharded.fanout", "worker.lookup_batch"} <= names


def test_merged_metrics_are_exact(traced_store):
    store, keys = traced_store

    async def drive(n):
        server = CoalescingIndexServer(store)
        await asyncio.gather(
            *(server.lookup(int(k)) for k in keys[:n])
        )

    asyncio.run(drive(12))
    metrics = store.metrics()

    # Every worker-side lookup span was observed into that shard's
    # span.worker.lookup_batch histogram; the client counted the
    # batches it sent.  The piggybacked deltas must make those agree
    # exactly after the merge.
    per_shard = [
        snap.histograms.get("span.worker.lookup_batch")
        for snap in metrics.per_shard
    ]
    shard_counts = [h.count if h is not None else 0 for h in per_shard]
    sent = metrics.client.counters[
        "serving.sharded.lookup.worker_batches"
    ]
    assert sum(shard_counts) == sent > 0
    merged = metrics.merged.histograms["span.worker.lookup_batch"]
    assert merged.count == sum(shard_counts)
    # The merged registry also carries the client-side counters.
    assert (
        metrics.merged.counters["serving.sharded.lookup.worker_batches"]
        == sent
    )
    # And it exports: the demo/bench surface for this aggregate.
    text = obs.prometheus_text(metrics.merged)
    assert "repro_span_worker_lookup_batch_count" in text
    payload = metrics.to_dict()
    assert payload["merged"]["counters"][
        "serving.sharded.lookup.worker_batches"
    ] == sent
