"""Unified telemetry core (ISSUE 9): histograms, registry, tracing.

Pins the contracts the serving stack depends on:

* the log-bucketed latency histogram has a fixed bucket layout, so
  merge is a vector add — associative, commutative, and exactly equal
  to observing the union (hypothesis-checked), with quantile error
  bounded by the relative bucket width;
* ``MetricsRegistry`` updates are thread-safe (exact totals under
  concurrent increments and observations);
* snapshots merge/diff/pickle losslessly — the cross-process
  aggregation path used by the sharded store's delta piggybacking;
* the retrofitted stats objects (LSM read/write, coalescer, RMI,
  paged IO) keep their public fields while writing through to named
  registry counters;
* the shared percentile helper is a real quantile estimate;
* spans are no-ops when telemetry is disabled and parent/propagate
  correctly when enabled;
* the Prometheus and JSON exporters render every metric kind.
"""

import inspect
import pickle
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import HybridIndex, RecursiveModelIndex
from repro.families import PGMIndex, RadixSplineIndex
from repro.core.engine import CompiledPlan
from repro.core.paged import PageStore
from repro.core.rmi import RMIStats
from repro.lsm.store import LSMReadStats, LSMWriteStats
from repro.obs import (
    LatencyHistogram,
    MetricsRegistry,
    NUM_BUCKETS,
    RELATIVE_BUCKET_WIDTH,
    RegistrySnapshot,
    bucket_index,
    bucket_midpoint,
    bucket_upper_bound,
    prometheus_text,
)
from repro.serving.coalescer import CoalescerStats

COMMON = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

latency_lists = st.lists(
    st.floats(min_value=1e-7, max_value=100.0,
              allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=200,
)


@pytest.fixture(autouse=True)
def _obs_clean():
    """Every test starts disabled with empty trace state."""
    prev = obs.set_enabled(False)
    obs.reset_tracing()
    yield
    obs.set_enabled(prev)
    obs.reset_tracing()


# ---------------------------------------------------------------------------
# Histogram layout


def test_bucket_layout_monotone_and_covering():
    prev = -1
    for value in (0.0, 1e-12, 1e-9, 1e-6, 1e-3, 0.5, 1.0, 10.0, 1e5):
        i = bucket_index(value)
        assert 0 <= i < NUM_BUCKETS
        assert i >= prev
        prev = i
    # A bucket's geometric midpoint sits below its upper bound and the
    # bounds are exactly one relative-width apart.
    for i in (0, 100, NUM_BUCKETS - 1):
        assert bucket_midpoint(i) < bucket_upper_bound(i)
    ratio = bucket_upper_bound(101) / bucket_upper_bound(100)
    assert ratio == pytest.approx(1.0 + RELATIVE_BUCKET_WIDTH)


def observe_all(histogram, values) -> None:
    for value in np.asarray(values, dtype=np.float64).tolist():
        histogram.observe(value)


def test_histogram_pickle_roundtrip():
    h = LatencyHistogram()
    observe_all(h, np.array([1e-5, 3e-4, 0.2]))
    clone = pickle.loads(pickle.dumps(h))
    assert np.array_equal(clone.counts, h.counts)
    assert (clone.count, clone.sum, clone.min, clone.max) == (
        h.count, h.sum, h.min, h.max
    )
    # The restored histogram is live: it accepts new observations.
    clone.observe(0.5)
    assert clone.count == h.count + 1


@COMMON
@given(latency_lists, latency_lists, latency_lists)
def test_merge_is_exact_associative_commutative(xs, ys, zs):
    def build(vals):
        h = LatencyHistogram()
        observe_all(h, np.asarray(vals))
        return h

    union = build(xs + ys + zs)
    ab_c = build(xs).merge(build(ys)).merge(build(zs))
    a_bc = build(xs).merge(build(ys).merge(build(zs)))
    ba_c = build(ys).merge(build(xs)).merge(build(zs))
    for merged in (ab_c, a_bc, ba_c):
        assert np.array_equal(merged.counts, union.counts)
        assert merged.count == union.count
        assert merged.min == union.min and merged.max == union.max
        assert merged.sum == pytest.approx(union.sum)


@COMMON
@given(latency_lists, st.floats(min_value=0.0, max_value=100.0))
def test_quantile_error_bounded_by_bucket_width(values, q):
    h = LatencyHistogram()
    observe_all(h, np.asarray(values))
    estimate = h.percentile(q)
    rank = int((q / 100.0) * (len(values) - 1))
    exact = sorted(values)[rank]
    # The estimate is the geometric midpoint of the bucket holding the
    # order statistic (clamped to the observed range), so it can be off
    # by at most one relative bucket width.
    tol = 1.0 + RELATIVE_BUCKET_WIDTH + 1e-9
    assert exact / tol <= estimate <= exact * tol


def test_percentile_edge_cases():
    empty = LatencyHistogram()
    assert empty.percentile(50.0) == 0.0
    assert empty.mean == 0.0
    single = LatencyHistogram()
    single.observe(0.25)
    # min/max clamping makes a single observation exact.
    assert single.percentile(0.0) == pytest.approx(0.25)
    assert single.percentile(100.0) == pytest.approx(0.25)


def test_histogram_diff_is_inverse_of_merge():
    base = LatencyHistogram()
    observe_all(base, np.array([1e-4, 2e-4, 5e-3]))
    snap = base.copy()
    observe_all(base, np.array([0.1, 0.2]))
    delta = base.diff(snap)
    assert delta.count == 2
    assert np.array_equal(
        snap.copy().merge(delta).counts, base.counts
    )


# ---------------------------------------------------------------------------
# Registry and snapshots


def test_registry_get_or_create_and_snapshot():
    reg = MetricsRegistry()
    c = reg.counter("a.b")
    assert reg.counter("a.b") is c
    c.inc(3)
    reg.histogram("h").observe(0.01)
    snap = reg.snapshot()
    assert snap.counters["a.b"] == 3
    assert snap.histograms["h"].count == 1
    # Snapshots are detached: mutating the registry afterwards does
    # not change the snapshot.
    c.inc(10)
    assert snap.counters["a.b"] == 3


def test_snapshot_merge_diff_pickle():
    r1, r2 = MetricsRegistry(), MetricsRegistry()
    r1.counter("x").inc(2)
    r1.histogram("h").observe(0.001)
    r2.counter("x").inc(5)
    r2.counter("y").inc(1)
    r2.histogram("h").observe(0.002)
    merged = RegistrySnapshot.merged([r1.snapshot(), r2.snapshot()])
    assert merged.counters["x"] == 7
    assert merged.counters["y"] == 1
    assert merged.histograms["h"].count == 2

    before = r1.snapshot()
    r1.counter("x").inc(4)
    r1.histogram("h").observe(0.003)
    delta = r1.snapshot().diff(before)
    assert delta.counters["x"] == 4
    assert delta.histograms["h"].count == 1

    wire = pickle.loads(pickle.dumps(merged))
    assert wire.counters == merged.counters
    assert wire.histograms["h"].count == 2


def test_registry_thread_safety_exact_totals():
    reg = MetricsRegistry()
    threads, per_thread = 8, 2000
    barrier = threading.Barrier(threads)

    def work():
        barrier.wait()
        for _ in range(per_thread):
            # get-or-create from every thread on the same names.
            reg.counter("shared.count").inc()
            reg.histogram("shared.lat").observe(1e-4)

    ts = [threading.Thread(target=work) for _ in range(threads)]
    for t in ts:
        t.start()
    for t in ts:
        t.join()
    total = threads * per_thread
    assert reg.counter("shared.count").value == total
    assert reg.histogram("shared.lat").count == total


# ---------------------------------------------------------------------------
# Stats views over the registry


def test_lsm_stats_are_registry_views():
    read = LSMReadStats()
    read.memtable_hits += 2
    read.add(run_probes=3)
    assert read.memtable_hits == 2
    assert read.run_probes == 3
    assert read.registry.counter("lsm.read.memtable_hits").value == 2

    write = LSMWriteStats()
    write.stall_seconds += 0.5
    write.keys_written += 10
    write.add(entries_sealed=10, entries_compacted=10)
    assert write.stall_seconds == pytest.approx(0.5)
    assert write.write_amplification == pytest.approx(2.0)
    snap = write.registry.snapshot()
    assert snap.counters["lsm.write.keys_written"] == 10
    write.reset()
    assert write.keys_written == 0


def test_rmi_and_coalescer_stats_views():
    rmi = RMIStats()
    rmi.lookups += 4
    rmi.window_total += 12
    assert rmi.mean_window == pytest.approx(3.0)

    stats = CoalescerStats()
    stats.ticks += 1
    stats.requests_served += 7
    stats.add(point_calls=2, point_keys=14, range_calls=1, ranges=3)
    assert stats.mean_point_batch() == pytest.approx(7.0)
    snap = stats.registry.snapshot()
    assert snap.counters["serving.coalescer.requests_served"] == 7
    assert snap.counters["serving.coalescer.point_keys"] == 14
    assert snap.counters["serving.coalescer.ranges"] == 3


@pytest.mark.parametrize("build", [
    lambda keys: RecursiveModelIndex(keys, stage_sizes=(1, 64)),
    lambda keys: HybridIndex(keys, stage_sizes=(1, 64), threshold=0),
    PGMIndex,
    RadixSplineIndex,
])
def test_a_batch_call_leaves_the_index_stats_alone(build):
    """``RMIStats`` count scalar lookups only; with telemetry on, the
    registry counts the batch calls, whichever path answers them."""
    keys = np.arange(0, 600_000, 3, dtype=np.int64)
    index = build(keys)
    index.lookup(3_000)
    stats = index.stats
    before = (stats.lookups, stats.comparisons, stats.fixups,
              stats.window_total)
    assert before[0] == 1
    registry = obs.default_registry()
    counted = registry.snapshot()
    obs.set_enabled(True)
    queries = np.random.default_rng(5).integers(-5, 600_005, 50_000)
    index.lookup_batch(queries[:8])
    index.lookup_batch(queries, sort=False)
    index.lookup_batch(queries, sort=True)
    index.contains_batch(queries)
    index.range_query_batch(queries[:100], queries[:100] + 30)
    assert (stats.lookups, stats.comparisons, stats.fixups,
            stats.window_total) == before
    calls = registry.snapshot().diff(counted).counters
    assert calls["engine.lookup_batch.calls"] == 5
    assert calls["engine.lookup_batch.column_keys"] >= 8


def test_engine_counters_say_which_path_answered():
    """``engine.lookup_batch.calls`` / ``.keys`` count every dispatched
    batch, ``.column_calls`` / ``.column_keys`` the ones the column
    answered; the difference is the engine's share."""
    keys = np.arange(0, 600_000, 3, dtype=np.int64)
    index = RecursiveModelIndex(keys, stage_sizes=(1, 64))
    rng = np.random.default_rng(21)
    sizes = [8, 100_000, 8, 8, 100_000]
    batches = [rng.integers(-5, 600_005, size) for size in sizes]

    def lookup_all():
        for queries in batches:
            np.testing.assert_array_equal(
                index.lookup_batch(queries), np.searchsorted(keys, queries)
            )

    registry = obs.default_registry()
    before = registry.snapshot()
    lookup_all()  # disabled: nothing is counted
    assert registry.snapshot().diff(before).counters.get(
        "engine.lookup_batch.calls", 0
    ) == 0

    obs.set_enabled(True)
    lookup_all()
    counted = registry.snapshot().diff(before).counters
    calls = counted["engine.lookup_batch.calls"]
    column_calls = counted["engine.lookup_batch.column_calls"]
    assert (calls, column_calls) == (5, 3)
    assert counted["engine.lookup_batch.keys"] == sum(sizes)
    assert counted["engine.lookup_batch.column_keys"] == 24
    # A batch call keeps no per-index stats; only scalar lookups do.
    assert index.stats.lookups == index.stats.window_total == 0
    index.lookup(int(batches[0][0]))
    assert index.stats.lookups == 1

    # Disabled telemetry costs the new branch one attribute read: all
    # four counters live under the one ``if obs_state.enabled:``.
    source = inspect.getsource(CompiledPlan.lookup_batch)
    guarded = source.split("if obs_state.enabled:")
    assert len(guarded) == 2
    assert "reg.counter(" not in guarded[0]
    assert guarded[1].count("reg.counter(") == 4


def test_paged_io_counters_in_registry():
    store = PageStore(np.arange(0, 4096, dtype=np.int64), page_size=256)
    store.read_page(0)
    store.read_page(0)  # a buffer-pool hit: no I/O counted
    store.read_page(1)
    assert (store.page_reads, store.bytes_read) == (2, 2 * 256 * 8)
    snap = store.registry.snapshot()
    assert snap.counters["paged.io.page_reads"] == store.page_reads
    assert snap.counters["paged.io.bytes_read"] == store.bytes_read
    store.reset_io()
    assert store.page_reads == 0
    assert store.registry.counter("paged.io.page_reads").value == 0
    assert store.registry.counter("paged.io.bytes_read").value == 0


# ---------------------------------------------------------------------------
# Histogram percentiles


def test_histogram_p50_is_a_real_quantile_estimate():
    sample = np.abs(
        np.random.default_rng(7).lognormal(-9.0, 1.0, 5000)
    )
    hist = LatencyHistogram()
    observe_all(hist, sample)
    p50 = hist.percentile(50.0)
    exact = float(np.percentile(sample, 50.0))
    assert exact / (1.5) <= p50 <= exact * 1.5


# ---------------------------------------------------------------------------
# Tracing


def test_span_disabled_is_noop():
    with obs.span("x.y", foo=1) as attrs:
        assert attrs is None
    assert obs.all_spans() == []
    assert obs.current_trace_id() is None


def test_span_hierarchy_and_auto_histogram():
    obs.set_enabled(True)
    with obs.trace_scope() as tid:
        with obs.span("outer") as outer_attrs:
            outer_attrs["k"] = "v"
            with obs.span("inner"):
                pass
    spans = {s["name"]: s for s in obs.all_spans()}
    assert spans["outer"]["trace_id"] == tid
    assert spans["inner"]["parent_id"] == spans["outer"]["span_id"]
    assert spans["outer"]["attrs"]["k"] == "v"
    # Span durations auto-observe into the default registry.
    snap = obs.default_registry().snapshot()
    assert snap.histograms["span.outer"].count >= 1
    exported = obs.export_trace(tid)
    assert exported["trace_id"] == tid
    assert {s["name"] for s in exported["spans"]} == {"outer", "inner"}


def test_wire_context_adopt_propagates_trace():
    obs.set_enabled(True)
    with obs.trace_scope() as tid:
        with obs.span("client"):
            wire = obs.wire_context()
    # Simulate the worker side of the pipe RPC.
    obs.reset_tracing()
    with obs.adopt(wire):
        assert obs.current_trace_id() == tid
        with obs.span("worker.op"):
            pass
    worker_spans = obs.trace_spans(tid)
    assert [s["name"] for s in worker_spans] == ["worker.op"]
    assert obs.adopt(None) is not None  # None wire is an inert scope
    with obs.adopt(None):
        assert obs.current_trace_id() is None


def test_record_manual_span_and_membership():
    obs.set_enabled(True)
    member = obs.new_trace_id()
    with obs.trace_scope(member_ids=(member,)):
        with obs.span("tick"):
            pass
    obs.record_manual_span(
        "request", member, start=0.0, duration=0.001,
        attrs={"kind": "point"},
    )
    spans = obs.trace_spans(member)
    names = sorted(s["name"] for s in spans)
    # Membership pulls the tick into the request's trace.
    assert names == ["request", "tick"]


# ---------------------------------------------------------------------------
# Exporters


def test_prometheus_and_json_exporters():
    reg = MetricsRegistry()
    reg.counter("lsm.read.memtable_hits").inc(4)
    h = reg.histogram("span.lookup")
    observe_all(h, np.array([1e-4, 2e-4, 1e-3]))
    snap = reg.snapshot()

    text = prometheus_text(snap)
    assert "# TYPE repro_lsm_read_memtable_hits counter" in text
    assert "repro_lsm_read_memtable_hits 4" in text
    assert 'le="+Inf"' in text
    assert "repro_span_lookup_count 3" in text
    # Cumulative bucket counts end at the total count.
    inf_line = [
        line for line in text.splitlines() if 'le="+Inf"' in line
    ][0]
    assert inf_line.rstrip().endswith(" 3")

    import json

    payload = json.loads(json.dumps(snap.to_dict()))
    assert payload["counters"]["lsm.read.memtable_hits"] == 4
    assert payload["histograms"]["span.lookup"]["count"] == 3
