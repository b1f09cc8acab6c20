"""The traced run: per-layer metrics, outside in.

Every number here comes from spans the benchmark records around its own
calls into a layer (harness.SpanRecorder) or from counters the layer
already exposes.  Nothing is gated on these; they say where the time of
an end-to-end metric sits, and README.md lists which end-to-end metric
each should move.  Counts repeat exactly at a fixed seed.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import statistics
from dataclasses import replace

import numpy as np

from repro import obs
from repro.lsm import (
    Memtable, RealFileSystem, SortedRun, WriteAheadLog, merge_runs,
)
from repro.serving import CoalescingIndexServer

from harness import (
    Contender, SpanRecorder, Tally, best_tenth, exact, metric, perf,
    pool_calls, quiet_gc, repetitions, time_calls,
)
from phases import (
    build_expected, check_reopened, check_served, closed_loop, open_store,
    open_write_store, read_run, run_writes, same_kv, set_up, start_shards,
)
from workloads import value_of


def plan_of(index):
    """The compiled plan (leaf tables + key column) behind a static
    index.  The benchmark's only private reach-in: when the index
    surface grows a public accessor, this line is the one to change."""
    return index._plan


class TracedStore:
    """A store's batch calls with a span around each — the proxy handed
    to the write loop and to the coalescing server."""

    def __init__(self, store, rec: SpanRecorder, layer: str):
        self.store = store
        for name in ("insert_batch", "delete_batch", "lookup_batch",
                     "range_query_batch"):
            if hasattr(store, name):
                setattr(self, name,
                        rec.wrap(f"{layer}.{name}", getattr(store, name)))


#: Units of the numbers read off the store's own counters.
COUNTER_UNITS = {
    "seals": "count", "merges": "count", "write_amplification": "ratio",
    "runs_after_write": "count", "stall_s": "s",
    "runs_probed_per_key": "count", "negative_probes_eliminated": "ratio",
    "fpr_observed": "ratio",
}


def per_call(rec: SpanRecorder, name: str, unit: str, per: float) -> dict:
    """Duration of the named spans (best-tenth mean), scaled to ``unit``."""
    return metric(rec.seconds(name), unit, per)


# -- static indexes: engine stages, root model, families, baseline ------------------


def engine_layers(w, inputs, stack, expected, tally, rec, reps, warmups):
    """Time the four engine stages of the RMI one by one on the
    workload's own batches, next to the whole call they add up to."""
    plan = plan_of(stack.rmi)
    column = plan.column
    plans = {"pgm": plan_of(stack.pgm), "rs": plan_of(stack.rs)}
    keys = inputs.keys
    windows = {name: [] for name in ("rmi", "pgm", "rs")}
    fixups = queries = 0
    pool = list(zip(inputs.point_pool, expected.point))
    for r in range(warmups + reps):
        # warm-up rounds record into a recorder that is thrown away
        spans = rec if r >= warmups else SpanRecorder()
        for j in range(w.calls_per_rep):
            q, want = pool[(r * w.calls_per_rep + j) % len(pool)]
            with spans.span("core.engine.prepare"):
                qb = column.prepare(q)
            with spans.span("core.engine.route"):
                leaf, raw = plan.route(qb)
            with spans.span("core.engine.window"):
                lo, hi = plan.windows_from_raw(leaf, raw)
            with spans.span("core.engine.search"):
                pos, missed = column.bounded_lower_bounds(qb, lo, hi)
            tally.check(np.array_equal(pos, want), "engine stages")
            with spans.span("core.engine.lookup_batch"):
                whole = stack.rmi.lookup_batch(q, sort=False)
            with spans.span("core.engine.sorted_path"):
                by_sort = stack.rmi.lookup_batch(q, sort=True)
            tally.check(np.array_equal(whole, want)
                        and np.array_equal(by_sort, want), "engine whole call")
            with spans.span("models.root.predict"):
                plan.root_predict_batch(qb.float64)
            with spans.span("btree.searchsorted"):
                np.searchsorted(keys, q)
            for name, other in plans.items():
                with spans.span(f"families.{name}.route"):
                    routed = other.route(qb)
                if r >= warmups:
                    f_lo, f_hi = other.windows_from_raw(*routed)
                    windows[name].append(float((f_hi - f_lo).mean()))
            if r >= warmups:
                windows["rmi"].append(float((hi - lo).mean()))
                fixups += missed
                queries += q.size

    ns = 1e9 / w.call_keys
    stages = {s: per_call(rec, f"core.engine.{s}", "ns/key", ns)
              for s in ("prepare", "route", "window", "search")}
    stage_sum = sum(m["value"] for m in stages.values())
    whole = per_call(rec, "core.engine.lookup_batch", "ns/key", ns)
    out = {f"core.engine.{s}_ns": m for s, m in stages.items()}
    out.update({
        "core.engine.search_share": exact(
            stages["search"]["value"] / stage_sum, "ratio"),
        "core.engine.window_mean": exact(
            statistics.fmean(windows["rmi"]), "count"),
        "core.engine.fixup_rate": exact(fixups / queries, "ratio"),
        "core.engine.sorted_path_ns": per_call(
            rec, "core.engine.sorted_path", "ns/key", ns),
        "core.engine.stage_cover": exact(stage_sum / whole["value"], "ratio"),
        "models.root.predict_ns": per_call(
            rec, "models.root.predict", "ns/key", ns),
        "models.rmi.build_s": exact(stack.seconds["rmi"], "s"),
        "btree.searchsorted_ns": per_call(
            rec, "btree.searchsorted", "ns/key", ns),
    })
    for name, index in (("pgm", stack.pgm), ("rs", stack.rs)):
        out.update({
            f"families.{name}.route_ns": per_call(
                rec, f"families.{name}.route", "ns/key", ns),
            f"families.{name}.segments": exact(index.segment_count, "count"),
            f"families.{name}.window_mean": exact(
                statistics.fmean(windows[name]), "count"),
            f"families.{name}.build_s": exact(stack.seconds[name], "s"),
            f"families.{name}.bytes_per_key": exact(
                index.size_bytes() / keys.size, "B/key"),
        })
    return out


# -- LSM parts: memtable, WAL, run build/save, merge, probe, bloom ------------------


def lsm_part_layers(w, inputs, read_store, rec, reps, workdir):
    """Each part of the write and read path called on its own, at the
    batch and memtable sizes this workload gives the store."""
    fs = RealFileSystem()
    batch, cap = w.write_batch, w.memtable
    stream = inputs.stream
    values = value_of(stream)
    batches = [slice(i, i + batch) for i in range(0, cap, batch)]
    wal_path = os.path.join(workdir, "layer.wal")
    for r in range(reps):
        table = Memtable()
        WriteAheadLog.create(fs, wal_path)
        wal = WriteAheadLog(fs, wal_path, fsync=False)
        try:
            for rows in batches:
                with rec.span("lsm.memtable.put_batch"):
                    table.put_batch(stream[rows], values[rows])
                with rec.span("lsm.wal.append"):
                    wal.append_puts(stream[rows], values[rows])
                with rec.span("lsm.wal.fsync"):
                    wal.sync()
        finally:
            wal.close()
            os.remove(wal_path)

    # runs the size of a sealed memtable; as many as the stream fills, 2..4
    count = min(max(stream.size // cap, 2), 4)
    cap = min(cap, stream.size // count)
    runs = []
    run_path = os.path.join(workdir, "layer.run")
    for i in range(count):
        part = np.sort(stream[i * cap:(i + 1) * cap])
        with rec.span("lsm.run.build"):
            run = SortedRun.from_arrays(
                part, value_of(part), np.zeros(part.size, dtype=bool),
                sequence=i + 1)
        with rec.span("lsm.run.save"):
            run.save(fs, run_path)
        os.remove(run_path)
        runs.append(run)
    for _ in range(reps):
        with rec.span("lsm.compaction.merge"):
            merge_runs(runs[::-1], drop_tombstones=True)

    # probe and guard of the largest resident run, on the read batches
    big = max(read_store.runs, key=len)
    for r in range(reps):
        q = inputs.read_pool[r % len(inputs.read_pool)]
        with rec.span("lsm.run.probe"):
            big.probe_batch(q)
        with rec.span("lsm.run.bloom"):
            big.bloom_contains_batch(q)
    return {
        "lsm.memtable.put_ns": per_call(
            rec, "lsm.memtable.put_batch", "ns/key", 1e9 / batch),
        "lsm.wal.append_ns": per_call(
            rec, "lsm.wal.append", "ns/key", 1e9 / batch),
        "lsm.wal.fsync_us": per_call(rec, "lsm.wal.fsync", "us", 1e6),
        "lsm.run.build_ns": per_call(rec, "lsm.run.build", "ns/key", 1e9 / cap),
        "lsm.run.save_ns": per_call(rec, "lsm.run.save", "ns/key", 1e9 / cap),
        "lsm.compaction.merge_ns": per_call(
            rec, "lsm.compaction.merge", "ns/key", 1e9 / (cap * count)),
        "lsm.run.probe_ns": per_call(
            rec, "lsm.run.probe", "ns/key", 1e9 / w.call_keys),
        "lsm.run.bloom_ns": per_call(
            rec, "lsm.run.bloom", "ns/key", 1e9 / w.call_keys),
    }


# -- LSM store: the write stream under four configurations --------------------------


def store_layers(w, inputs, stack, expected, tally, rec, workdir):
    """One traced repetition of the write phase as gated, then the same
    stream memory-only, with per-append fsync, and with background
    compaction.  Returns (metrics, directory of the gated repetition)."""

    def one(layer, path, **options):
        store = open_write_store(w, inputs, stack, path, **options)
        try:
            with rec.span(layer):
                seconds, keys, _, looked = run_writes(
                    w, inputs, expected, TracedStore(store, rec, layer), tally)
            if options.get("background"):
                store.wait_for_compaction()
            sample, want = expected.sample
            tally.check(same_kv(store.lookup_batch(sample), want),
                        f"{layer}: read-back")
            stats = store.write_stats
            counts = {
                "seals": stats.seals, "merges": stats.compactions,
                "write_amplification": stats.write_amplification,
                "runs_after_write": store.num_runs,
                "stall_s": stats.stall_seconds,
            }
            if looked:
                counts.update(_read_counts(store))
        finally:
            store.close()
        return seconds.sum() / keys * 1e9, counts

    path = os.path.join(workdir, "layer-write")
    _, counts = one("lsm.store", path)
    scratch = os.path.join(workdir, "layer-variant")
    variants = {}
    for name, variant_path, options in (
        ("mem", None, {}), ("fsync", scratch, dict(wal_fsync=True)),
        ("bg", scratch, dict(background=True)),
    ):
        variants[name], _ = one(f"lsm.store.{name}", variant_path, **options)
        shutil.rmtree(scratch, ignore_errors=True)

    insert_s = rec.seconds("lsm.store.insert_batch")
    out = {f"lsm.store.{k}": exact(v, COUNTER_UNITS[k])
           for k, v in counts.items()}
    out.update({
        "lsm.store.insert_p50_us": exact(
            float(np.percentile(insert_s, 50)) * 1e6, "us"),
        "lsm.store.insert_p99_ms": exact(
            float(np.percentile(insert_s, 99)) * 1e3, "ms"),
        "lsm.store.insert_max_ms": exact(float(insert_s.max()) * 1e3, "ms"),
        "lsm.store.write_ns_mem": exact(variants["mem"], "ns/key"),
        "lsm.store.write_ns_fsync": exact(variants["fsync"], "ns/key"),
        "lsm.store.bg_insert_p99_ms": exact(float(np.percentile(
            rec.seconds("lsm.store.bg.insert_batch"), 99)) * 1e3, "ms"),
    })
    return out, path


def _read_counts(store) -> dict:
    """Read amplification since the store's read counters were last reset."""
    stats = store.read_stats
    negative = stats.bloom_rejects + stats.probe_misses
    return {
        "runs_probed_per_key": stats.run_probes / max(stats.lookups, 1),
        "negative_probes_eliminated": stats.negative_probes_eliminated,
        "fpr_observed": stats.probe_misses / negative if negative else 0.0,
    }


def read_layers(inputs, store, expected, tally, rec, reps):
    """The KV read phase traced and untraced side by side; read
    amplification from the store's own counters."""
    store.read_stats.reset()

    def contender(lookup_batch):
        return Contender(read_run(
            "lsm.store.lookup_batch", lookup_batch, inputs.read_pool,
            expected.read, 1, tally), reps, 1)

    with quiet_gc():
        kept = repetitions({
            "plain": contender(store.lookup_batch),
            "traced": contender(
                rec.wrap("lsm.store.lookup_batch", store.lookup_batch)),
        })
    return kept, _read_counts(store)


# -- serving: coalescer, direct calls, open loop ---------------------------------------


async def _open_loop(server, w, requests, rate: float):
    """Fixed-rate arrivals.  Each request is timed from when it was
    due, so a stall is charged to every request queued behind it; how
    late the generator itself ran is returned beside the latencies."""
    single = w.request_keys == 1
    call = server.lookup if single else server.lookup_batch
    args = requests[:, 0].tolist() if single else list(requests)
    n = len(args)
    latency, late, results = np.empty(n), np.empty(n), [None] * n

    async def one(i: int, due: float) -> None:
        try:
            results[i] = await call(args[i])
        except Exception as exc:  # noqa: BLE001 — counted by check_served
            results[i] = exc
        latency[i] = perf() - due

    start = perf()
    tasks = []
    i = 0
    while i < n:
        # send everything that is due by now, then sleep to the next
        now = perf()
        due_now = min(int((now - start) * rate) + 1, n)
        while i < due_now:
            due = start + i / rate
            late[i] = now - due
            tasks.append(asyncio.ensure_future(one(i, due)))
            i += 1
        await asyncio.sleep(max(start + i / rate - perf(), 0.0))
    await asyncio.gather(*tasks)
    return latency, late, results


def serving_layers(w, inputs, store, expected, tally, rec, workdir):
    per_client = w.requests_per_client
    requests = inputs.serve_requests
    want = list(expected.serve)

    def fresh_copy():
        """Inline inserts change the store: serve them on a copy."""
        if inputs.serve_inserts is None:
            return store, lambda: None
        path = os.path.join(workdir, "layer-serve")
        store.backup(path)
        copy = open_store(w, path)

        def done():
            copy.close()
            shutil.rmtree(path)

        return copy, done

    def loop(traced: bool):
        target, done = fresh_copy()
        try:
            if traced:
                with rec.span("serving.rep"):
                    wall, results, stats = closed_loop(
                        w, target, requests, inputs.serve_inserts, rec,
                        TracedStore(target, rec, "serving.store_call"))
            else:
                wall, results, stats = closed_loop(
                    w, target, requests, inputs.serve_inserts)
        finally:
            done()
        check_served(w, results, want, tally)
        return w.clients * per_client / wall / 1e3, stats

    with quiet_gc():
        loop(False)  # warm-up
        plain, _ = loop(False)
        traced, stats = loop(True)
        rep_s = rec.seconds("serving.rep").sum()
        busy = 1.0 - rec.self_seconds("serving.rep") / rep_s

        # the same requests, one store call each, no coalescer
        k = w.request_keys
        some = requests.reshape(-1, k)[:max(w.clients * per_client // 4, 1)]
        some_want = [e[:some.shape[0]] for e in want]
        calls = [((q,), (some_want[0][i], some_want[1][i]))
                 for i, q in enumerate(some)]
        direct_s = time_calls(
            tally, "serving.direct", store.lookup_batch, calls, same_kv).sum()

        # open loop at half the closed-loop rate, about a second of it
        rate = plain * 1e3 / 2
        count = min(int(rate), some.shape[0] * 4)
        sent = requests.reshape(-1, k)[:count]
        sent_want = [e[:count] for e in want]

        async def open_main():
            return await _open_loop(CoalescingIndexServer(store), w, sent, rate)

        latency, late, results = asyncio.run(open_main())
        check_served(replace(w, clients=1, requests_per_client=count),
                     [results], sent_want, tally)
    return {
        "serving.coalescer.mean_batch": exact(stats.mean_point_batch(), "count"),
        "serving.coalescer.ticks": exact(stats.ticks, "count"),
        "serving.coalescer.store_busy_share": exact(busy, "ratio"),
        "serving.direct_kreq_s": exact(len(calls) / direct_s / 1e3, "kreq/s"),
        "serving.open.p50_us": exact(
            float(np.percentile(latency, 50)) * 1e6, "us"),
        "serving.open.p99_us": exact(
            float(np.percentile(latency, 99)) * 1e6, "us"),
        "serving.open.late_us": exact(
            float(np.percentile(late, 50)) * 1e6, "us"),
        "trace.overhead.serve_kreq_s": exact(traced / plain - 1.0, "ratio"),
    }


# -- sharded store: round trips, fan-out, writes -----------------------------------------


def sharded_layers(w, inputs, stack, expected, tally, rec, reps):
    shards = stack.shards
    small = [q[:64] for q in inputs.shard_pool]
    small_want = [(v[:64], f[:64]) for v, f in expected.shard]
    round_trip = rec.wrap("serving.sharded.round_trip", shards.lookup_batch)
    for r in range(reps * 8):
        i = r % len(small)
        got = round_trip(small[i])
        tally.check(same_kv(got, small_want[i]), "sharded round trip")

    # worker-reported busy time needs the workers' telemetry: a second
    # sharded store started with it on, read with the workload's batches
    obs.set_enabled(True)
    try:
        traced = start_shards(w, inputs)
        try:
            for r in range(reps * w.shard_calls_per_rep):
                i = r % len(inputs.shard_pool)
                with rec.span("serving.sharded.fanout"):
                    got = traced.lookup_batch(inputs.shard_pool[i])
                tally.check(same_kv(got, expected.shard[i]), "sharded fan-out")
            busy = max(
                snap.histograms["span.worker.lookup_batch"].sum
                for snap in traced.metrics().per_shard
            )
        finally:
            traced.close()
    finally:
        obs.set_enabled(False)
        obs.reset_tracing()
    wall = rec.seconds("serving.sharded.fanout").sum()

    # writes last: they change the shards every read above relied on
    batch = w.write_batch
    stream = inputs.stream[:batch * 16]
    for i in range(0, stream.size, batch):
        with rec.span("serving.sharded.insert_batch"):
            shards.insert_batch(stream[i:i + batch], value_of(stream[i:i + batch]))
    sample = stream[:1024]
    tally.check(same_kv(shards.lookup_batch(sample),
                        (value_of(sample), np.ones(sample.size, dtype=bool))),
                "sharded read-back")
    return {
        "serving.sharded.rtt_us": per_call(
            rec, "serving.sharded.round_trip", "us", 1e6),
        "serving.sharded.fanout_share": exact(1.0 - busy / wall, "ratio"),
        "serving.sharded.write_ns": per_call(
            rec, "serving.sharded.insert_batch", "ns/key", 1e9 / batch),
        "serving.sharded.start_s": exact(stack.seconds["shards"], "s"),
    }


# -- what the instruments cost -------------------------------------------------------------


def lookup_overheads(w, inputs, stack, expected, tally, rec, reps):
    """RMI lookups plain, with a span around each call, and with the
    program's own telemetry switched on — interleaved."""
    calls = pool_calls([(q,) for q in inputs.point_pool], expected.point,
                       w.calls_per_rep)
    lookup = stack.rmi.lookup_batch

    def contender(fn, telemetry=False):
        def run(i: int) -> float:
            obs.set_enabled(telemetry)
            try:
                return time_calls(tally, "core.rmi.lookup_batch", fn, calls(i),
                                  np.array_equal).sum()
            finally:
                obs.set_enabled(False)
        return run

    with quiet_gc():
        kept = repetitions({
            "plain": Contender(contender(lookup), reps, 1),
            "traced": Contender(
                contender(rec.wrap("core.rmi.lookup_batch", lookup)), reps, 1),
            "telemetry": Contender(contender(lookup, telemetry=True), reps, 1),
        })
    plain = best_tenth(kept["plain"])
    return {
        "obs.enabled_overhead": exact(
            best_tenth(kept["telemetry"]) / plain - 1.0, "ratio"),
        "trace.overhead.lookup_ns": exact(
            best_tenth(kept["traced"]) / plain - 1.0, "ratio"),
    }


# -- the traced run ---------------------------------------------------------------------------


def run_layers(w, scale, seed: int, seconds: float, workdir: str):
    """Every per-layer metric of one workload.  Returns (metrics, tally,
    span recorder).  ``seconds`` is accepted for the command line's
    sake: the traced run does a fixed amount of work."""
    tally = Tally()
    rec = SpanRecorder()
    reps = max(scale.kernel_reps // 3, 3)
    inputs, stack, _ = set_up(w, seed, replace(scale, setups=1), workdir)
    served = None
    try:
        expected = build_expected(w, inputs)
        out = {}
        with quiet_gc():
            out.update(engine_layers(
                w, inputs, stack, expected, tally, rec, reps, scale.warmups))
        out.update(lookup_overheads(w, inputs, stack, expected, tally, rec, reps))

        with quiet_gc():
            store_out, write_dir = store_layers(
                w, inputs, stack, expected, tally, rec, workdir)
        out.update(store_out)
        with rec.span("lsm.store.reopen"):
            served = open_store(w, write_dir)
        check_reopened(served, expected, tally)
        out["lsm.store.reopen_s"] = per_call(rec, "lsm.store.reopen", "s", 1.0)
        if not w.read_on_written:
            served.close()
            served = stack.kv

        with quiet_gc():
            out.update(lsm_part_layers(w, inputs, served, rec, reps, workdir))
        if not w.round_lookups:
            kept, read_counts = read_layers(
                inputs, served, expected, tally, rec, reps)
            out["trace.overhead.read_ns"] = exact(
                best_tenth(kept["traced"]) / best_tenth(kept["plain"])
                - 1.0, "ratio")
            out.update({f"lsm.store.{k}": exact(v, COUNTER_UNITS[k])
                        for k, v in read_counts.items()})
        else:
            # rounds: lookups already ran, traced, inside the write
            # repetition; trace them against a plain repetition's lookups
            out["trace.overhead.read_ns"] = exact(
                _rounds_read_overhead(w, inputs, stack, expected, tally, rec,
                                      workdir), "ratio")
        out["lsm.bloom.fpr_observed"] = out.pop("lsm.store.fpr_observed")

        out.update(serving_layers(
            w, inputs, served, expected, tally, rec, workdir))
        with quiet_gc():
            out.update(sharded_layers(
                w, inputs, stack, expected, tally, rec, reps))
        return out, tally, rec
    finally:
        if served is not None and served is not stack.kv:
            served.close()
        stack.close()


def _rounds_read_overhead(w, inputs, stack, expected, tally, rec, workdir):
    """Lookup time of one plain repetition of the rounds against the
    traced repetition's ``lsm.store.lookup_batch`` spans."""
    path = os.path.join(workdir, "layer-plain")
    store = open_write_store(w, inputs, stack, path)
    try:
        _, _, lookup_s, _ = run_writes(w, inputs, expected, store, tally)
    finally:
        store.close()
        shutil.rmtree(path)
    traced = rec.seconds("lsm.store.lookup_batch")[:lookup_s.size].sum()
    return traced / lookup_s.sum() - 1.0
