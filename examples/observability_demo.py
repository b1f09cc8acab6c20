"""Scenario: tracing one request across processes (PR 9).

Telemetry is off by default — the serving stack pays one attribute
check per instrumented site.  This example switches it on, drives a
few coalesced lookups and a sealing write batch through a
``ShardedLSMStore``, and then prints what the obs core collected:

* one exported JSON trace in which the client's coalescer tick and
  shard fanout appear next to the *worker processes'* spans (store
  lookup, WAL append, seal), joined by the trace id that rode the
  pipe RPC;
* the merged Prometheus-format metrics — every worker's registry
  deltas piggybacked home on command acks and vector-added into one
  exact aggregate.

Run:  python examples/observability_demo.py
"""

import asyncio
import tempfile

import numpy as np

from repro import obs
from repro.serving import CoalescingIndexServer, ShardedLSMStore


def drive(store: ShardedLSMStore, keys: np.ndarray) -> None:
    async def run() -> None:
        server = CoalescingIndexServer(store)
        got = await asyncio.gather(
            *(server.lookup(int(k)) for k in keys[:12])
        )
        assert got == [int(k) for k in keys[:12]]

    asyncio.run(run())


def main() -> None:
    obs.set_enabled(True)
    obs.set_process_name("client")
    keys = np.arange(0, 50_000, dtype=np.int64)

    with tempfile.TemporaryDirectory() as tmp:
        store = ShardedLSMStore(
            2,
            keys,
            path=tmp,
            store_kwargs={"memtable_capacity": 512},
        )
        try:
            drive(store, keys)
            # Enough new keys to roll the 512-entry memtables: the
            # write trace picks up WAL appends and a seal inside each
            # worker.
            with obs.trace_scope() as write_trace:
                store.insert_batch(
                    np.arange(100_000, 101_000, dtype=np.int64)
                )

            read_trace = next(
                s["trace_id"]
                for s in obs.all_spans()
                if s["name"] == "serving.request"
            )
            print("=== one read request, across processes ===")
            print(obs.trace_json(obs.export_trace(read_trace)))
            print()
            print("=== one write batch, across processes ===")
            print(obs.trace_json(obs.export_trace(write_trace)))
            print()
            print("=== merged metrics (client + every shard) ===")
            print(obs.prometheus_text(store.metrics().merged))
        finally:
            store.close()


if __name__ == "__main__":
    main()
