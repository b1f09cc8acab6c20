"""Exporters: Prometheus text exposition and JSON traces."""

from __future__ import annotations

import json

from .histogram import bucket_upper_bound
from .registry import RegistrySnapshot


def _sanitize(name: str) -> str:
    out = []
    for ch in name:
        out.append(ch if ch.isalnum() or ch == "_" else "_")
    metric = "".join(out)
    if metric and metric[0].isdigit():
        metric = "_" + metric
    return metric


#: Namespace of every exported metric name.
PREFIX = "repro"


def prometheus_text(snapshot: RegistrySnapshot) -> str:
    """Prometheus text exposition format (version 0.0.4).

    Histogram buckets are emitted cumulatively with ``le`` labels at
    the fixed layout's upper bounds; empty buckets are skipped (the
    cumulative values remain correct without them).
    """
    lines = []
    for name in sorted(snapshot.counters):
        metric = f"{PREFIX}_{_sanitize(name)}"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {snapshot.counters[name]}")
    for name in sorted(snapshot.histograms):
        hist = snapshot.histograms[name]
        metric = f"{PREFIX}_{_sanitize(name)}"
        lines.append(f"# TYPE {metric} histogram")
        cum = 0
        for idx in hist.counts.nonzero()[0]:
            cum += int(hist.counts[idx])
            le = bucket_upper_bound(int(idx))
            lines.append(f'{metric}_bucket{{le="{le:.9g}"}} {cum}')
        lines.append(f'{metric}_bucket{{le="+Inf"}} {hist.count}')
        lines.append(f"{metric}_sum {hist.sum:.9g}")
        lines.append(f"{metric}_count {hist.count}")
    return "\n".join(lines) + "\n"


def trace_json(trace: dict) -> str:
    """JSON form of ``tracing.export_trace`` output."""
    return json.dumps(trace, indent=2, sort_keys=False)
