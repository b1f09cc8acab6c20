"""Process-local metrics registry: counters, gauges, histograms.

A ``MetricsRegistry`` is a named bag of thread-safe instruments.
``snapshot()`` produces a lock-free, picklable ``RegistrySnapshot``
that supports ``merge`` (exact, for cross-process aggregation) and
``diff`` (for the delta-piggyback protocol: a shard worker snapshots
after each command and ships only the change since the previous ack).

Naming scheme (see the Observability section of ROADMAP.md): dotted
lowercase ``<subsystem>.<component>.<what>``; histograms of span
durations are auto-registered as ``span.<span-name>`` in the process
default registry.
"""

from __future__ import annotations

import threading

from .histogram import LatencyHistogram


class Counter:
    """Monotonic (by convention) numeric counter; ``inc`` is atomic."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, delta=1) -> None:
        with self._lock:
            self._value += delta

    def set(self, value) -> None:
        with self._lock:
            self._value = value

    @property
    def value(self):
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({self.name}={self._value})"


class Gauge:
    """Point-in-time numeric value; last write wins on merge."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value) -> None:
        with self._lock:
            self._value = value

    def inc(self, delta=1) -> None:
        with self._lock:
            self._value += delta

    @property
    def value(self):
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Gauge({self.name}={self._value})"


class MetricsRegistry:
    """Get-or-create instrument namespace; safe under free threading."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict = {}
        self._gauges: dict = {}
        self._histograms: dict = {}

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            with self._lock:
                c = self._counters.setdefault(name, Counter(name))
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            with self._lock:
                g = self._gauges.setdefault(name, Gauge(name))
        return g

    def histogram(self, name: str) -> LatencyHistogram:
        h = self._histograms.get(name)
        if h is None:
            with self._lock:
                h = self._histograms.setdefault(name, LatencyHistogram())
        return h

    def snapshot(self) -> "RegistrySnapshot":
        with self._lock:
            counters = {n: c.value for n, c in self._counters.items()}
            gauges = {n: g.value for n, g in self._gauges.items()}
            hists = {n: h.copy() for n, h in self._histograms.items()}
        return RegistrySnapshot(counters, gauges, hists)

    def reset(self) -> None:
        """Drop every instrument (test hygiene, not for production use)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


class RegistrySnapshot:
    """Immutable-by-convention, picklable view of a registry's state."""

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(self, counters=None, gauges=None, histograms=None) -> None:
        self.counters = dict(counters or {})
        self.gauges = dict(gauges or {})
        self.histograms = dict(histograms or {})

    def merge(self, other: "RegistrySnapshot") -> "RegistrySnapshot":
        """Fold ``other`` in: counters add, gauges last-write-wins,
        histograms vector-add.  Exact by construction. Returns self."""
        for name, v in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + v
        self.gauges.update(other.gauges)
        for name, h in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                self.histograms[name] = h.copy()
            else:
                mine.merge(h)
        return self

    def diff(self, prev: "RegistrySnapshot") -> "RegistrySnapshot":
        """Delta since ``prev`` (an earlier snapshot of the same
        registry).  Instruments absent from ``prev`` pass through."""
        counters = {
            n: v - prev.counters.get(n, 0) for n, v in self.counters.items()
        }
        hists = {}
        for name, h in self.histograms.items():
            old = prev.histograms.get(name)
            hists[name] = h.copy() if old is None else h.diff(old)
        return RegistrySnapshot(counters, dict(self.gauges), hists)

    def copy(self) -> "RegistrySnapshot":
        return RegistrySnapshot(
            dict(self.counters),
            dict(self.gauges),
            {n: h.copy() for n, h in self.histograms.items()},
        )

    def to_dict(self) -> dict:
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {n: h.to_dict() for n, h in self.histograms.items()},
        }

    @classmethod
    def merged(cls, snapshots) -> "RegistrySnapshot":
        out = cls()
        for snap in snapshots:
            out.merge(snap)
        return out


_default = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-global registry (span durations land here)."""
    return _default


def counter_field(slot: str, doc: str | None = None):
    """Property exposing registry counter ``slot`` of the owner's
    ``_counters`` dict as a plain attribute (``+=`` included)."""

    def _get(self):
        return self._counters[slot].value

    def _set(self, value):
        self._counters[slot].set(value)

    return property(_get, _set, doc=doc)


class StatsView:
    """Stats objects are thin views over a :class:`MetricsRegistry`:
    every public field is a :func:`counter_field` reading the counter
    named ``_PREFIX + field``, so the same numbers flow into exporters
    and cross-process merges with no parallel bookkeeping.  Each
    counter takes its own lock, so :meth:`add` keeps the
    lost-increment-free concurrency discipline the old shared-lock
    dataclasses had (bare ``+=`` on a shared attribute is a
    read-modify-write race)."""

    _FIELDS: tuple = ()
    _PREFIX = ""

    def __init__(self, registry=None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._counters = {
            name: self.registry.counter(self._PREFIX + name)
            for name in self._FIELDS
        }

    def add(self, **deltas) -> None:
        """Atomically add every ``counter=delta`` pair."""
        counters = self._counters
        for name, delta in deltas.items():
            counters[name].inc(delta)

    def reset(self) -> None:
        for counter in self._counters.values():
            counter.set(0)

    def __repr__(self) -> str:
        body = ", ".join(f"{n}={getattr(self, n)}" for n in self._FIELDS)
        return f"{type(self).__name__}({body})"
