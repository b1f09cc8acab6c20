"""Timing, tallying and span recording shared by every phase.

Rules every timing here follows (README.md has the measurements behind
them): the garbage collector is off inside timed regions; results are
checked outside the timed region; a number comes from repetitions taken
after discarded warm-ups, as the mean of their best tenth; all
repetitions of a run are interleaved inside one loop.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

perf = time.perf_counter


class Tally:
    """Operations attempted and failed.  A wrong answer or an exception
    fails the operation; the run continues."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.first_failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        if len(self.first_failures) < 10:
            self.first_failures.append(what)


@contextmanager
def quiet_gc():
    """Collector off inside the block, a full collection after it."""
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.collect()


class Span:
    __slots__ = ("recorder", "index")

    def __init__(self, recorder: "SpanRecorder", index: int):
        self.recorder = recorder
        self.index = index

    def __enter__(self) -> int:
        return self.index

    def __exit__(self, *exc) -> None:
        rec = self.recorder
        rec.spans[self.index][2] = perf()
        rec.stack.pop()


class SpanRecorder:
    """The benchmark's own in-memory trace: ``[name, start, end, parent,
    request]`` per span, recorded around calls into a layer and written
    out when the run ends.  Spans of one request share its id; a span
    opened inside another on the same thread of control is its child."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []

    def span(self, name: str, request: int | None = None) -> Span:
        parent = self.stack[-1] if self.stack else -1
        if request is None and parent >= 0:
            request = self.spans[parent][4]
        index = len(self.spans)
        self.spans.append([name, perf(), None, parent, request])
        self.stack.append(index)
        return Span(self, index)

    def add(self, name, start, end, parent=-1, request=None) -> None:
        """A span timed by the caller (requests that overlap on the
        event loop cannot use the stack)."""
        self.spans.append([name, start, end, parent, request])

    def wrap(self, name: str, fn):
        """``fn`` with a span around every call."""

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def seconds(self, name: str) -> np.ndarray:
        return np.array(
            [s[2] - s[1] for s in self.spans if s[0] == name], dtype=float
        )

    def self_seconds(self, name: str) -> float:
        """Total duration of the named spans minus the part their
        direct children cover."""
        own = {i for i, s in enumerate(self.spans) if s[0] == name}
        total = sum(self.spans[i][2] - self.spans[i][1] for i in own)
        covered = sum(s[2] - s[1] for s in self.spans if s[3] in own)
        return total - covered

    def dump(self, path: str) -> None:
        with open(path, "w") as out:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "request"],
                 "spans": self.spans},
                out,
            )


def pooled(samples) -> np.ndarray:
    """Samples as one flat array; a repetition that timed several calls
    of one size contributes each call."""
    return np.concatenate([np.atleast_1d(s) for s in samples]).astype(float)


def best_tenth(samples, higher: bool = False) -> float:
    """Mean of the best tenth of the samples (at least two): the fastest
    timings, or with ``higher`` the highest rates.

    The noise on the shared box only ever slows a call down, and it
    comes as a second speed: for half a second or for minutes at a time
    everything, a bare Python loop included, runs 1.4-1.6x slower, with
    no steal time reported.  A median follows the share of a run spent
    in the slow state; the fast tail needs a tenth of the samples to
    have met the fast one (README.md has the tables).  The median is
    printed beside it; the best tenth is what is reported and gated.
    """
    ordered = np.sort(pooled(samples))
    if higher:
        ordered = ordered[::-1]
    return float(ordered[:max(round(ordered.size / 10), 2)].mean())


def metric(samples, unit: str, scale: float = 1.0, higher: bool = False) -> dict:
    """One reported timing (or rate) from its samples, each times
    ``scale``: the best-tenth mean as ``value``, with the median,
    quartiles and count that are printed beside it."""
    values = pooled(samples) * scale
    if values.size >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": best_tenth(values, higher), "unit": unit,
            "median": float(np.median(values)), "q1": float(q1),
            "q3": float(q3), "n": int(values.size)}


def ratio(numerator, denominator, unit: str) -> dict:
    """Best-tenth mean of one timing over that of another taken in the
    same rounds; median and quartiles are of the per-round ratios."""
    rounds = metric(
        [np.sum(a) / np.sum(b) for a, b in zip(numerator, denominator)], unit)
    rounds["value"] = best_tenth(numerator) / best_tenth(denominator)
    return rounds


def by_position(repetitions_, unit: str, scale: float = 1.0) -> dict:
    """A timing from repetitions that each make the same sequence of
    calls: every call counts at the fastest it ran in any repetition,
    and the value is the sum of those times ``scale``.

    A write repetition takes half a second and more, longer than the
    box stays fast, so whole repetitions rarely escape the noise; one
    call does.  Call ``j`` does the same work in every repetition (the
    stores seal and merge inline), so its fastest time is its own cost.
    Median, quartiles and count are of the whole repetitions."""
    rows = np.stack([np.asarray(r, dtype=float) for r in repetitions_])
    whole = metric(rows.sum(axis=1), unit, scale)
    whole["value"] = float(rows.min(axis=0).sum() * scale)
    return whole


def exact(value, unit: str) -> dict:
    return {"value": value, "unit": unit, "n": 1}


def time_calls(tally: Tally, what: str, fn, calls, same) -> np.ndarray:
    """Seconds spent inside each ``fn(*args)`` of ``calls`` (pairs of
    ``args, expected``).  Each result is checked with ``same(result,
    expected)`` after its clock stopped; an exception fails the call."""
    seconds = np.empty(len(calls))
    for i, (args, want) in enumerate(calls):
        t0 = perf()
        try:
            got = fn(*args)
        except Exception as exc:  # noqa: BLE001 — counted, run continues
            got = exc
        seconds[i] = perf() - t0
        ok = not isinstance(got, Exception) and same(got, want)
        tally.check(ok, f"{what}: {got!r}" if isinstance(got, Exception) else what)
    return seconds


@dataclass
class Contender:
    """One thing the repetition loop times.  ``run(i)`` performs its
    ``i``-th repetition and returns the sample to keep."""

    run: object
    floor: int  # kept repetitions wanted at least
    warmups: int  # leading repetitions whose sample is dropped
    every: int = 1  # takes part in every ``every``-th round ...
    offset: int = 0  # ... starting with round ``offset``


def repetitions(contenders: dict, budget_s: float = 0.0) -> dict:
    """Interleaved repetitions of every contender, in rounds.

    Each round runs once every contender that takes part in it,
    starting one further along the list each time so none always goes
    first or last.  All phases of a run share this one loop: the box
    this runs on is noisy on every time scale from 0.1 s to minutes, so
    each metric's samples are spread over the whole run rather than
    bunched into its own second or two, and contenders that are
    compared sit side by side in every round.  Runs until every
    contender has its warm-ups and floor, then on until ``budget_s`` is
    spent.  Returns the kept samples per contender.
    """
    names = list(contenders)
    kept: dict = {name: [] for name in names}
    done = dict.fromkeys(names, 0)
    rounds = max(
        c.offset % c.every + (c.warmups + c.floor - 1) * c.every + 1
        for c in contenders.values()
    )
    deadline = perf() + budget_s
    r = 0
    while r < rounds or perf() < deadline:
        for k in range(len(names)):
            name = names[(r + k) % len(names)]
            c = contenders[name]
            if r % c.every != c.offset % c.every:
                continue
            i = done[name]
            sample = c.run(i)
            done[name] = i + 1
            if i >= c.warmups:
                kept[name].append(sample)
        r += 1
    return kept


def pool_calls(pool_args: list, expected: list, per_rep: int):
    """``calls(r)``: the ``per_rep`` (args, expected) pairs repetition
    ``r`` runs, cycling through the pool."""
    size = len(pool_args)

    def calls(r: int):
        first = r * per_rep
        return [
            (pool_args[(first + j) % size], expected[(first + j) % size])
            for j in range(per_rep)
        ]

    return calls
