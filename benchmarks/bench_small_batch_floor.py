"""The small-batch floor: a learned index never loses to the column
it wraps (Section 3.3's promise, applied to the batch surface).

``lookup_batch`` picks per call, from (queries in the call, keys in
the column), between the model path and the whole-column search the
index already owns (``repro.core.engine.column_answers``).  This file
is both the guard on that choice and the source of its constants:

* the **floor table** times the engine forced with ``sort=False``, the
  column (``SortedKeyColumn.lower_bounds``) and the dispatched
  ``lookup_batch`` on the same cold query arrays, for three column
  sizes x five call sizes x three families, and asserts that the
  dispatched call is never more than 1.25x slower than the better of
  the two forced paths (a loss of a few us is allowed for
  separately: the three Python frames between ``index.lookup_batch``
  and the column cost ~1.5us here, half of an 8-key call, and no
  choice of path gives them back);
* the **dense column** row puts 131 072 int64 keys packed near 2^62
  (ulp 1 024: cast raw, ~500 neighbours share a float64) beside the
  uniform column of that size and asserts the forced engine costs the
  same on both at every call size — models are fitted on
  ``key - keys[0]``, so the float64 ulp must not widen a window
  (ROADMAP item 2a's dense case);
* the **crossover scan** prints, for every column size in
  ``COLUMN_CROSSOVERS`` (and one four times the largest, for
  ``COLUMN_CROSSOVER_BEYOND``), the paired column/engine time ratio
  over a grid of call sizes and the call size at which it crosses 1 —
  the number each row is set from.  Re-run it and edit the table when
  the engine's fixed cost changes;
* the **filter table** carries the same question one layer up: an LSM
  run's bloom pass against the probe it guards, on all-absent
  sub-batches (the filter's best case), beside the rule
  ``ReadView.lookup_batch`` applies
  (``repro.lsm.store.UNGUARDED_PROBE_FACTOR``).

Uniform int64 keys, 75% present / 25% absent queries, every call a
different array (a call that re-reads one array flatters whichever
side keeps it in cache).  Column sizes are not scaled by
``REPRO_SCALE``: the constants are per size.
"""

from __future__ import annotations

import numpy as np

from repro.bench import Table, compare_lookups
from repro.core import RecursiveModelIndex
from repro.core.engine import (
    COLUMN_CROSSOVER_BEYOND,
    COLUMN_CROSSOVERS,
    SortedKeyColumn,
    column_answers,
)
from repro.data import uniform_keys
from repro.families import PGMIndex, RadixSplineIndex
from repro.lsm import SortedRun
from repro.lsm.store import UNGUARDED_PROBE_FACTOR

from conftest import console, show_table

FAMILIES = {
    "RMI": lambda keys: RecursiveModelIndex(
        keys, stage_sizes=(1, max(keys.size // 100, 16))
    ),
    "PGM": PGMIndex,
    "RadixSpline": RadixSplineIndex,
}

FLOOR_COLUMN_SIZES = (16_384, 131_072, 1_000_000)
FLOOR_CALL_SIZES = (1, 8, 64, 512, 4_096)

#: The paper lane's headroom rule for a wall-clock assertion.
HEADROOM = 1.25

#: A loss this small, in us per call, is not a wrong choice of path:
#: choosing at all costs ~1.5us (prepare -> plan -> predicate -> stats,
#: before either path runs), and on a column larger than the cache the
#: side that runs second on a chunk finds its probes warm.  The
#: cheapest wrong choice there is to make costs ten times this.
DISPATCH_ALLOWANCE_US = 5.0


def _calls(keys: np.ndarray, k: int, rng: np.random.Generator) -> list:
    """Distinct ``k``-key query arrays: about 200k keys of calls, at
    least 16 and at most 256 of them."""
    present = max(k * 3 // 4, 1)
    low, high = int(keys[0]) - 10, int(keys[-1]) + 10
    calls = []
    for _ in range(max(16, min(256, 200_000 // k))):
        queries = np.concatenate(
            [rng.choice(keys, present), rng.integers(low, high, k - present)]
        )
        calls.append(rng.permutation(queries))
    return calls


def _paired(lookup_a, lookup_b, calls):
    """``compare_lookups`` over whole calls, about eight timing chunks
    a pass."""
    return compare_lookups(
        lookup_a, lookup_b, calls, chunk=max(len(calls) // 8, 1)
    )


def test_lookup_batch_never_loses_to_either_forced_path():
    rng = np.random.default_rng(2018)
    table = Table(
        "Small-batch floor: us per call, engine forced (sort=False) / "
        "column / dispatched lookup_batch",
        ["column keys", "keys/call", "family", "engine", "column",
         "dispatched", "column/engine", "dispatched/best", "answered by"],
    )
    losing = {}
    for n in FLOOR_COLUMN_SIZES:
        keys = uniform_keys(n, seed=7)
        column = SortedKeyColumn(keys)
        for family, build in FAMILIES.items():
            index = build(keys)

            def engine(q):
                return index.lookup_batch(q, sort=False)

            for k in FLOOR_CALL_SIZES:
                calls = _calls(keys, k, rng)
                for q in calls[:4]:
                    expected = np.searchsorted(keys, q)
                    assert np.array_equal(index.lookup_batch(q), expected)
                    assert np.array_equal(engine(q), expected)
                    assert np.array_equal(column.lower_bounds(q), expected)
                dispatched, forced, engine_over = _paired(
                    index.lookup_batch, engine, calls)
                beside_column, from_column, column_over = _paired(
                    index.lookup_batch, column.lower_bounds, calls)
                # The better forced path is the one the dispatched call
                # beats by less; the loss to it in us comes from the
                # same paired run as its ratio.
                if engine_over < column_over:
                    best_over, beside_best = engine_over, dispatched
                else:
                    best_over, beside_best = column_over, beside_column
                over_best = 1.0 / best_over
                loss_us = beside_best.mean_ns / 1e3 * (1.0 - best_over)
                if over_best > HEADROOM and loss_us > DISPATCH_ALLOWANCE_US:
                    losing[n, k, family] = (over_best, loss_us)
                table.add_row(
                    f"{n:,}", k, family,
                    f"{forced.mean_ns / 1e3:.1f}",
                    f"{from_column.mean_ns / 1e3:.1f}",
                    f"{dispatched.mean_ns / 1e3:.1f}",
                    f"{column_over / engine_over:.2f}",
                    f"{over_best:.2f}",
                    "column" if column_answers(k, n) else "engine",
                )
    show_table(table)
    assert not losing, f"lookup_batch loses to a forced path: {losing}"


def test_dense_column_near_2p62_costs_the_engine_what_a_uniform_one_does():
    rng = np.random.default_rng(2518)
    n = 131_072
    uniform = uniform_keys(n, seed=7)
    dense = np.int64(2**62 - n) + 2 * np.arange(n, dtype=np.int64)
    assert np.unique(dense.astype(np.float64)).size < n // 100
    table = Table(
        "Dense int64 keys near 2^62 beside uniform ones, 131 072 keys: "
        "us per call, engine forced (sort=False)",
        ["keys/call", "family", "uniform", "dense", "dense/uniform",
         "mean window uniform", "mean window dense"],
    )
    slower = {}
    for family, build in FAMILIES.items():
        on_uniform, on_dense = build(uniform), build(dense)
        for k in FLOOR_CALL_SIZES:
            pairs = list(zip(_calls(uniform, k, rng), _calls(dense, k, rng)))
            for _, qd in pairs[:4]:
                assert np.array_equal(
                    on_dense.lookup_batch(qd, sort=False),
                    np.searchsorted(dense, qd),
                )
            on_uniform.stats.reset()
            on_dense.stats.reset()
            base, packed, ratio = _paired(
                lambda pair: on_uniform.lookup_batch(pair[0], sort=False),
                lambda pair: on_dense.lookup_batch(pair[1], sort=False),
                pairs,
            )
            if ratio > HEADROOM:
                slower[family, k] = ratio
            table.add_row(
                k, family, f"{base.mean_ns / 1e3:.1f}",
                f"{packed.mean_ns / 1e3:.1f}", f"{ratio:.2f}",
                f"{on_uniform.stats.mean_window:.1f}",
                f"{on_dense.stats.mean_window:.1f}",
            )
    show_table(table)
    assert not slower, f"the engine pays for dense 64-bit keys: {slower}"


def test_crossover_scan_behind_the_dispatch_table():
    rng = np.random.default_rng(3018)
    call_sizes = [1 << e for e in range(5, 14)]
    table = Table(
        "Crossover scan (RMI): column time / engine time, paired "
        "(below 1 the column is the cheaper side)",
        ["column keys"] + [str(k) for k in call_sizes]
        + ["crossover", "shipped"],
    )
    ratios = {}
    beyond = (COLUMN_CROSSOVERS[-1][0] * 4, COLUMN_CROSSOVER_BEYOND)
    for n, shipped in COLUMN_CROSSOVERS + (beyond,):
        keys = uniform_keys(n, seed=7)
        column = SortedKeyColumn(keys)
        index = FAMILIES["RMI"](keys)
        row = [
            _paired(
                lambda q: index.lookup_batch(q, sort=False),
                column.lower_bounds,
                _calls(keys, k, rng),
            )[2]
            for k in call_sizes
        ]
        ratios[n] = row
        # first grid point where the engine is the cheaper side,
        # log-interpolated against the point before it
        crossover = f"> {call_sizes[-1]}"
        for i, r in enumerate(row):
            if r >= 1.0:
                if i == 0:
                    crossover = f"< {call_sizes[0]}"
                else:
                    step = (1.0 - row[i - 1]) / (r - row[i - 1])
                    crossover = f"{call_sizes[i - 1] * 2 ** step:.0f}"
                break
        table.add_row(
            f"{n:,}", *[f"{r:.2f}" for r in row], crossover, shipped
        )
    show_table(table)
    # Shape: a 32-key call is the column's on every size, an 8 192-key
    # call the engine's once the column no longer fits the L2 cache.
    assert all(row[0] < 1.0 for row in ratios.values())
    assert ratios[beyond[0]][-1] > 1.0
    console(
        "[small-batch floor] set each COLUMN_CROSSOVERS row (and "
        "COLUMN_CROSSOVER_BEYOND) from the 'crossover' column; within "
        "2x is close enough, the two paths cost the same there"
    )


def test_unguarded_probes_are_cheaper_than_their_filter():
    rng = np.random.default_rng(4018)
    table = Table(
        "Filter table: us per all-absent sub-batch, bloom then probe of "
        "what passed / probe alone",
        ["run keys", "keys/sub-batch", "guarded", "probe alone",
         "guarded/probe alone", "store asks the filter"],
    )
    skipped = {}
    for n in (16_384, 131_072, 500_000):
        keys = uniform_keys(n, seed=7)
        run = SortedRun(keys, keys, np.zeros(n, dtype=bool))

        def guarded(q):
            candidates = q[run.bloom_contains_batch(q)]
            if candidates.size:
                run.probe_batch(candidates)

        for k in (1, 8, 64, 512, 4_096):
            calls = [q + 1 for q in _calls(keys, k, rng)]
            alone, with_filter, ratio = _paired(run.probe_batch, guarded, calls)
            asks = not column_answers(k * UNGUARDED_PROBE_FACTOR, n)
            if not asks:
                skipped[n, k] = ratio
            table.add_row(
                f"{n:,}", k, f"{with_filter.mean_ns / 1e3:.1f}",
                f"{alone.mean_ns / 1e3:.1f}", f"{ratio:.2f}",
                "yes" if asks else "no",
            )
    show_table(table)
    # Wherever the store skips the filter, the filter's best case still
    # costs more than the probe.
    losing = {cell: r for cell, r in skipped.items() if r < 1.0}
    assert skipped and not losing, f"an unguarded probe loses: {losing}"
