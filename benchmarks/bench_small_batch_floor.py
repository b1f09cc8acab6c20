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
* the **crossover scan** prints, for each family and every column
  size in its ``crossovers`` rows (and one four times the largest,
  for the ``beyond`` value), the paired column/engine time ratio over
  a grid of call sizes and the call size at which it crosses 1 — the
  number each row is set from — then the family's table in the form
  the source holds it.  Re-run it and paste the tables when the
  engine's fixed cost changes;
* the **filter table** carries the same question one layer up: an LSM
  run's bloom pass against the probe it guards, on all-absent
  sub-batches (the filter's best case), beside the rule
  ``ReadView.lookup_batch`` applies
  (``repro.lsm.store.UNGUARDED_PROBE_KEYS``);
* the **filter crossover scan** times the bloom filter's own two
  batch paths over hashed keys, the one-shot ``(k, n)`` gather and the
  row walk (which drops the keys two probes reject once at most half
  pass them), on one run filter per size, on batches of 10% and 50%
  stored keys, and prints the batch size at which the walk becomes the
  cheaper side — what ``repro.bloom.standard.ROW_WALK_MIN_KEYS`` is
  set from;
* the **ascending-probe scan** times an LSM run's two ways to place
  ascending needles — ``np.searchsorted`` on its key column and its
  RMI — on runs of 16k to 4M keys, and prints the call size at which
  the RMI becomes the cheaper side — what
  ``repro.lsm.run.ORDERED_PROBE_CROSSOVERS`` (the ordered LSM batch
  read's run probes) is set from;
* the **needle-order scan** times ``np.searchsorted`` on a call's
  queries as they come against the same search with the queries
  argsorted first and the positions scattered back, over arrays of
  512 to 1M keys, and prints the call size at which ordering becomes
  the cheaper side — what ``repro.lsm.run.ORDERED_SEARCH_MIN_KEYS``
  (from which an LSM batch read over a non-empty memtable orders its
  queries) is set from;
* the **packed-order scan** times the two ways
  ``repro.util.sorted_order`` orders a batch of integers — ``argsort``
  plus the gather of the sorted values, and one ``np.sort`` of the
  values packed with their positions — at 128 to 1M keys, on uniform
  and zipf-hot batches, and prints the size at which packing becomes
  the cheaper side — what ``repro.util.PACKED_ORDER_MIN_KEYS`` (the
  engine's sorted path, the memtable's record sort, ordered memtable
  searches) is set from;
* the **slice-copy scan** times range assembly's ways to read a
  slice — a block copy per slice, one gather over a call's slices —
  on a 1M-key column: once over the slice length (what
  ``repro.range_scan.SLICE_COPY_MIN_KEYS`` is set from) and once over
  the number of short slices beside a long one
  (``GATHER_MIN_SLICES``).

Uniform int64 keys, 75% present / 25% absent queries, every call a
different array (a call that re-reads one array flatters whichever
side keeps it in cache).  Column sizes are not scaled by
``REPRO_SCALE``: the constants are per size.
"""

from __future__ import annotations

import numpy as np

from repro.bench import Table, compare_lookups
from repro.bloom import BloomFilter
from repro.bloom.standard import ROW_WALK_MIN_KEYS
from repro.core import RecursiveModelIndex
from repro.core.engine import SortedKeyColumn, column_answers
from repro.data import uniform_keys
from repro.families import PGMIndex, RadixSplineIndex
from repro.lsm import SortedRun
from repro.lsm.run import ORDERED_PROBE_CROSSOVERS, ORDERED_SEARCH_MIN_KEYS
from repro.lsm.store import UNGUARDED_PROBE_KEYS
from repro.range_scan import (
    GATHER_MIN_SLICES,
    SLICE_COPY_MIN_KEYS,
    _copy_every_slice,
    _copy_slices,
    _gather_slices,
)
from repro.util import PACKED_ORDER_MIN_KEYS, _packed_order, sorted_order

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
#: choosing at all costs ~1.5us (prepare -> plan -> predicate,
#: before either path runs), and on a column larger than the cache the
#: side that runs second on a chunk finds its probes warm.  The
#: cheapest wrong choice there is to make costs ten times this.
DISPATCH_ALLOWANCE_US = 5.0


def _mean_window(index, calls: list) -> float:
    """The engine's mean search window over ``calls``, from the plan's
    own route and window stages, as the traced benchmark reads it."""
    plan = index._plan
    total = count = 0
    for queries in calls:
        qb = plan.column.prepare(queries)
        lo, hi = plan.windows_from_raw(*plan.route(qb))
        total += int((hi - lo).sum())
        count += lo.size
    return total / count


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


def _crossover(call_sizes, row) -> str:
    """The first call size (grid doubling) where a paired ratio reaches
    1, log-interpolated against the grid point before it."""
    for i, r in enumerate(row):
        if r >= 1.0:
            if i == 0:
                return f"< {call_sizes[0]}"
            step = (1.0 - row[i - 1]) / (r - row[i - 1])
            return f"{call_sizes[i - 1] * 2 ** step:.0f}"
    return f"> {call_sizes[-1]}"


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
                    "column" if column_answers(k, n, index.crossovers)
                    else "engine",
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
                f"{_mean_window(on_uniform, [q for q, _ in pairs]):.1f}",
                f"{_mean_window(on_dense, [q for _, q in pairs]):.1f}",
            )
    show_table(table)
    assert not slower, f"the engine pays for dense 64-bit keys: {slower}"


def test_crossover_scan_behind_the_dispatch_table():
    rng = np.random.default_rng(3018)
    call_sizes = [1 << e for e in range(5, 14)]
    for family, build in FAMILIES.items():
        table = Table(
            f"Crossover scan ({family}): column time / engine time, "
            "paired (below 1 the column is the cheaper side)",
            ["column keys"] + [str(k) for k in call_sizes]
            + ["crossover", "shipped"],
        )
        ratios, found = {}, {}
        rows, beyond = build(uniform_keys(1_000, seed=7)).crossovers
        for n, shipped in rows + ((rows[-1][0] * 4, beyond),):
            keys = uniform_keys(n, seed=7)
            column = SortedKeyColumn(keys)
            index = build(keys)
            row = [
                _paired(
                    lambda q: index.lookup_batch(q, sort=False),
                    column.lower_bounds,
                    _calls(keys, k, rng),
                )[2]
                for k in call_sizes
            ]
            ratios[n] = row
            found[n] = _crossover(call_sizes, row)
            table.add_row(
                f"{n:,}", *[f"{r:.2f}" for r in row], found[n], shipped
            )
        show_table(table)
        # Shape: a 32-key call is the column's on every size, an 8 192-key
        # call the engine's once the column no longer fits the L2 cache.
        assert all(row[0] < 1.0 for row in ratios.values()), family
        assert ratios[rows[-1][0] * 4][-1] > 1.0, family
        # The table in the form the source holds it, each row the
        # scan's crossover ("> 8192" and the like printed as found).
        console(
            f"[small-batch floor] {family} crossovers = (("
            + "".join(f"(1 << {n.bit_length() - 1}, {found[n]}), "
                      for n, _ in rows)
            + f"), {found[rows[-1][0] * 4]})"
        )
    console(
        "[small-batch floor] set each family's crossovers (the RMI's: "
        "COLUMN_CROSSOVERS and COLUMN_CROSSOVER_BEYOND) from the "
        "'crossover' column; within 2x is close enough, the two paths "
        "cost the same there"
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

        for k in (1, 8, 64, 128, 256, 512, 4_096):
            calls = [q + 1 for q in _calls(keys, k, rng)]
            alone, with_filter, ratio = _paired(run.probe_batch, guarded, calls)
            asks = not column_answers(k, n, UNGUARDED_PROBE_KEYS)
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
    # ... and the probe it gets is the run's column search.
    rows, beyond = UNGUARDED_PROBE_KEYS
    assert all(column_answers(k, n) for n, k in rows)
    assert column_answers(beyond, 4 * rows[-1][0])


def _hashed_calls(keys, k, present, rng) -> list:
    """Filter inputs: the hashes of distinct ``k``-key calls, a share
    ``present`` of each call's keys stored and the rest absent."""
    stored = int(k * present)
    low, high = int(keys[0]) - 10, int(keys[-1]) + 10
    return [
        BloomFilter.hash_keys(rng.permutation(np.concatenate(
            [rng.choice(keys, stored), rng.integers(low, high, k - stored)]
        )))
        for _ in range(max(16, min(256, 200_000 // k)))
    ]


def test_filter_crossover_scan_behind_the_row_walk():
    rng = np.random.default_rng(5018)
    call_sizes = [1 << e for e in range(6, 15)]
    table = Table(
        "Filter crossover scan: one-shot (k, n) gather time / row walk "
        "time, paired, per contains_hashes (below 1 the gather is the "
        "cheaper side); the walk goes on with the keys that pass two "
        "probes when at most half do",
        ["run keys", "present"] + [str(k) for k in call_sizes]
        + ["crossover", "shipped"],
    )
    ratios = {}
    for n in (16_384, 131_072, 500_000):
        keys = uniform_keys(n, seed=7)
        bloom = SortedRun(keys, keys, np.zeros(n, dtype=bool)).bloom
        for present in (0.1, 0.5):
            row = []
            for k in call_sizes:
                calls = _hashed_calls(keys, k, present, rng)
                for h in calls[:4]:
                    assert np.array_equal(
                        bloom._contains_gather(h), bloom._contains_walk(h)
                    )
                row.append(_paired(
                    bloom._contains_walk, bloom._contains_gather, calls
                )[2])
            ratios[n, present] = row
            table.add_row(
                f"{n:,}", f"{present:.0%}", *[f"{r:.2f}" for r in row],
                _crossover(call_sizes, row), ROW_WALK_MIN_KEYS,
            )
    show_table(table)
    # Shape: a 64-key batch is the gather's on every filter, a 16 384-key
    # batch the walk's.
    assert all(row[0] < 1.0 and row[-1] > 1.0 for row in ratios.values())
    console(
        "[small-batch floor] set ROW_WALK_MIN_KEYS (repro.bloom.standard) "
        "to the power of two nearest the 'crossover' column"
    )


def test_ascending_probe_scan_behind_the_run_column_table():
    rng = np.random.default_rng(9018)
    call_sizes = [1 << e for e in range(5, 17)]
    rows, beyond = ORDERED_PROBE_CROSSOVERS
    table = Table(
        "Ascending-probe scan: key-column searchsorted time / RMI time "
        "(engine forced, sort=False) on one LSM run, ascending needles, "
        "paired (below 1 the column is the cheaper side)",
        ["run keys"] + [str(k) for k in call_sizes]
        + ["crossover", "shipped"],
    )
    ratios = {}
    for n in (16_384, 131_072, 262_144, 1 << 20, 1 << 22):
        keys = uniform_keys(n, seed=7)
        run = SortedRun(keys)
        row = []
        for k in call_sizes:
            calls = [np.sort(q) for q in _calls(keys, k, rng)]
            for q in calls[:4]:
                hit, _, _ = run.probe_batch(q, ascending=True)
                assert np.array_equal(hit, run.probe_batch(q)[0])
                assert np.array_equal(
                    run.rmi.lookup_batch(q, sort=False),
                    np.searchsorted(keys, q),
                )
            row.append(_paired(
                lambda q: run.rmi.lookup_batch(q, sort=False),
                lambda q: np.searchsorted(run.keys, q),
                calls,
            )[2])
        ratios[n] = row
        shipped = next((most for size, most in rows if n <= size), beyond)
        table.add_row(
            f"{n:,}", *[f"{r:.2f}" for r in row],
            _crossover(call_sizes, row), shipped,
        )
    show_table(table)
    # Shape: 32 ascending needles are the column's on every run, and on
    # the 4M-key run the RMI is the cheaper side with headroom from four
    # to 32 times the table's bound beyond its rows.
    assert all(row[0] < 1.0 for row in ratios.values())
    past = [r for k, r in zip(call_sizes, ratios[1 << 22])
            if 4 * beyond <= k <= 32 * beyond]
    assert past and min(past) > HEADROOM, past
    console(
        "[small-batch floor] set ORDERED_PROBE_CROSSOVERS (repro.lsm.run) "
        "from the 'crossover' column: each row at or below the lowest "
        "value over repeated scans"
    )


def _searchsorted_in_order(keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """``np.searchsorted(keys, queries)`` with the queries searched in
    ascending order and each position scattered back to its query."""
    ordered, order = sorted_order(queries)
    pos = np.empty(queries.size, dtype=np.intp)
    pos[order] = np.searchsorted(keys, ordered)
    return pos


def test_needle_order_scan_behind_the_memtable_search():
    rng = np.random.default_rng(7018)
    call_sizes = [1 << e for e in range(4, 13)]
    table = Table(
        "Needle-order scan: searchsorted time on the queries as they "
        "come / time with them argsorted first, paired (above 1 "
        "ordering pays)",
        ["array keys"] + [str(k) for k in call_sizes]
        + ["crossover", "shipped"],
    )
    ratios = {}
    for n in (512, 4_096, 16_384, 131_072, 1_000_000):
        keys = uniform_keys(n, seed=7)
        row = []
        for k in call_sizes:
            calls = _calls(keys, k, rng)
            for q in calls[:4]:
                assert np.array_equal(
                    _searchsorted_in_order(keys, q), np.searchsorted(keys, q)
                )
            row.append(_paired(
                lambda q: _searchsorted_in_order(keys, q),
                lambda q: np.searchsorted(keys, q),
                calls,
            )[2])
        ratios[n] = row
        table.add_row(
            f"{n:,}", *[f"{r:.2f}" for r in row],
            _crossover(call_sizes, row), ORDERED_SEARCH_MIN_KEYS,
        )
    show_table(table)
    # Shape: a 16-key call is the plain search's on every array ...
    losing = {n: row[0] for n, row in ratios.items() if row[0] >= 1.0}
    assert not losing, f"ordering pays on the smallest calls: {losing}"
    # ... and ordering pays with headroom at four times the shipped
    # constant, on every array size.
    at = call_sizes.index(4 * ORDERED_SEARCH_MIN_KEYS)
    short = {n: row[at] for n, row in ratios.items() if row[at] < HEADROOM}
    assert not short, f"ordered needles do not pay: {short}"
    console(
        "[small-batch floor] set ORDERED_SEARCH_MIN_KEYS (repro.lsm.run) "
        "to the power of two at or above the largest 'crossover' value"
    )


def _argsort_and_gather(values):
    order = np.argsort(values)
    return values[order], order


def test_packed_order_scan_behind_sorted_order():
    rng = np.random.default_rng(8018)
    sizes = [1 << e for e in range(7, 21)]
    pool = uniform_keys(1 << 20, seed=7)
    inputs = {
        "uniform": lambda n: rng.integers(0, 2**40, n),
        # a few thousand hot keys of a 1M-key pool, as zipf-hot calls
        # on the benchmark's lognormal_zipf workload draw them
        "zipf-hot": lambda n: pool[
            np.minimum(rng.zipf(1.3, n), pool.size) - 1
        ],
    }
    table = Table(
        "Packed-order scan: argsort + gather time / packed np.sort time, "
        "paired, per batch (above 1 packing pays)",
        ["batch"] + [str(n) for n in sizes] + ["crossover", "shipped"],
    )
    ratios = {}
    for name, draw in inputs.items():
        row = []
        for n in sizes:
            calls = [draw(n) for _ in range(max(4, min(64, (1 << 20) // n)))]
            for values in calls[:2]:
                ordered, order = _packed_order(values)
                assert np.array_equal(order, np.argsort(values, kind="stable"))
                assert np.array_equal(ordered, np.sort(values))
            row.append(_paired(_packed_order, _argsort_and_gather, calls)[2])
        ratios[name] = row
        table.add_row(
            name, *[f"{r:.2f}" for r in row], _crossover(sizes, row),
            PACKED_ORDER_MIN_KEYS,
        )
    show_table(table)
    # The shipped constant brackets the crossover: a batch a quarter of
    # it is the argsort's on both inputs, one four times it packing's
    # with headroom.
    quarter = sizes.index(PACKED_ORDER_MIN_KEYS // 4)
    four = sizes.index(PACKED_ORDER_MIN_KEYS * 4)
    early = {k: r[quarter] for k, r in ratios.items() if r[quarter] >= 1.0}
    assert not early, f"packing pays below a quarter of the constant: {early}"
    short = {k: r[four] for k, r in ratios.items() if r[four] < HEADROOM}
    assert not short, f"packing does not pay at 4x the constant: {short}"
    console(
        "[small-batch floor] set PACKED_ORDER_MIN_KEYS (repro.util) to the "
        "power of two at or above the larger 'crossover' value"
    )


def _slice_calls(n: int, lengths: np.ndarray, calls: int, rng) -> list:
    """``calls`` assembly inputs ``(starts, lengths, offsets)`` of
    slices of ``lengths`` keys at random places in an ``n``-key
    column."""
    offsets = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return [
        (rng.integers(0, n - lengths.max(), lengths.size), lengths, offsets)
        for _ in range(calls)
    ]


def _assembly_ratios(keys, grid, lengths_at, split, rng) -> list:
    """Paired time of copying every slice as a block / time of the
    alternative, per grid point (below 1 the block copies are the
    cheaper side).  The alternative gathers every slice, or with
    ``split`` copies the long slices and gathers the rest — the two
    ways ``assemble_slices`` reads a call's short slices."""

    def other(c):
        if split:
            return _copy_slices(keys, c[0], c[1], c[1] >= SLICE_COPY_MIN_KEYS)
        return _gather_slices(keys, *c)

    row = []
    for point in grid:
        calls = _slice_calls(keys.size, lengths_at(point), 64, rng)
        for call in calls[:4]:
            assert np.array_equal(
                _copy_every_slice(keys, call[0], call[1]), other(call)
            )
        row.append(_paired(
            other, lambda c: _copy_every_slice(keys, c[0], c[1]), calls
        )[2])
    return row


def test_slice_copy_scan_behind_range_assembly():
    rng = np.random.default_rng(6018)
    keys = uniform_keys(1_000_000, seed=7)
    lengths = [1 << e for e in range(4, 12)]
    by_length = _assembly_ratios(
        keys, lengths,
        lambda k: np.full(max(65_536 // k, 64), k, dtype=np.int64),
        False, rng,
    )
    counts = [1 << e for e in range(0, 8)]

    def beside_long(c):
        out = np.full(c + 1, 8, dtype=np.int64)
        out[c // 2] = 512
        return out

    by_count = _assembly_ratios(keys, counts, beside_long, True, rng)
    table = Table(
        "Slice-copy scan: time to copy every slice as a block / time "
        "of the alternative, paired, per assembled call on a 1M-key "
        "column (below 1 the block copies are the cheaper side)",
        ["calls of", "alternative"]
        + [f"#{i}" for i in range(len(lengths))]
        + ["crossover", "shipped"],
    )
    table.add_row(
        "k-key slices (64k keys)", "gather all",
        *[f"k={k}: {r:.2f}" for k, r in zip(lengths, by_length)],
        _crossover(lengths, [1 / r for r in by_length]),
        SLICE_COPY_MIN_KEYS,
    )
    table.add_row(
        "c 8-key + one 512-key", "copy long, gather rest",
        *[f"c={c}: {r:.2f}" for c, r in zip(counts, by_count)],
        _crossover(counts, by_count), GATHER_MIN_SLICES,
    )
    show_table(table)
    # Shape: a 16-key slice is the gather's and a 2 048-key one a
    # block's; one short slice beside a long one is a block, 128 are
    # gathered.
    assert by_length[0] > 1.0 and by_length[-1] < 1.0
    assert by_count[0] < 1.0 and by_count[-1] > 1.0
    console(
        "[small-batch floor] set SLICE_COPY_MIN_KEYS (first row) and "
        "GATHER_MIN_SLICES (second row) in repro.range_scan from the "
        "'crossover' column"
    )
