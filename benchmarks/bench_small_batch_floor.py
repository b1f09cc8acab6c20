"""The small-batch floor: a learned index never loses to the column
it wraps (Section 3.3's promise, applied to the batch surface).

Every constant in :mod:`repro.dispatch` picks, per call, between two
paths with the same answers.  The **floor table** asserts that
``lookup_batch`` never runs more than 1.25x (and a few us: the Python
frames before either path cost ~1.5us) over the better of the engine
forced with ``sort=False`` and the column's own search; the **dense
column** row that keys packed near 2^62 cost the engine what uniform
ones do (models are fitted on ``key - keys[0]``, ROADMAP item 2a).
Each **scan** (a :data:`SCANS` entry) times side A, the path taken from
its constant up, against side B, the one under it, paired: a cell below
1 says B is the cheaper side.  It prints each row's crossover and the
value they set beside the shipped one, and asserts the constant's
shape.  Uniform int64 keys, 75% present / 25% absent queries, every
call a different array; sizes are not scaled by ``REPRO_SCALE``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import partial

import numpy as np
import pytest

from repro import dispatch
from repro.bench import Table, compare_lookups
from repro.bloom import BloomFilter
from repro.core import RecursiveModelIndex
from repro.core import search as core_search
from repro.core.engine import SortedKeyColumn
from repro.data import lognormal_keys, uniform_keys
from repro.dispatch import column_answers
from repro.families import PGMIndex, RadixSplineIndex
from repro.lsm import SortedRun
from repro.range_scan import _copy_every_slice, _copy_slices, _gather_slices
from repro.util import _packed_order, sorted_order

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


def _calls(keys: np.ndarray, k: int, rng, present=0.75, count=None):
    """``count`` distinct ``k``-key calls (default: 200k keys, 16 to 256
    calls), a share ``present`` of each stored keys, the rest random."""
    stored = max(int(k * present), 1)
    low, high = int(keys[0]) - 10, int(keys[-1]) + 10
    return [rng.permutation(np.concatenate(
        [rng.choice(keys, stored), rng.integers(low, high, k - stored)]
    )) for _ in range(count or max(16, min(256, 200_000 // k)))]


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



#: The scan of one :mod:`repro.dispatch` constant (a table's rows: its
#: sizes and one beyond).  ``sides(row)`` returns side A, side B,
#: ``calls(grid point, rng)`` and maybe a check of one call's answers
#: (else A and B must agree); ``shape(scan, ratios)`` asserts.
Scan = namedtuple("Scan", "constant sides_are rows grid sides rule shape")


#: How a scan's crossovers set its value (a table's, row by row).
RULES = {
    "as found": lambda xs: round(max(xs)),
    "half of it": lambda xs: round(max(xs) / 2),
    "2^k at or above the max": lambda xs: 2 ** math.ceil(math.log2(max(xs))),
    "2^k nearest the median": lambda xs: 2 ** round(math.log2(np.median(xs))),
    "the largest, to one decimal": lambda xs: round(max(xs), 1),
}


def _crossover(grid, ratios) -> tuple[float, str]:
    """Where the ratios first reach 1, interpolated, and its text (the
    grid's edge when they stay on one side of 1)."""
    for i, r in enumerate(ratios):
        if r >= 1.0 and i == 0:
            return grid[0], f"< {grid[0]}"
        if r >= 1.0:
            step = (1.0 - ratios[i - 1]) / (r - ratios[i - 1])
            x = grid[i - 1] + step * (grid[i] - grid[i - 1])
            return x, f"{x:.2f}" if x < 10 else f"{x:.0f}"
    return grid[-1], f"> {grid[-1]}"


def _source(scan: Scan, found: list) -> str:
    """The value ``found`` sets, in the form the source holds it."""
    rule = RULES[scan.rule]
    if not isinstance(getattr(dispatch, scan.constant), tuple):
        return repr(rule(found))
    *rows, beyond = (rule([x]) for x in found)
    pairs = ", ".join(f"(1 << {n.bit_length() - 1}, {most})"
                      for n, most in zip(scan.rows, rows))
    return f"(({pairs}), {beyond})"


def _brackets(below, above, headroom=1.0):
    """Shape: on every row B wins at ``below``, A at ``above``."""

    def shape(scan, ratios):
        i, j = scan.grid.index(below), scan.grid.index(above)
        wrong = {row: (r[i], r[j]) for row, r in ratios.items()
                 if not (r[i] < 1.0 and r[j] >= headroom)}
        assert not wrong, f"{scan.constant}: {below} / {above}: {wrong}"

    return shape


def _filter_skipped_where_it_loses(scan, ratios):
    # Wherever the store skips the filter, its best case still loses.
    skipped = {(n, k): r for n, row in ratios.items()
               for k, r in zip(scan.grid, row)
               if column_answers(k, n, dispatch.UNGUARDED_PROBE_KEYS)}
    losing = {cell: r for cell, r in skipped.items() if r > 1.0}
    assert skipped and not losing, f"an unguarded probe loses: {losing}"


def _ascending_probe_shape(scan, ratios):
    # 32 ascending needles are the column's on every run, and on the
    # largest the RMI wins with headroom from 4 to 32 times its bound.
    assert all(r[0] < 1.0 for r in ratios.values())
    n, table = scan.rows[-1], dispatch.ORDERED_PROBE_CROSSOVERS
    past = [r for k, r in zip(scan.grid, ratios[n]) if not column_answers(
        k // 4, n, table) and column_answers(k // 32, n, table)]
    assert past and min(past) > HEADROOM, past


def _split_shape(scan, ratios):
    # The split loses at 2 048 lanes on narrow windows (not the RMI's
    # ~1 200-slot ones on lognormal keys) and wins at 131 072 lanes.
    narrow = {row: r[0] for row, r in ratios.items()
              if row != ("RMI", "lognormal") and r[0] >= 1.0}
    short = {row: r[-1] for row, r in ratios.items() if r[-1] <= 1.0}
    assert not narrow and not short, (narrow, short)


def _engine_or_column(family, n):
    keys = uniform_keys(n, seed=7)
    index, column = FAMILIES[family](keys), SortedKeyColumn(keys)
    return (lambda q: index.lookup_batch(q, sort=False),
            column.lower_bounds, lambda k, rng: _calls(keys, k, rng))


def _guarded_or_alone(n):
    keys = uniform_keys(n, seed=7)
    run = SortedRun(keys, keys, np.zeros(n, dtype=bool))

    def guarded(q):
        candidates = q[run.bloom_contains_batch(q)]
        if candidates.size:
            run.probe_batch(candidates)

    def check(q):  # the filter passes every key the probe finds
        assert run.bloom_contains_batch(q)[run.probe_batch(q)[0]].all()

    return (guarded, run.probe_batch,
            lambda k, rng: [q + 1 for q in _calls(keys, k, rng)], check)


def _walk_or_gather(row):
    n, present = row
    keys = uniform_keys(n, seed=7)
    bloom = SortedRun(keys, keys, np.zeros(n, dtype=bool)).bloom
    return (bloom._contains_walk, bloom._contains_gather, lambda k, rng: [
        BloomFilter.hash_keys(q) for q in _calls(keys, k, rng, present)])


def _rmi_or_column_ascending(n):
    run = SortedRun(uniform_keys(n, seed=7))
    return (lambda q: run.rmi.lookup_batch(q, sort=False),
            lambda q: np.searchsorted(run.keys, q),
            lambda k, rng: [np.sort(q) for q in _calls(run.keys, k, rng)])


def _ordered_or_not(n):
    keys = uniform_keys(n, seed=7)

    def in_order(q):  # search ascending, scatter each position back
        ordered, order = sorted_order(q)
        pos = np.empty(q.size, dtype=np.intp)
        pos[order] = np.searchsorted(keys, ordered)
        return pos

    return (in_order, lambda q: np.searchsorted(keys, q),
            lambda k, rng: _calls(keys, k, rng))


def _packed_or_argsort(batch):
    pool = uniform_keys(1 << 20, seed=7)  # zipf-hot as on lognormal_zipf

    def calls(n, rng):
        return [rng.integers(0, 2**40, n) if batch == "uniform" else
                pool[np.minimum(rng.zipf(1.3, n), pool.size) - 1]
                for _ in range(max(4, min(64, (1 << 20) // n)))]

    def argsort_and_gather(values):
        order = np.argsort(values)
        return values[order], order

    def check(values):  # the packed order is the stable one
        ordered, order = _packed_order(values)
        assert np.array_equal(order, np.argsort(values, kind="stable"))
        assert np.array_equal(ordered, np.sort(values))

    return _packed_order, argsort_and_gather, calls, check


def _assembly(row):
    # 64 calls of k-key slices, or c 8-key slices beside a 512-key one
    keys, long = uniform_keys(1_000_000, seed=7), dispatch.SLICE_COPY_MIN_KEYS

    def calls(point, rng):
        lengths = (np.full(max(65_536 // point, 64), point) if row == "k-key"
                   else np.insert(np.full(point, 8), point // 2, 512))
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        return [(rng.integers(0, keys.size - lengths.max(), lengths.size),
                 lengths, offsets) for _ in range(64)]

    def copy_every(c):
        return _copy_every_slice(keys, c[0], c[1])

    if row == "k-key":
        return copy_every, lambda c: _gather_slices(keys, *c), calls
    return (lambda c: _copy_slices(keys, c[0], c[1], c[1] >= long),
            copy_every, calls)


def _sorted_or_not(family):
    keys = uniform_keys(1_000_000, seed=7)
    index = FAMILIES[family](keys)

    def calls(dup, rng):  # 100k keys, a share ``dup`` repeating others
        distinct = _calls(keys, 100_000 - round(100_000 * dup), rng, count=12)
        return [rng.permutation(np.concatenate(
            [q, rng.choice(q, 100_000 - q.size)])) for q in distinct]

    return (lambda q: index.lookup_batch(q, sort=True),
            lambda q: index.lookup_batch(q, sort=False), calls)


def _split_or_not(row):
    family, keys_are = row
    draw = uniform_keys if keys_are == "uniform" else lognormal_keys
    keys = draw(1_000_000, seed=7)
    plan = FAMILIES[family](keys)._plan

    def calls(k, rng):  # the engine's (keys, queries, lo, hi)
        qbs = [plan.column.prepare(q) for q in _calls(keys, k, rng)]
        return [(plan.column.keys, qb.compare,
                 *plan.windows_from_raw(*plan.route(qb))) for qb in qbs]

    def search(compact_min_batch, call):  # as if COMPACT_MIN_BATCH were it
        shipped = core_search.COMPACT_MIN_BATCH
        setattr(core_search, "COMPACT_MIN_BATCH", compact_min_batch)
        try:
            return core_search.vectorized_bounded_search(*call)
        finally:
            setattr(core_search, "COMPACT_MIN_BATCH", shipped)

    return partial(search, 0), partial(search, 1 << 62), calls


def _pow2(lo: int, hi: int) -> tuple:
    return tuple(1 << e for e in range(lo, hi + 1))


_COLUMN_SIZES = (1 << 14, 1 << 17, 1 << 18, 1 << 19, 1 << 20, 1 << 22)

SCANS = [
    *(Scan(f"{name}_CROSSOVERS", f"A the {family} engine forced "
           "(sort=False), B the column's searchsorted", _COLUMN_SIZES,
           _pow2(5, 13), partial(_engine_or_column, family), "as found",
           _brackets(32, 8192))
      for name, family in (("RMI", "RMI"), ("PGM", "PGM"),
                           ("RADIX_SPLINE", "RadixSpline"))),
    Scan("UNGUARDED_PROBE_KEYS", "A a bloom filter then a probe of what "
         "passed, B the probe alone, all-absent sub-batches on an LSM run",
         (1 << 14, 1 << 17, 1 << 18, 1 << 20, 1 << 22),
         (1, 8, 64, 128, 256, 512, 4096), _guarded_or_alone, "half of it",
         _filter_skipped_where_it_loses),
    Scan("ROW_WALK_MIN_KEYS", "A the row walk, B one (k, n) gather, per "
         "contains_hashes on an LSM run's filter, 10% or 50% keys stored",
         tuple((n, p) for n in (16_384, 131_072, 500_000) for p in (.1, .5)),
         _pow2(6, 14), _walk_or_gather, "2^k nearest the median",
         _brackets(64, 16_384)),
    Scan("ORDERED_PROBE_CROSSOVERS", "A the RMI (sort=False), B key-column "
         "searchsorted, ascending needles on an LSM run",
         (1 << 17, 1 << 18, 1 << 20, 1 << 22), _pow2(5, 16),
         _rmi_or_column_ascending, "as found", _ascending_probe_shape),
    Scan("ORDERED_SEARCH_MIN_KEYS", "A searchsorted of the queries "
         "argsorted first, B of the queries as they come",
         (512, 4_096, 16_384, 131_072, 1_000_000), _pow2(4, 12),
         _ordered_or_not, "2^k at or above the max",
         _brackets(16, 4 * dispatch.ORDERED_SEARCH_MIN_KEYS, HEADROOM)),
    Scan("PACKED_ORDER_MIN_KEYS", "A one packed np.sort, B argsort and "
         "a gather, per batch", ("uniform", "zipf-hot"), _pow2(7, 20),
         _packed_or_argsort, "2^k at or above the max",
         _brackets(dispatch.PACKED_ORDER_MIN_KEYS // 4,
                   dispatch.PACKED_ORDER_MIN_KEYS * 4, HEADROOM)),
    Scan("SLICE_COPY_MIN_KEYS", "A a block copy per slice, B one gather, "
         "calls of k-key slices", ("k-key",), _pow2(4, 11), _assembly,
         "2^k at or above the max", _brackets(16, 2048)),
    Scan("GATHER_MIN_SLICES", "A copy the long slice and gather the rest, "
         "B copy every slice, c 8-key slices beside one 512-key slice",
         ("c 8-key",), _pow2(0, 7), _assembly, "2^k nearest the median",
         _brackets(1, 128)),
    Scan("SORTED_BATCH_MIN_DUP_FRACTION", "A lookup_batch(sort=True), B "
         "sort=False, 100k-key calls into a 1M-key column, by duplicates",
         tuple(FAMILIES), tuple(i / 10 for i in range(10)), _sorted_or_not,
         "the largest, to one decimal", _brackets(0.0, 0.9)),
    Scan("COMPACT_MIN_BATCH", "A vectorized_bounded_search with the "
         "wide-lane split, B without it, a 1M-key column's windows, by lanes",
         (("RMI", "uniform"), ("RMI", "lognormal"),
          ("RadixSpline", "uniform"), ("RadixSpline", "lognormal")),
         _pow2(11, 17), _split_or_not, "2^k at or above the max",
         _split_shape),
]


@pytest.mark.parametrize("scan", SCANS, ids=lambda scan: scan.constant)
def test_scan(scan):
    rng = np.random.default_rng(3018)
    table = Table(f"{scan.constant} scan: {scan.sides_are}; side B time "
                  "/ side A time, paired (below 1 side B is the cheaper side)",
                  ["row", *map(str, scan.grid), "crossover"])
    ratios, found = {}, []
    for row in scan.rows:
        a, b, calls, *check = scan.sides(row)
        check = check[0] if check else (
            lambda c: np.testing.assert_array_equal(a(c), b(c)))
        ratios[row] = []
        for point in scan.grid:
            point_calls = calls(point, rng)
            for call in point_calls[:4]:
                check(call)
            ratios[row].append(_paired(a, b, point_calls)[2])
        x, text = _crossover(scan.grid, ratios[row])
        found.append(x)
        table.add_row(row, *[f"{r:.2f}" for r in ratios[row]], text)
    show_table(table)
    console(f"[dispatch] {scan.constant} = {_source(scan, found)}"
            f"  # from the crossovers: {scan.rule}")
    console(f"[dispatch] shipped: {getattr(dispatch, scan.constant)!r}")
    scan.shape(scan, ratios)
