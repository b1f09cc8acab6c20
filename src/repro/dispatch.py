"""Every host-tuned dispatch constant, and the one reader of a crossover
table.

A learned index never does worse than the structure it wraps (Section
3.3).  On the batch surface that promise is kept by choosing, per call,
between two paths that return the same answers bit for bit and differ
only in cost: the model or the whole column, the sorted engine or the
unsorted one, a bloom filter or the probe it guards.  Where the two
costs cross depends on the host's cache sizes and on NumPy's per-call
overhead, which is why SOSD and "Benchmarking Learned Indexes" both
find such crossovers moving with the hardware.  Every one of them is
here, each with the scan that set it and the host it was set on
(a 2-vCPU Xeon, NumPy 2.4, unless its comment says otherwise), and
each consumer imports its name from this module.  This module imports
nothing from :mod:`repro`, so any layer may read it.

A ``(rows, beyond)`` crossover table maps a size to a call bound:
``rows`` are ``(sizes up to, calls up to)`` pairs with ascending sizes
and non-rising bounds, and ``beyond`` is the bound past the last row.
:func:`column_answers` is the only code that reads one.

Re-tuning on a new host
-----------------------
1. Run ``PYTHONPATH=src python -m pytest
   benchmarks/bench_small_batch_floor.py -s``.  Each scan prints a
   table of paired time ratios with the crossover of every row, then
   the value those crossovers set in source form, ``[dispatch] NAME =
   value  # from the crossovers: <the rule in NAME's comment>``, and
   the shipped value below it.
2. Paste each ``NAME = value`` line over the assignment of ``NAME``
   below.  A crossover outside a scan's grid prints as the grid's edge
   (``< 32``, ``> 8192``); widen the grid before trusting it.
3. Re-run the file.  Every scan asserts its shape, the floor table
   asserts that ``lookup_batch`` with the new tables loses to neither
   path it chooses between, and ``tests/test_dispatch.py`` checks the
   tables are well formed.

``SORTED_BATCH_THRESHOLD`` and ``PROBE_SCAN_MAX_KEYS`` have no scan:
their comments give the hand measurement they were set from.
"""

from __future__ import annotations

__all__ = [
    "COMPACT_MIN_BATCH",
    "GATHER_MIN_SLICES",
    "ORDERED_PROBE_CROSSOVERS",
    "ORDERED_SEARCH_MIN_KEYS",
    "PACKED_ORDER_MIN_KEYS",
    "PGM_CROSSOVERS",
    "PROBE_SCAN_MAX_KEYS",
    "RADIX_SPLINE_CROSSOVERS",
    "RMI_CROSSOVERS",
    "ROW_WALK_MIN_KEYS",
    "SLICE_COPY_MIN_KEYS",
    "SORTED_BATCH_MIN_DUP_FRACTION",
    "SORTED_BATCH_THRESHOLD",
    "UNGUARDED_PROBE_KEYS",
    "column_answers",
]


def column_answers(queries: int, keys: int, crossovers) -> bool:
    """Does a call of ``queries`` into ``keys`` keys stay within the
    bound that the ``(rows, beyond)`` table ``crossovers`` gives that
    many keys: the first row whose size is at least ``keys``, or
    ``beyond`` past the last row?"""
    rows, beyond = crossovers
    for size, most in rows:
        if keys <= size:
            return queries <= most
    return queries <= beyond


# -- the engine (repro.core.engine.CompiledPlan.lookup_batch) -----------------

#: The RMI's small-batch table: a call of at most the bound into a
#: column of at most the row's keys skips the model for the column's
#: own ``searchsorted``.  The engine pays a fixed ~45-80us a call and
#: then ~0.1us a key; ``searchsorted`` pays ~1us a call and 0.1-0.8us a
#: key, more the further the column outgrows the cache.  Set by the
#: ``RMI_CROSSOVERS`` scan (engine forced with ``sort=False`` against
#: ``SortedKeyColumn.lower_bounds``, uniform int64 columns); every
#: index's table by default.
RMI_CROSSOVERS = (
    ((1 << 14, 768), (1 << 17, 384), (1 << 18, 384), (1 << 19, 240),
     (1 << 20, 128)),
    48,
)

#: PGM's small-batch table, set by the ``PGM_CROSSOVERS`` scan as the
#: RMI's is: its recursive descent costs more per call, so the column
#: answers about twice as many keys.
PGM_CROSSOVERS = (
    ((1 << 14, 1536), (1 << 17, 896), (1 << 18, 768), (1 << 19, 448),
     (1 << 20, 288)),
    64,
)

#: RadixSpline's small-batch table, set by the
#: ``RADIX_SPLINE_CROSSOVERS`` scan as the RMI's is.
RADIX_SPLINE_CROSSOVERS = (
    ((1 << 14, 1280), (1 << 17, 640), (1 << 18, 512), (1 << 19, 256),
     (1 << 20, 144)),
    96,
)

#: From this many queries the engine estimates a batch's duplicate
#: fraction and may take the sorted path (one packed sort, the engine
#: on the distinct values, one scatter).  Ordering costs ~15-20ns a
#: query, so on a batch without duplicates the unsorted engine wins
#: (66 against 84 ns/key, 100k uniform queries on a 1M-key RMI); a
#: zipf-hot batch of ~8k distinct values takes 27 on the sorted path
#: against 66.  Set by hand from those timings; no scan.
SORTED_BATCH_THRESHOLD = 32_768

#: The estimated duplicate fraction from which a batch of at least
#: :data:`SORTED_BATCH_THRESHOLD` queries takes the sorted path.  Set
#: by the ``SORTED_BATCH_MIN_DUP_FRACTION`` scan (``sort=True`` against
#: ``sort=False``, 100k-key calls into 1M-key columns of all three
#: families): the largest crossover, to one decimal.
SORTED_BATCH_MIN_DUP_FRACTION = 0.4

#: From this many lanes ``vectorized_bounded_search`` runs the wide
#: outlier lanes' top rounds as a group of their own; peeling them off
#: costs a few array passes that a small batch does not win back.  Set
#: by the ``COMPACT_MIN_BATCH`` scan (the search with and without the
#: split on RMI and RadixSpline windows of uniform and lognormal
#: columns): the power of two at or above the largest crossover.
COMPACT_MIN_BATCH = 16_384

#: From this many integer values ``repro.util.sorted_order`` sorts them
#: packed with their positions; below it one ``argsort`` plus a gather
#: is cheaper, as the packed path pays some ten array passes a call
#: around its sort.  Set by the ``PACKED_ORDER_MIN_KEYS`` scan on
#: uniform and zipf-hot batches: the power of two at or above the
#: larger crossover.
PACKED_ORDER_MIN_KEYS = 2048

# -- the LSM store (repro.lsm) ------------------------------------------------

#: An LSM batch read probes a run without asking its bloom filter for a
#: sub-batch within this table (run keys, sub-batch keys).  A run's
#: blocked filter costs ~20us + 0.01-0.02us a key whatever the run's
#: size (hash, word and mask, then one gather a key); the probe such a
#: sub-batch gets is one ``searchsorted`` on the run's key column (every
#: row is under :data:`RMI_CROSSOVERS`), ~5us + 0.13-0.23us a key.  Set
#: by the ``UNGUARDED_PROBE_KEYS`` scan (the filter's best case, every
#: key absent, against the probe alone): each row at half its crossover,
#: the median of four scans, whose crossovers moved by up to 1.5x from
#: one to the next.
UNGUARDED_PROBE_KEYS = (
    ((1 << 14, 113), (1 << 17, 78), (1 << 18, 51), (1 << 20, 16)),
    5,
)

#: From this many queries a batch read over a non-empty memtable orders
#: its queries and walks the memtable and every run in that order:
#: ``searchsorted`` keeps the previous answer as the low end of the next
#: search while its needles ascend.  Set by the
#: ``ORDERED_SEARCH_MIN_KEYS`` scan (``searchsorted`` on ordered needles
#: against unordered ones, arrays of 512 to 1M keys): the power of two
#: at or above the largest crossover.
ORDERED_SEARCH_MIN_KEYS = 128

#: A run answers this many ascending needles (run keys, needles) with
#: one ``searchsorted`` on its key column, and more with its RMI.
#: Ascending needles make the column search several times cheaper, so
#: the table sits 3-100x above :data:`RMI_CROSSOVERS`, which is the
#: floor it must never fall under.  Set by the
#: ``ORDERED_PROBE_CROSSOVERS`` scan over four of its runs: each row a
#: round number at or below the lowest crossover seen.
ORDERED_PROBE_CROSSOVERS = (
    ((1 << 17, 1 << 16), (1 << 18, 1280), (1 << 20, 320)),
    192,
)

#: While at most this many keys sit in a memtable's pending records, a
#: scalar probe scans them instead of building the layout.  A scan costs
#: ~0.12us per one-key record (~15us at this bound), under the ~25us a
#: build costs even on a 256-entry memtable; a one-key ``put_batch`` +
#: ``probe`` pair on a 4 096-entry one went from 72 to 4.6us.  Set by
#: hand from those timings; no scan.
PROBE_SCAN_MAX_KEYS = 128

#: A standard bloom filter's batch of at least this many hashes walks
#: its probes row by row, dropping the keys two probes reject once at
#: most half pass them; a smaller one takes one ``(k, n)`` gather, whose
#: temporaries lose on large batches while the walk's ~8 numpy calls a
#: probe lose on small ones.  Only the standard filter (the Section 5
#: baseline, the learned filter's overflow, and LSM run files written
#: before runs held blocked filters) reads it.  Set by the
#: ``ROW_WALK_MIN_KEYS`` scan (standard filters sized as 16k- to
#: 500k-key runs' were, 10% and 50% stored keys): the power of two
#: nearest the median crossover.
ROW_WALK_MIN_KEYS = 4096

# -- range assembly (repro.range_scan.assemble_slices) ------------------------

#: A slice of at least this many keys is copied as one block; shorter
#: ones share one gather.  A block copy costs ~1us of Python a slice and
#: then memory speed, the gather a few ns a key.  Set by the
#: ``SLICE_COPY_MIN_KEYS`` scan (calls of equal slices on a 1M-key
#: column): the power of two at or above the crossover, so a slice near
#: it keeps the gather.
SLICE_COPY_MIN_KEYS = 256

#: A call with a long slice gathers its short slices only when it has
#: at least this many, and otherwise copies them as blocks too:
#: splitting a call costs a few array passes of its own.  Set by the
#: ``GATHER_MIN_SLICES`` scan (8-key slices beside one 512-key slice):
#: the power of two nearest the crossover.
GATHER_MIN_SLICES = 32
