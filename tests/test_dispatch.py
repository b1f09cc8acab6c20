"""The crossover tables of ``repro.dispatch`` are well formed, and
``column_answers`` reads each as written.

Data only: nothing here reads a clock.  The timings the tables are set
from are ``benchmarks/bench_small_batch_floor.py``'s scans.
"""

import pytest

from repro import dispatch
from repro.dispatch import (
    ORDERED_PROBE_CROSSOVERS,
    RMI_CROSSOVERS,
    UNGUARDED_PROBE_KEYS,
    column_answers,
)

#: Every crossover table ``repro.dispatch`` exports, found by shape
#: (the tuple-valued names), so a table added later is checked here
#: without editing a list.
TABLES = tuple(
    name for name in dispatch.__all__
    if isinstance(getattr(dispatch, name), tuple)
)


def test_every_table_is_found():
    assert sorted(TABLES) == [
        "ORDERED_PROBE_CROSSOVERS",
        "PGM_CROSSOVERS",
        "RADIX_SPLINE_CROSSOVERS",
        "RMI_CROSSOVERS",
        "UNGUARDED_PROBE_KEYS",
    ]


def _bound(table, keys: int) -> int:
    """The call bound ``table`` gives ``keys`` keys, read off it
    directly: the first row whose size is at least ``keys``, else
    ``beyond``."""
    rows, beyond = table
    return next((most for size, most in rows if keys <= size), beyond)


def _edges(*tables) -> list[int]:
    """Every row edge of ``tables`` (a row's size and one past it), one
    key, and four times the largest row."""
    sizes = {size for rows, _ in tables for size, _ in rows}
    return sorted({1, 4 * max(sizes)} | sizes | {s + 1 for s in sizes})


@pytest.mark.parametrize("name", TABLES)
def test_sizes_ascend_and_bounds_never_rise(name):
    rows, beyond = getattr(dispatch, name)
    sizes = [size for size, _ in rows]
    bounds = [most for _, most in rows]
    assert all(a < b for a, b in zip(sizes, sizes[1:])), sizes
    assert all(a >= b for a, b in zip(bounds, bounds[1:])), bounds
    assert beyond <= bounds[-1]


@pytest.mark.parametrize("name", TABLES)
def test_column_answers_reads_every_row_edge(name):
    table = getattr(dispatch, name)
    for keys in _edges(table):
        most = _bound(table, keys)
        assert column_answers(most, keys, table), (keys, most)
        assert not column_answers(most + 1, keys, table), (keys, most)


def test_unguarded_probes_fall_on_the_rmi_column_path():
    """A run probe the store sends without its filter is the run's
    column search, never its RMI."""
    for keys in _edges(UNGUARDED_PROBE_KEYS, RMI_CROSSOVERS):
        assert column_answers(
            _bound(UNGUARDED_PROBE_KEYS, keys), keys, RMI_CROSSOVERS
        ), keys


def test_ascending_probes_stay_on_the_column_past_the_rmi_table():
    """Ascending needles make the column search cheaper, so a run keeps
    them on its column at least as long as an unordered call would."""
    for keys in _edges(ORDERED_PROBE_CROSSOVERS, RMI_CROSSOVERS):
        assert _bound(ORDERED_PROBE_CROSSOVERS, keys) >= _bound(
            RMI_CROSSOVERS, keys
        ), keys
