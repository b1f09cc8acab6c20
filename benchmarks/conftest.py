"""Shared infrastructure of the paper-figure checks.

Every ``bench_*.py`` file is a plain pytest file: it prints the
paper-style table for its figure directly to the real stdout
(bypassing pytest capture) and asserts the figure's qualitative shape,
so that

    PYTHONPATH=src python -m pytest benchmarks/bench_*.py -q | tee out.txt

(the CI ``paper`` lane) both records the reproduced tables and fails
when the reproduction rots.  Every clock read is in
``repro.bench.timing``; an assertion that orders two per-lookup times
takes its ratio from ``compare_lookups``.

Scale: ``REPRO_SCALE`` (float, default 1.0) multiplies every dataset
size, so the suite can be re-run closer to paper scale on bigger
machines.  Some asserted shapes (learned-bloom footprint, page-read
bytes) need the default scale or more.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

from repro.data import integer_dataset

SCALE = float(os.environ.get("REPRO_SCALE", "1.0"))

_CAPTURE_MANAGER = None


def scaled(n: int) -> int:
    """Apply the global scale factor to a dataset size."""
    return max(int(n * SCALE), 1_000)


@pytest.fixture(autouse=True, scope="session")
def _grab_capture_manager(pytestconfig):
    global _CAPTURE_MANAGER
    _CAPTURE_MANAGER = pytestconfig.pluginmanager.getplugin("capturemanager")
    yield


def console(text: str = "") -> None:
    """Print straight to the terminal, bypassing pytest capture."""
    if _CAPTURE_MANAGER is not None:
        with _CAPTURE_MANAGER.global_and_fixture_disabled():
            print(text, flush=True)
    else:
        print(text, file=sys.__stdout__, flush=True)


def comparisons_per_lookup(index) -> float:
    """Mean comparisons per scalar lookup since ``index.stats`` was
    last reset — an exact count, unlike a wall-clock time."""
    return index.stats.comparisons / index.stats.lookups


def show_table(table) -> None:
    console()
    console(table.render())
    console()


@pytest.fixture(scope="session")
def fig4_datasets():
    """The paper's three integer datasets at benchmark scale."""
    n = scaled(400_000)
    return {
        name: integer_dataset(name, n, seed=42).keys
        for name in ("maps", "weblogs", "lognormal")
    }


@pytest.fixture(scope="session")
def query_rng():
    return np.random.default_rng(2024)


def query_mix(keys: np.ndarray, rng, count: int = 2_000) -> list[float]:
    """The paper measures random look-ups of existing keys."""
    return [float(q) for q in rng.choice(keys, size=count)]
