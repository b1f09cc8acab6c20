"""Shared fixtures: small, deterministic datasets for fast tests."""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.data import (
    integer_dataset,
    lognormal_keys,
    string_dataset,
    uniform_keys,
    url_dataset,
)


@pytest.fixture(scope="session", autouse=True)
def nothing_outlives_the_session():
    """After the last test no child process is left."""
    yield
    assert multiprocessing.active_children() == []


@pytest.fixture(scope="session")
def uniform_small() -> np.ndarray:
    """5k sorted unique uniform keys."""
    return uniform_keys(5_000, seed=11)


@pytest.fixture(scope="session")
def lognormal_small() -> np.ndarray:
    """5k sorted unique lognormal keys (heavy tail, saturated head)."""
    return lognormal_keys(5_000, seed=12)


@pytest.fixture(scope="session")
def maps_small() -> np.ndarray:
    return integer_dataset("maps", 20_000, seed=13).keys


@pytest.fixture(scope="session")
def weblogs_small() -> np.ndarray:
    return integer_dataset("weblogs", 20_000, seed=14).keys


@pytest.fixture(scope="session")
def strings_small() -> list[str]:
    return string_dataset(3_000, seed=15)


@pytest.fixture(scope="session")
def urls_small() -> tuple[list[str], list[str]]:
    return url_dataset(1_500, 1_500, seed=16)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def make_queries(
    keys: np.ndarray, rng: np.random.Generator, present: int, absent: int
) -> np.ndarray:
    """Mixed present/absent query batch over an integer key array."""
    hits = rng.choice(keys, size=present)
    lo = int(keys.min()) - 10
    hi = int(keys.max()) + 10
    misses = rng.integers(lo, hi, size=absent)
    return np.concatenate([hits, misses])


@pytest.fixture()
def queries_factory():
    return make_queries


@pytest.fixture()
def engine_counts():
    """Telemetry on for one test: ``engine_counts(name)`` reads what
    the test's batch calls added to ``engine.lookup_batch.<name>``."""
    from repro import obs

    previous = obs.set_enabled(True)
    registry = obs.default_registry()
    before = registry.snapshot()
    try:
        yield lambda name: registry.snapshot().diff(before).counters.get(
            f"engine.lookup_batch.{name}", 0
        )
    finally:
        obs.set_enabled(previous)


# -- the engine suites run on both sides of the small-batch dispatch -----------

_BOTH_SIDES_MODULES = {
    "test_engine",
    "test_batch_equivalence",
    "test_differential_oracle",
    "test_families",
    "test_build_equivalence",
    "test_hybrid",
    "test_range_edge_cases",
    "test_kv_history",
}


@pytest.fixture()
def dispatch_as_shipped():
    """Requested by a test that drives the real ``column_answers``:
    opts it out of :func:`both_sides_of_the_dispatch`."""


@pytest.fixture(autouse=True)
def both_sides_of_the_dispatch(request, monkeypatch):
    """The engine's correctness suites keep testing the engine, and
    test the column beside it.

    Almost none of their batches is above the crossover, so as shipped
    they would exercise ``np.searchsorted`` alone.  Here
    ``column_answers`` says False for the whole test (every batch
    routes, the hybrid's included, and ``stats`` count engine work as
    before), and each ``sort=None`` call of
    ``CompiledPlan.lookup_batch`` is first answered with it forced
    True — the real column branch — and the two answers must agree bit
    for bit.  One fixture that runs both sides rather than a
    parametrized one, so the suites' test ids stay what they were.
    """
    module = request.module.__name__.rpartition(".")[2]
    if (
        module not in _BOTH_SIDES_MODULES
        or "dispatch_as_shipped" in request.fixturenames
    ):
        return
    from repro.core import engine

    dispatched = engine.CompiledPlan.lookup_batch

    def lookup_batch(plan, qb, *, sort=None):
        if sort is None:
            with monkeypatch.context() as column_side:
                column_side.setattr(
                    engine, "column_answers", lambda *sizes: True
                )
                from_column = dispatched(plan, qb)
        from_engine = dispatched(plan, qb, sort=sort)
        if sort is None:
            np.testing.assert_array_equal(from_column, from_engine)
        return from_engine

    monkeypatch.setattr(engine, "column_answers", lambda *sizes: False)
    monkeypatch.setattr(engine.CompiledPlan, "lookup_batch", lookup_batch)
