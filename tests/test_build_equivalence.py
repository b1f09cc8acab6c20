"""The RMI's tables against the per-leaf reference fit.

The RMI trains every stage below its root with one segmented
least-squares pass.  The oracle here is the per-leaf loop that pass
replaces: take each leaf's members by the root's routing
(``oracles.stage_assignments``), fit them
with ``LinearModel().fit`` and summarize them with ``error_stats``.
The plan's tables and the error arrays must match it — same models up
to float tolerance, same members, same-or-adjacent error bounds
(floor/ceil of float-rounded extremes may differ by one) — and every
lookup must equal the bisect oracle, on every dataset shape that has
historically broken segmented array code (uniform, lognormal,
adversarial clusters, duplicate-heavy, more leaves than keys, trailing
empty leaves, empty).
"""

from __future__ import annotations

import bisect
import zlib

import numpy as np
import pytest

from oracles import error_stats, max_absolute, stage_assignments
from repro.core import HybridIndex, RecursiveModelIndex, WritableLearnedIndex
from repro.data import lognormal_keys, uniform_keys
from repro.models import LinearModel, segmented_linear_fit
from repro.models.cdf import ErrorStats, segmented_error_arrays

SEED = 0xB111D


def dataset(name: str) -> np.ndarray:
    rng = np.random.default_rng(SEED + zlib.crc32(name.encode()) % 2**16)
    if name == "uniform":
        return uniform_keys(20_000, seed=SEED)
    if name == "lognormal":
        return lognormal_keys(20_000, seed=SEED)
    if name == "clustered":
        centers = rng.integers(0, 10**12, 12)
        parts = [c + rng.integers(0, 60, 400) for c in centers]
        return np.sort(np.concatenate(parts))
    if name == "duplicate_heavy":
        values = np.sort(rng.integers(0, 10**6, 25))
        return np.sort(rng.choice(values, 3_000))
    if name == "empty_leaf":
        # Fewer keys than leaves: most leaves are empty, including
        # interior runs.
        return np.unique(rng.integers(0, 10**9, 40))
    if name == "trailing_empty":
        # All keys routed to the low leaves; every trailing leaf is
        # empty (the reduceat range-corruption regression).
        return np.array([-3, -1, 0], dtype=np.int64)
    if name == "empty":
        return np.empty(0, dtype=np.int64)
    raise ValueError(name)


DATASETS = [
    "uniform",
    "lognormal",
    "clustered",
    "duplicate_heavy",
    "empty_leaf",
    "trailing_empty",
    "empty",
]


def probes(keys: np.ndarray, rng: np.random.Generator, n: int) -> np.ndarray:
    parts = [rng.integers(-(10**13), 10**13, n // 4).astype(np.float64)]
    if keys.size:
        parts.append(rng.choice(keys, n // 2).astype(np.float64))
        parts.append(
            rng.choice(keys, n // 4).astype(np.float64)
            + rng.integers(-2, 3, n // 4)
        )
    return np.concatenate(parts)


def assert_lookups_match_bisect(index, keys: np.ndarray, qs: np.ndarray):
    """Batch and scalar lookups against ``bisect`` over Python scalars."""
    stored = keys.tolist()
    expected = [bisect.bisect_left(stored, q) for q in qs.tolist()]
    np.testing.assert_array_equal(index.lookup_batch(qs), expected)
    for q, pos in zip(qs.tolist()[:120], expected):
        assert index.lookup(q) == pos, q


def reference_stage(x, y, assignment, m):
    """Per-model reference fit of one stage: ``LinearModel().fit`` on
    each model's members; a model no key reaches predicts the middle of
    its slot.  Returns ``(slopes, intercepts, predictions)``."""
    n = x.size
    slopes = np.zeros(m)
    intercepts = (np.arange(m) + 0.5) * n / m
    predictions = np.zeros(n)
    for j in range(m):
        members = assignment == j
        if members.any():
            model = LinearModel().fit(x[members], y[members])
            slopes[j], intercepts[j] = model.slope, model.intercept
            predictions[members] = model.predict_batch(x[members])
    return slopes, intercepts, predictions


def assert_stage_matches(slopes, intercepts, ref_slopes, ref_intercepts):
    np.testing.assert_allclose(slopes, ref_slopes, rtol=1e-8, atol=1e-12)
    np.testing.assert_allclose(intercepts, ref_intercepts, rtol=1e-8, atol=1e-6)


def assert_errors_match(index, assignment, predictions, positions):
    """The plan's error offsets (``lo_offsets`` the leaf's max error,
    ``hi_offsets`` its min) against ``error_stats`` of each leaf's
    members under the reference predictions.  Bounds may differ by one
    because the reference ``slope·x + intercept`` cancels
    catastrophically on huge key magnitudes (clustered keys near 1e12
    leave it ~1e-3 of noise); the centered segmented form is the more
    accurate one."""
    plan = index._plan
    counts = index._stage_counts[-1]
    for j in range(plan.leaf_count):
        members = assignment == j
        ref = error_stats(predictions[members], positions[members])
        assert counts[j] == ref.count, j
        low, high = int(plan.hi_offsets[j]), int(plan.lo_offsets[j])
        if not ref.count:
            slack = min(127, max(positions.size, 1))
            assert (low, high) == (-slack, slack), j
            continue
        assert abs(low - ref.min_error) <= 1, j
        assert abs(high - ref.max_error) <= 1, j


@pytest.mark.parametrize("dataset_name", DATASETS)
@pytest.mark.parametrize("leaves", [8, 200])
def test_leaf_tables_match_per_leaf_fit(dataset_name, leaves):
    keys = dataset(dataset_name)
    index = RecursiveModelIndex(keys, stage_sizes=(1, leaves))
    x = index._space.encode(keys)
    positions = np.arange(keys.size, dtype=np.float64)
    # Keys route to leaves by the root: floor(root(x) · m / n).
    root = index._root_model.predict_batch(x)
    assignment = np.clip(
        np.floor(root * leaves / max(keys.size, 1)), 0, leaves - 1
    ).astype(np.int64)
    ref_slopes, ref_intercepts, predictions = reference_stage(
        x, positions, assignment, leaves
    )
    tables = index._plan.export_arrays()
    assert_stage_matches(
        tables["slopes"], tables["intercepts"], ref_slopes, ref_intercepts
    )
    assert_errors_match(index, assignment, predictions, positions)
    qs = probes(keys, np.random.default_rng(SEED), 400)
    assert_lookups_match_bisect(index, keys, qs)
    # Biased quaternary seeds its probe round at each leaf's error std
    # (at least 1), taken from the same build's error pass.
    biased = RecursiveModelIndex(
        keys, stage_sizes=(1, leaves), search_strategy="biased_quaternary"
    )
    for j in range(leaves):
        members = assignment == j
        if not members.any():
            continue
        ref = error_stats(predictions[members], positions[members])
        tol = 1e-4 * ref.std + 1e-2
        assert (
            max(int(ref.std - tol), 1)
            <= biased._sigmas[j]
            <= max(int(ref.std + tol), 1)
        ), j


def test_bounds_cover_stored_keys():
    """The Section 3.4 window invariant on every dataset."""
    for name in DATASETS:
        keys = dataset(name)
        index = RecursiveModelIndex(keys, stage_sizes=(1, 16))
        for i in range(keys.size):
            _est, lo, hi = index.predict(float(keys[i]))
            assert lo <= i < hi, (name, i)


@pytest.mark.parametrize("dataset_name", DATASETS)
def test_three_stage_tables_match_per_model_fit(dataset_name):
    """An internal stage is fitted on the keys the root routes to each
    of its models, and routes the leaves by its affine prediction."""
    keys = dataset(dataset_name)
    n = keys.size
    index = RecursiveModelIndex(keys, stage_sizes=(1, 10, 200))
    x = index._space.encode(keys)
    positions = np.arange(n, dtype=np.float64)
    root = index._root_model.predict_batch(x)
    middle = np.clip(np.floor(root * 10 / max(n, 1)), 0, 9).astype(np.int64)
    ref_slopes, ref_intercepts, _ = reference_stage(x, positions, middle, 10)
    (m, slopes, intercepts), = index._internal_stages
    assert m == 10
    assert_stage_matches(slopes, intercepts, ref_slopes, ref_intercepts)
    routed = slopes[middle] * x + intercepts[middle]
    assignment = np.clip(
        np.floor(routed * 200 / max(n, 1)), 0, 199
    ).astype(np.int64)
    ref_slopes, ref_intercepts, predictions = reference_stage(
        x, positions, assignment, 200
    )
    tables = index._plan.export_arrays()
    assert_stage_matches(
        tables["slopes"], tables["intercepts"], ref_slopes, ref_intercepts
    )
    assert_errors_match(index, assignment, predictions, positions)
    qs = probes(keys, np.random.default_rng(SEED + 1), 400)
    assert_lookups_match_bisect(index, keys, qs)


@pytest.mark.parametrize("dataset_name", DATASETS)
def test_hybrid_replaces_the_leaves_the_oracle_flags(dataset_name):
    """Algorithm 1's replacement keys off each leaf's max_abs_err over
    its members; the one-unit bound rounding slack may flip leaves
    sitting exactly at the threshold."""
    keys = dataset(dataset_name)
    threshold = 6
    hybrid = HybridIndex(keys, stage_sizes=(1, 16), threshold=threshold)
    x = hybrid._space.encode(keys)
    positions = np.arange(keys.size, dtype=np.float64)
    assignment, = stage_assignments(hybrid, keys)
    _, _, predictions = reference_stage(x, positions, assignment, 16)
    for j in range(16):
        members = assignment == j
        ref = error_stats(predictions[members], positions[members])
        if not ref.count:
            assert j not in hybrid.leaf_btrees, j
        elif abs(max_absolute(ref) - threshold) > 1:
            assert (j in hybrid.leaf_btrees) == (
                max_absolute(ref) > threshold
            ), j
    qs = probes(keys, np.random.default_rng(SEED + 3), 300)
    assert_lookups_match_bisect(hybrid, keys, qs)


def test_segmented_fit_matches_per_segment_scalar_fit():
    """Direct unit pin of the segmented engine vs LinearModel.fit,
    including a non-monotone assignment (bincount fallback path)."""
    rng = np.random.default_rng(SEED + 4)
    keys = np.sort(rng.normal(5e8, 1e8, 5_000))
    positions = np.arange(keys.size, dtype=np.float64)
    for contiguous in (True, False):
        if contiguous:
            assignment = np.clip(
                (positions * 40 / keys.size).astype(np.int64), 0, 39
            )
        else:
            assignment = rng.integers(0, 40, keys.size)
        slopes, intercepts, counts, predictions = segmented_linear_fit(
            keys, positions, assignment, 40, return_predictions=True
        )
        for j in range(40):
            members = assignment == j
            assert counts[j] == int(members.sum())
            ref = LinearModel().fit(keys[members], positions[members])
            assert slopes[j] == pytest.approx(
                ref.slope, rel=1e-9, abs=1e-15
            ), j
            assert intercepts[j] == pytest.approx(
                ref.intercept, rel=1e-9, abs=1e-9
            ), j
            np.testing.assert_allclose(
                predictions[members],
                ref.predict_batch(keys[members]),
                rtol=1e-9,
                atol=1e-6,
            )


@pytest.mark.parametrize("dataset_name", DATASETS)
def test_segmented_error_arrays_match_per_leaf_error_stats(dataset_name):
    """The error-pass oracle: one vectorized pass == ``error_stats`` on
    each leaf's members (bounds, moments, counts; empty leaves
    included)."""
    keys = dataset(dataset_name)
    leaves = 16
    index = RecursiveModelIndex(keys, stage_sizes=(1, leaves))
    assignment, = stage_assignments(index, keys)
    positions = np.arange(keys.size, dtype=np.float64)
    _leaf, predictions = index._plan.route(index._column.prepare(keys))
    default = ErrorStats(-5, 5, 0.0, 0.0, 0)
    # Contiguous layout (monotone root), found by searchsorted and then
    # given as ``boundaries`` the way the RMI build passes them; then a
    # shuffled one that takes the argsort branch.
    in_order = np.arange(keys.size)
    given = np.searchsorted(assignment, np.arange(leaves + 1), side="left")
    shuffle = np.random.default_rng(SEED + 6).permutation(keys.size)
    for order, boundaries in (
        (in_order, None), (in_order, given), (shuffle, None)
    ):
        pred, pos, assign = (
            predictions[order], positions[order], assignment[order]
        )
        mn, mx, std, counts = segmented_error_arrays(
            pred, pos, assign, leaves, default=default, boundaries=boundaries,
        )
        for j in range(leaves):
            members = assign == j
            if not members.any():
                assert (mn[j], mx[j], counts[j]) == (
                    default.min_error, default.max_error, 0
                ), j
                continue
            ref = error_stats(pred[members], pos[members])
            assert counts[j] == ref.count, j
            assert mn[j] == ref.min_error, j
            assert mx[j] == ref.max_error, j
            assert std[j] == pytest.approx(ref.std, rel=1e-9, abs=1e-9), j


def test_writable_rebuilds_match_a_set_oracle():
    """Merge-heavy random mutation: every rebuild's tables must answer
    exactly the live key set."""
    rng = np.random.default_rng(SEED + 5)
    base = np.unique(rng.integers(0, 50_000, 2_000)).astype(np.int64)
    writable = WritableLearnedIndex(
        base, stage_sizes=(1, 64), merge_threshold=256
    )
    live = set(base.tolist())
    for step in range(1_500):
        op = rng.random()
        if op < 0.45:
            key = int(rng.integers(-100, 50_100))
            writable.insert(key)
            live.add(key)
        elif op < 0.6:
            batch = rng.integers(-100, 50_100, int(rng.integers(1, 300)))
            writable.insert_batch(batch)
            live.update(batch.tolist())
        elif op < 0.9:
            key = int(rng.integers(-100, 50_100))
            writable.delete(key)
            live.discard(key)
        else:
            writable.merge()
    writable.merge()
    assert writable.retrains > 1
    np.testing.assert_array_equal(writable._main.keys, sorted(live))
    qs = rng.integers(-200, 50_200, 2_000).tolist()
    assert [writable.contains(q) for q in qs] == [q in live for q in qs]
