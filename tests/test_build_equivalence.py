"""Equivalence pins: vectorized segmented-fit build vs the scalar loop.

ISSUE 3's contract for the segmented build: same leaf assignment, same
models up to float tolerance, same-or-adjacent error bounds
(floor/ceil of float-rounded extremes may differ by one), and
bit-identical lookups — on every dataset shape that has historically
broken segmented array code (uniform, lognormal, adversarial clusters,
duplicate-heavy, more leaves than keys, trailing empty leaves, empty).

The reference side is built with :class:`ReferenceLinear` leaves: not
*exactly* ``LinearModel``, so the RMI fits every leaf with its
per-model loop instead of the segmented fit — same math, no product
knob.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro.core import HybridIndex, RecursiveModelIndex, WritableLearnedIndex
from repro.data import lognormal_keys, uniform_keys
from repro.models import LinearModel, segmented_linear_fit
from repro.models.cdf import error_stats, segmented_error_arrays

SEED = 0xB111D


class ReferenceLinear(LinearModel):
    """Per-leaf reference: takes the RMI's per-model fit loop."""


def reference_factories(stage_sizes) -> list:
    """Linear root, :class:`ReferenceLinear` everywhere below it."""
    return [LinearModel] + [ReferenceLinear] * (len(stage_sizes) - 1)


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


def leaf_params(index: RecursiveModelIndex) -> tuple[np.ndarray, np.ndarray]:
    slopes = np.array(
        [getattr(m, "slope", 0.0) for m in index._stages[-1]]
    )
    intercepts = np.array(
        [
            getattr(m, "intercept", getattr(m, "value", 0.0))
            for m in index._stages[-1]
        ]
    )
    return slopes, intercepts


def build_pair(keys, stage_sizes, **kwargs):
    scalar = RecursiveModelIndex(
        keys,
        stage_sizes=stage_sizes,
        model_factories=reference_factories(stage_sizes),
        **kwargs,
    )
    vector = RecursiveModelIndex(keys, stage_sizes=stage_sizes, **kwargs)
    assert scalar._leaf_param_arrays is None
    return scalar, vector


@pytest.mark.parametrize("dataset_name", DATASETS)
@pytest.mark.parametrize("leaves", [8, 200])
def test_build_paths_equivalent(dataset_name, leaves):
    keys = dataset(dataset_name)
    scalar, vector = build_pair(keys, stage_sizes=(1, leaves))

    # Same root (shared code path) and same key-to-leaf routing.
    np.testing.assert_array_equal(
        scalar._leaf_assignment, vector._leaf_assignment
    )
    # Same models up to float tolerance.
    s_slopes, s_intercepts = leaf_params(scalar)
    v_slopes, v_intercepts = leaf_params(vector)
    np.testing.assert_allclose(v_slopes, s_slopes, rtol=1e-8, atol=1e-12)
    np.testing.assert_allclose(
        v_intercepts, s_intercepts, rtol=1e-8, atol=1e-6
    )
    # Error bookkeeping: same membership, same moments, and bounds
    # equal up to the one-unit floor/ceil rounding slack.  Moment
    # tolerances are loose in absolute terms because the *scalar*
    # path's ``slope·x + intercept`` cancels catastrophically on huge
    # key magnitudes (clustered keys near 1e12 leave it ~1e-3 of
    # noise); the centered vectorized form is the more accurate one.
    for j, (s_err, v_err) in enumerate(
        zip(scalar.leaf_errors, vector.leaf_errors)
    ):
        assert s_err.count == v_err.count, j
        assert abs(s_err.min_error - v_err.min_error) <= 1, j
        assert abs(s_err.max_error - v_err.max_error) <= 1, j
        assert v_err.mean_absolute == pytest.approx(
            s_err.mean_absolute, rel=1e-4, abs=1e-2
        ), j
        assert v_err.std == pytest.approx(s_err.std, rel=1e-4, abs=1e-2), j

    rng = np.random.default_rng(SEED)
    qs = probes(keys, rng, 400)
    np.testing.assert_array_equal(
        scalar.lookup_batch(qs), vector.lookup_batch(qs)
    )
    for q in qs[:120]:
        assert scalar.lookup(float(q)) == vector.lookup(float(q))
    assert scalar.size_bytes() == vector.size_bytes()


def test_bounds_cover_stored_keys_both_modes():
    """The Section 3.4 window invariant holds under either build."""
    for name in DATASETS:
        keys = dataset(name)
        for index in build_pair(keys, stage_sizes=(1, 16)):
            for i in range(keys.size):
                _est, lo, hi = index.predict(float(keys[i]))
                assert lo <= i < hi, (
                    name, type(index.leaf_model(0)).__name__, i,
                )


def test_min_leaf_error_clamp_matches():
    keys = dataset("lognormal")
    scalar, vector = build_pair(
        keys, stage_sizes=(1, 64), min_leaf_error=32
    )
    for s_err, v_err in zip(scalar.leaf_errors, vector.leaf_errors):
        if s_err.count:
            assert v_err.min_error <= -32 and v_err.max_error >= 32
        assert abs(s_err.min_error - v_err.min_error) <= 1
        assert abs(s_err.max_error - v_err.max_error) <= 1


def test_three_stage_vectorized_lookups_match_scalar():
    """Deeper hierarchies vectorize per stage; lookups stay exact."""
    keys = dataset("uniform")
    scalar, vector = build_pair(keys, stage_sizes=(1, 10, 200))
    rng = np.random.default_rng(SEED + 1)
    qs = probes(keys, rng, 400)
    for q in qs:
        assert scalar.lookup(float(q)) == vector.lookup(float(q))


def test_lambda_linear_factory_takes_vectorized_path():
    keys = dataset("uniform")
    index = RecursiveModelIndex(
        keys,
        stage_sizes=(1, 64),
        model_factories=[LinearModel, lambda: LinearModel()],
    )
    # The segmented fit caches flat parameter arrays; the factory sniff
    # must recognize the lambda as plain LinearModel.
    assert index._leaf_param_arrays is not None


def test_hybrid_replacement_agrees_across_build_paths():
    keys = dataset("clustered")
    threshold = 6
    scalar = HybridIndex(
        keys, stage_sizes=(1, 16), threshold=threshold,
        model_factories=reference_factories((1, 16)),
    )
    vector = HybridIndex(keys, stage_sizes=(1, 16), threshold=threshold)
    # Replacement keys off max_abs_err > threshold; the one-unit bound
    # rounding slack may flip leaves sitting exactly at the threshold.
    disagree = set(scalar.leaf_btrees) ^ set(vector.leaf_btrees)
    for j in disagree:
        err = (
            scalar.leaf_errors[j]
            if j in scalar.leaf_btrees
            else vector.leaf_errors[j]
        )
        assert abs(err.max_absolute - threshold) <= 1, j
    rng = np.random.default_rng(SEED + 3)
    qs = probes(keys, rng, 300)
    np.testing.assert_array_equal(
        scalar.lookup_batch(qs), vector.lookup_batch(qs)
    )


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
    each leaf's members (bounds, moments, counts; empty leaves and the
    ``min_error_clamp`` widening included)."""
    keys = dataset(dataset_name)
    leaves, clamp = 16, 3
    index = RecursiveModelIndex(keys, stage_sizes=(1, leaves))
    assignment = index._leaf_assignment
    positions = np.arange(keys.size, dtype=np.float64)
    _leaf, predictions = index._plan.route(index._column.prepare(keys))
    default = index._default_leaf_error()
    # Contiguous layout (monotone root), then a shuffled one that
    # takes the argsort branch.
    shuffle = np.random.default_rng(SEED + 6).permutation(keys.size)
    for order in (np.arange(keys.size), shuffle):
        pred, pos, assign = (
            predictions[order], positions[order], assignment[order]
        )
        mn, mx, mean_abs, std, counts = segmented_error_arrays(
            pred, pos, assign, leaves,
            default=default, min_error_clamp=clamp,
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
            assert mn[j] == min(ref.min_error, -clamp), j
            assert mx[j] == max(ref.max_error, clamp), j
            assert mean_abs[j] == pytest.approx(
                ref.mean_absolute, rel=1e-9, abs=1e-9
            ), j
            assert std[j] == pytest.approx(ref.std, rel=1e-9, abs=1e-9), j


def test_writable_rebuild_paths_agree():
    """Merge-heavy random mutation, then the two rebuild modes must
    expose identical contents."""
    rng = np.random.default_rng(SEED + 5)
    base = np.unique(rng.integers(0, 50_000, 2_000)).astype(np.int64)
    writables = {
        mode: WritableLearnedIndex(
            base, stage_sizes=(1, 64), merge_threshold=256,
            model_factories=factories,
        )
        for mode, factories in (
            ("scalar", reference_factories((1, 64))),
            ("vectorized", None),
        )
    }
    for step in range(1_500):
        op = rng.random()
        if op < 0.45:
            key = int(rng.integers(-100, 50_100))
            for w in writables.values():
                w.insert(key)
        elif op < 0.6:
            batch = rng.integers(-100, 50_100, int(rng.integers(1, 300)))
            for w in writables.values():
                w.insert_batch(batch)
        elif op < 0.9:
            key = int(rng.integers(-100, 50_100))
            for w in writables.values():
                w.delete(key)
        else:
            for w in writables.values():
                w.merge()
    for w in writables.values():
        w.merge()
    scalar, vector = writables["scalar"], writables["vectorized"]
    assert len(scalar) == len(vector)
    np.testing.assert_array_equal(scalar._main.keys, vector._main.keys)
    qs = rng.integers(-200, 50_200, 2_000)
    np.testing.assert_array_equal(
        scalar.contains_batch(qs), vector.contains_batch(qs)
    )
