"""Invariants of the PR 10 index families and their shared fitter.

Two kinds of guarantee, each a hard assertion rather than a
statistical check:

* ``epsilon_segment`` — every segment spanning more than one distinct
  float64 key obeys the ε error bound exactly, every segment's stored
  window covers its measured residual range (that is the engine's
  routing contract), and the split-refine loop converges in the
  logarithmic round budget that makes the build vectorized rather than
  per-segment;
* PGM / RadixSpline — routing structures are well-formed (strictly
  increasing knots, exact bucket brackets, recursion that terminates)
  and every lookup is bit-identical to ``np.searchsorted``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import RecursiveModelIndex
from repro.families import PGMIndex, RadixSplineIndex, epsilon_segment
from repro.models.cdf import positions_for_keys

RNG = np.random.default_rng(0xFA1)


def key_regimes():
    yield "uniform", np.sort(RNG.integers(0, 1 << 40, 20_000, dtype=np.int64))
    yield "lognormal", np.sort(
        (np.exp(RNG.normal(18, 4, 20_000))).astype(np.int64)
    )
    dup = np.sort(RNG.integers(0, 300, 20_000, dtype=np.int64))
    yield "duplicate_heavy", dup
    yield "clustered", np.sort(np.concatenate([
        c + RNG.integers(0, 1_000, 2_500)
        for c in RNG.integers(0, 1 << 50, 8)
    ]).astype(np.int64))
    yield "float", np.sort(RNG.normal(0, 1e9, 20_000))


REGIMES = dict(key_regimes())


def skewed_column(seed: int) -> np.ndarray:
    """~120k unique keys of the benchmark's lognormal column (σ = 2):
    one line over its CDF misses by about a quarter of the keys."""
    draws = np.random.default_rng(seed).normal(0.0, 2.0, 120_000)
    return np.unique((np.exp(draws) * 1e7).astype(np.int64))


# -- the shared ε-segmentation fitter ------------------------------------------

class TestEpsilonSegmentInvariants:
    @pytest.mark.parametrize("regime", sorted(REGIMES))
    @pytest.mark.parametrize("fit", ["least_squares", "endpoint"])
    @pytest.mark.parametrize("eps", [4, 32])
    def test_epsilon_bound_is_hard(self, regime, fit, eps):
        """max |prediction - position| <= ε on every multi-distinct-key
        segment — the defining PGM guarantee, asserted exactly up to
        evaluation rounding.

        The fitter measures residuals in the numerically centered form
        ``slope·(x - x̄) + ȳ``; re-evaluating ``slope·x + intercept``
        loses up to a few ulp of ``|slope·x|`` to cancellation at large
        key magnitudes (which is why the engine pads every window by
        -1/+2 and verifies results).  The tolerance below is exactly
        that ulp budget — zero-slack in well-conditioned regimes.
        """
        keys_f = REGIMES[regime].astype(np.float64)
        n = keys_f.size
        seg = epsilon_segment(keys_f, positions_for_keys(n), eps, fit=fit)
        bounds = seg.boundaries
        assert bounds[0] == 0 and bounds[-1] == n
        assert np.all(bounds[1:] > bounds[:-1])
        for j in range(seg.segment_count):
            lo, hi = int(bounds[j]), int(bounds[j + 1])
            chunk = keys_f[lo:hi]
            terms = seg.slopes[j] * chunk
            resid = terms + seg.intercepts[j]
            resid -= np.arange(lo, hi, dtype=np.float64)
            tol = 4.0 * np.spacing(max(
                float(np.abs(terms).max()), abs(seg.intercepts[j]), 1.0
            ))
            # The stored window must cover the measured residual range
            # for EVERY segment (single-value runs included) — this is
            # what makes the engine's bounded search exact.
            assert seg.lo_offsets[j] >= resid.max() - tol, (regime, j)
            assert seg.hi_offsets[j] <= resid.min() + tol, (regime, j)
            if np.unique(chunk).size >= 2:
                assert np.abs(resid).max() <= eps + tol, (
                    regime, fit, j, np.abs(resid).max(),
                )

    @pytest.mark.parametrize("regime", sorted(REGIMES))
    def test_build_converges_in_logarithmic_rounds(self, regime):
        """Split-refine must stay vectorized: the round count is
        bounded by log2 of the distinct-key count, not by the segment
        count — no per-segment Python fit loops."""
        keys_f = REGIMES[regime].astype(np.float64)
        seg = epsilon_segment(
            keys_f, positions_for_keys(keys_f.size), 8
        )
        distinct = np.unique(keys_f).size
        assert seg.rounds <= int(np.ceil(np.log2(max(distinct, 2)))) + 2, (
            regime, seg.rounds,
        )

    @pytest.mark.parametrize("fit", ["least_squares", "endpoint"])
    @pytest.mark.parametrize("eps", [4, 16, 32])
    def test_skewed_column_is_not_cut_apart(self, fit, eps):
        """A first split into ``ceil(max_abs / ε)`` chunks would cut a
        skewed column into single keys.  It must come out at no more
        than one segment per ε keys, within the bound, in a logarithmic
        number of rounds."""
        keys_f = skewed_column(0xFA2).astype(np.float64)
        n = keys_f.size
        seg = epsilon_segment(keys_f, positions_for_keys(n), eps, fit=fit)
        assert seg.segment_count <= n // eps, (fit, eps, seg.segment_count)
        assert seg.rounds <= int(np.ceil(np.log2(n))) + 2
        counts = np.diff(seg.boundaries)
        terms = np.repeat(seg.slopes, counts) * keys_f
        intercepts = np.repeat(seg.intercepts, counts)
        resid = np.abs(terms + intercepts - np.arange(n))
        tol = 4.0 * np.spacing(
            np.maximum(np.maximum(np.abs(terms), np.abs(intercepts)), 1.0)
        )
        assert np.all(resid <= eps + tol)

    @pytest.mark.parametrize("family", [PGMIndex, RadixSplineIndex])
    def test_skewed_column_keeps_default_epsilon_segments_few(self, family):
        keys = skewed_column(0xFA3)
        index = family(keys)
        assert index.segment_count <= keys.size // 16
        queries = np.concatenate([keys[::7], keys[::11] + 1])
        np.testing.assert_array_equal(
            index.lookup_batch(queries), np.searchsorted(keys, queries)
        )

    def test_rejects_epsilon_below_one(self):
        with pytest.raises(ValueError):
            epsilon_segment(
                np.arange(10, dtype=np.float64), positions_for_keys(10), 0.5
            )

    def test_segment_first_keys_strictly_increase(self):
        keys_f = REGIMES["duplicate_heavy"].astype(np.float64)
        seg = epsilon_segment(keys_f, positions_for_keys(keys_f.size), 2)
        firsts = keys_f[seg.boundaries[:-1]]
        assert np.all(np.diff(firsts) > 0)


# -- PGM / RadixSpline routing structures --------------------------------------

class TestPGMStructure:
    def test_recursion_produces_internal_levels(self):
        keys = REGIMES["uniform"]
        index = PGMIndex(keys, epsilon=2, epsilon_internal=2)
        assert len(index._levels) >= 1
        # descending through every level must land on the leaf that the
        # scalar bisect route finds, for in-set keys
        sample = index._space.encode(keys[:: max(keys.size // 200, 1)])
        leaves = index._descend(sample)
        expected = np.array([index._route_scalar(q) for q in sample.tolist()])
        np.testing.assert_array_equal(leaves, expected)

    @pytest.mark.parametrize("regime", sorted(REGIMES))
    def test_lookup_matches_searchsorted(self, regime):
        keys = REGIMES[regime]
        index = PGMIndex(keys, epsilon=8, epsilon_internal=2)
        queries = np.concatenate([
            RNG.choice(keys, 2_000),
            RNG.uniform(float(keys.min()) - 10, float(keys.max()) + 10, 2_000)
            .astype(keys.dtype),
        ])
        np.testing.assert_array_equal(
            index.lookup_batch(queries),
            np.searchsorted(keys, queries, side="left"),
        )

    def test_exact_beyond_2p63(self):
        keys = np.sort(RNG.integers(
            (1 << 63) - 4_000, (1 << 63) + 4_000, 4_000, dtype=np.uint64
        ))
        assert np.unique(keys.astype(np.float64)).size < keys.size
        index = PGMIndex(keys, epsilon=4)
        probes = np.sort(RNG.integers(
            (1 << 63) - 4_100, (1 << 63) + 4_100, 2_000, dtype=np.uint64
        ))
        np.testing.assert_array_equal(
            index.lookup_batch(probes),
            np.searchsorted(keys, probes, side="left"),
        )

    def test_top_route_fallback_is_exact(self):
        # Force the searchsorted fallback and check nothing changes.
        keys = REGIMES["clustered"]
        index = PGMIndex(keys, epsilon=8)
        if index._top_route[0] != "search":
            index._top_route = ("search",)
        queries = RNG.choice(keys, 1_000)
        np.testing.assert_array_equal(
            index.lookup_batch(queries),
            np.searchsorted(keys, queries, side="left"),
        )


class TestRadixSplineStructure:
    def test_bucket_brackets_are_exact(self):
        """table[c] <= lower_bound(knots, q) <= table[c+1] for every
        knot and for random probes — the radix routing contract."""
        keys = REGIMES["lognormal"]
        index = RadixSplineIndex(keys, epsilon=8)
        knots = index._knots
        table = index._table
        # knots, table and probes all live in the index's model space
        probes = np.concatenate([
            knots,
            RNG.uniform(
                float(knots[0]), float(index._space.encode(keys[-1:])[0]),
                5_000,
            ),
        ])
        cell = ((probes - index._min_f) * index._scale).astype(np.int64)
        np.clip(cell, 0, index._num_cells - 1, out=cell)
        lb = np.searchsorted(knots, probes, side="left")
        assert np.all(table[cell] <= lb)
        assert np.all(lb <= table[cell + 1])

    @pytest.mark.parametrize("regime", sorted(REGIMES))
    def test_lookup_matches_searchsorted(self, regime):
        keys = REGIMES[regime]
        index = RadixSplineIndex(keys, epsilon=8)
        queries = np.concatenate([
            RNG.choice(keys, 2_000),
            RNG.uniform(float(keys.min()) - 10, float(keys.max()) + 10, 2_000)
            .astype(keys.dtype),
        ])
        np.testing.assert_array_equal(
            index.lookup_batch(queries),
            np.searchsorted(keys, queries, side="left"),
        )

    @pytest.mark.parametrize("bits", [4, 10, 20])
    def test_explicit_radix_bits(self, bits):
        keys = REGIMES["uniform"]
        index = RadixSplineIndex(keys, epsilon=16, radix_bits=bits)
        assert index.radix_bits == bits
        queries = RNG.choice(keys, 1_000)
        np.testing.assert_array_equal(
            index.lookup_batch(queries),
            np.searchsorted(keys, queries, side="left"),
        )


# -- family accounting surface (benchmark matrix dependencies) -----------------

class TestAccountingSurface:
    @pytest.mark.parametrize("family", [PGMIndex, RadixSplineIndex])
    def test_size_and_window_accounting(self, family):
        keys = REGIMES["uniform"]
        index = family(keys)
        assert index.segment_count >= 1
        plan = index._plan
        assert index.size_bytes() == index._routing_size_bytes() + sum(
            getattr(plan, name).nbytes for name in plan.ARRAY_FIELDS
        )
        assert index.max_error_window >= 1
        assert 0 < index.mean_error_window <= index.max_error_window
        assert str(index.segment_count) in repr(index)


# -- the model, not the float64 ulp, bounds the search -------------------------

N_DENSE = 200_000

#: The benchmark's two dense patterns (``u64_dense``: the static column
#: and the KV keys): neighbours share a float64 ~500 at a time.
DENSE = {
    "uint64_2p63": np.uint64(2**63 - N_DENSE)
    + 2 * np.arange(N_DENSE, dtype=np.uint64),
    "int64_2p62": np.int64(2**62 - N_DENSE)
    + 2 * np.arange(N_DENSE, dtype=np.int64),
}

DENSE_FAMILIES = {
    "rmi": lambda keys: RecursiveModelIndex(keys, stage_sizes=(1, 2_000)),
    "pgm": PGMIndex,
    "rs": RadixSplineIndex,
}


class TestDenseColumnsAreModelBound:
    @pytest.mark.parametrize("pattern", sorted(DENSE))
    @pytest.mark.parametrize("family", sorted(DENSE_FAMILIES))
    def test_window_and_segment_guard(self, family, pattern):
        """Windows on dense 64-bit keys are as narrow as the model is
        good — a raw float64 cast would make them ~770 slots (one ulp
        of keys) and the PGM ~1 500 segments."""
        keys = DENSE[pattern]
        assert np.unique(keys.astype(np.float64)).size < keys.size // 100
        index = DENSE_FAMILIES[family](keys)
        rng = np.random.default_rng(0xD5)
        picks = keys[rng.integers(0, keys.size, 20_000)]
        queries = np.concatenate([picks, picks + keys.dtype.type(1)])
        np.testing.assert_array_equal(
            index.lookup_batch(queries, sort=False),
            np.searchsorted(keys, queries),
        )
        plan = index._plan
        qb = plan.column.prepare(queries)
        lo, hi = plan.windows_from_raw(*plan.route(qb))
        assert (hi - lo).mean() <= 8
        assert plan.column.bounded_lower_bounds(qb, lo, hi)[1] == 0
        if family != "rmi":
            assert index.segment_count <= 4

    @pytest.mark.parametrize("family", sorted(DENSE_FAMILIES))
    def test_offset_tables_are_as_narrow_as_the_errors(self, family):
        dense = DENSE_FAMILIES[family](DENSE["uint64_2p63"])
        assert dense._plan.lo_offsets.dtype == np.int8
        assert dense._plan.hi_offsets.dtype == np.int8
        lognormal = np.unique(
            np.exp(np.random.default_rng(0xD6).normal(18, 2, 200_000))
            .astype(np.int64)
        )
        skewed = DENSE_FAMILIES[family](lognormal)
        plan = skewed._plan
        if family == "rmi":
            assert plan.lo_offsets.dtype == plan.hi_offsets.dtype == np.int16
            # The root's 16 B, 16 B per fitted leaf model (8 B for a
            # dead leaf's constant), and the two tables as held.
            dead = np.count_nonzero(skewed._stage_counts[-1] == 0)
            assert skewed.size_bytes() == (
                16 + 16 * (plan.leaf_count - dead) + 8 * dead
                + plan.lo_offsets.nbytes + plan.hi_offsets.nbytes
            )
        for index in (dense, skewed):
            tables = index._plan
            assert tables.lo_offsets.dtype == tables.hi_offsets.dtype
            assert tables.slopes.dtype == tables.intercepts.dtype == np.float64
