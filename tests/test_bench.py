"""Unit tests for the cost model, timing harness, table rendering and
the paired benchmark ruler's summary."""

import numpy as np
import pytest

from repro.bench import (
    DEFAULT_COST_MODEL,
    CostModel,
    Table,
    factor,
    compare_lookups,
    format_bytes,
    measure_callable,
    measure_lookups,
    percentage,
)
from repro.bench.paired import summarize


class TestCostModel:
    def test_btree_cost_grows_with_height(self):
        shallow = DEFAULT_COST_MODEL.btree_lookup(2, 128, 10_000)
        deep = DEFAULT_COST_MODEL.btree_lookup(5, 128, 10_000)
        assert deep.total_ns > shallow.total_ns

    def test_large_btree_pays_cache_misses(self):
        hot = DEFAULT_COST_MODEL.btree_lookup(3, 128, 100_000)
        cold = DEFAULT_COST_MODEL.btree_lookup(3, 128, 100_000_000)
        assert cold.cache_miss_cycles > hot.cache_miss_cycles

    def test_learned_beats_btree_at_paper_scale(self):
        """Section 2.1's headline: a small model + bounded search beats
        a deep cached B-Tree."""
        btree = DEFAULT_COST_MODEL.btree_lookup(
            4, 128, 13 * 1024 * 1024
        )  # Figure 4's 13MB page-128 tree
        learned = DEFAULT_COST_MODEL.learned_lookup(
            model_ops=8, mean_window=200, size_bytes=150_000
        )
        assert learned.total_ns < btree.total_ns

    def test_model_share_reported(self):
        est = DEFAULT_COST_MODEL.learned_lookup(8, 100, 10_000)
        assert 0 < est.model_ns < est.total_ns

    def test_binary_search_scales_logarithmically(self):
        small = DEFAULT_COST_MODEL.binary_search_lookup(10**4)
        big = DEFAULT_COST_MODEL.binary_search_lookup(10**8)
        assert big.total_ns > small.total_ns
        assert big.total_ns < small.total_ns * 20

    def test_framework_overhead_dominates(self):
        """Section 2.3: ~80,000ns with Tensorflow vs ~300ns B-Tree."""
        framework = DEFAULT_COST_MODEL.framework_model_lookup(2_000)
        btree = DEFAULT_COST_MODEL.btree_lookup(4, 128, 13 * 1024 * 1024)
        assert framework.total_ns > 100 * btree.total_ns

    def test_custom_constants(self):
        slow_clock = CostModel(clock_ghz=1.0)
        fast_clock = CostModel(clock_ghz=4.0)
        slow = slow_clock.btree_lookup(3, 128, 10_000)
        fast = fast_clock.btree_lookup(3, 128, 10_000)
        assert slow.total_ns > fast.total_ns


class TestTimingHarness:
    def test_measure_callable(self):
        total = {"count": 0}

        def work():
            total["count"] += 1

        ns = measure_callable(work, repeats=3, inner=10)
        assert ns >= 0
        assert total["count"] == 30

    def test_measure_lookups(self):
        keys = np.arange(1000)

        def lookup(q):
            return int(np.searchsorted(keys, q))

        result = measure_lookups(lookup, list(range(0, 1000, 10)), repeats=2)
        assert result.mean_ns > 0
        assert result.p50_ns > 0
        assert result.operations == 100

    def test_measure_lookups_rejects_empty(self):
        with pytest.raises(ValueError):
            measure_lookups(lambda q: q, [])

    def test_compare_lookups_alternates_sides(self):
        order = []
        a, b, _ = compare_lookups(
            lambda q: order.append("A"), lambda q: order.append("B"),
            range(4), repeats=1, chunk=1,
        )
        # warm-up runs each side over the queries, then A B | B A | ...
        assert "".join(order) == "AAAABBBB" + "ABBAABBA"
        assert a.operations == b.operations == 4

    def test_compare_lookups_of_a_callable_with_itself(self):
        keys = np.arange(1000)

        def lookup(q):
            return int(np.searchsorted(keys, q))

        a, b, ratio = compare_lookups(lookup, lookup, list(range(1000)))
        assert 0.8 <= ratio <= 1.25
        assert a.mean_ns > 0 and b.mean_ns > 0


class TestTables:
    def test_format_bytes(self):
        assert format_bytes(13.11 * 1024 * 1024) == "13.11 MB"
        assert format_bytes(2048) == "2.0 KB"
        assert format_bytes(12) == "12 B"

    def test_factor(self):
        assert factor(52.45, 13.11) == "(4.00x)"
        assert factor(1.0, 0.0) == "(n/a)"

    def test_percentage(self):
        assert percentage(198, 274) == "(72.3%)"
        assert percentage(1, 0) == "(n/a)"

    def test_table_rendering(self):
        table = Table("Demo", ["config", "value"])
        table.add_row("a", 1)
        table.add_row("bb", 22)
        out = table.render()
        assert "Demo" in out
        assert "config" in out
        assert "22" in out

    def test_table_rejects_bad_row(self):
        table = Table("Demo", ["one", "two"])
        with pytest.raises(ValueError):
            table.add_row("only-one")


def _record(**values):
    """A ``run.py`` last line holding ``values``, units made up."""
    return {
        "correct": True, "attempted": 10, "failed": 0,
        "metrics": {k: {"value": v, "unit": "ns/key"} for k, v in values.items()},
    }


class TestPairedSummary:
    def test_ratios_interval_and_wins(self):
        # read_ns: B / A = 0.7, 0.8, 0.6, 0.9, 1.1 -> median 0.8, B lower 4/5
        a = [100.0, 200.0, 100.0, 100.0, 100.0]
        b = [70.0, 160.0, 60.0, 90.0, 110.0]
        pairs = [
            (_record(read_ns=x, write_ns=1.0, gone=1.0),
             _record(read_ns=y, write_ns=1.0))
            for x, y in zip(a, b)
        ]
        rows = {row["metric"]: row for row in summarize(pairs)}
        assert set(rows) == {"read_ns", "write_ns"}  # both sides report
        read = rows["read_ns"]
        assert read["median"] == pytest.approx(0.8)
        assert (read["lower"], read["pairs"]) == (4, 5)
        assert read["unit"] == "ns/key"
        assert 0.6 <= read["low"] <= read["median"] <= read["high"] <= 1.1
        write = rows["write_ns"]
        assert (write["median"], write["low"], write["high"]) == (1.0,) * 3
        assert write["lower"] == 0
        assert summarize(pairs) == list(rows.values())  # seeded draws

    def test_a_zero_base_is_one_or_infinite(self):
        pairs = [(_record(fails=0.0, grows=0.0), _record(fails=0.0, grows=3.0))]
        rows = {row["metric"]: row for row in summarize(pairs)}
        assert rows["fails"]["median"] == 1.0
        assert rows["grows"]["median"] == float("inf")
        assert rows["grows"]["low"] == rows["grows"]["high"] == float("inf")
        assert rows["grows"]["lower"] == 0
