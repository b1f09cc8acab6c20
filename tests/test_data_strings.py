"""Unit tests for the string document-id generators."""

import numpy as np
import pytest

from oracles import web_paths
from repro.data.strings import document_ids


class TestDocumentIds:
    def test_sorted_unique(self):
        ids = document_ids(2_000, seed=1)
        assert len(ids) == 2_000
        assert len(set(ids)) == 2_000
        assert ids == sorted(ids)

    def test_deterministic(self):
        assert document_ids(500, seed=3) == document_ids(500, seed=3)

    def test_format(self):
        ids = document_ids(100, seed=1, shards=64, id_digits=12)
        for doc_id in ids:
            shard, _, suffix = doc_id.partition("-")
            assert shard.isdigit() and suffix.isdigit()
            assert 0 <= int(shard) < 64
            assert len(suffix) == 12

    def test_skewed_shards(self):
        ids = document_ids(5_000, seed=1, shards=32)
        counts = np.zeros(32)
        for doc_id in ids:
            counts[int(doc_id.split("-")[0])] += 1
        # Zipf-ish: the busiest shard holds many times the median.
        assert counts.max() > 4 * max(np.median(counts), 1)

    def test_non_continuous(self):
        ids = document_ids(1_000, seed=1)
        suffixes = sorted(int(d.split("-")[1]) for d in ids if d.startswith("00-"))
        gaps = np.diff(suffixes)
        assert gaps.size == 0 or gaps.max() > 1


class TestWebPaths:
    def test_sorted_unique(self):
        paths = web_paths(1_000, seed=2)
        assert len(paths) == 1_000
        assert len(set(paths)) == 1_000
        assert paths == sorted(paths)

    def test_depth_bounds(self):
        paths = web_paths(500, seed=2, max_depth=3)
        assert all(1 <= p.count("/") + 1 <= 3 for p in paths)

    def test_alphabet(self):
        allowed = set("abcdefghijklmnopqrstuvwxyz0123456789/")
        for p in web_paths(200, seed=2):
            assert set(p) <= allowed

    def test_impossible_request_raises(self):
        # id space of 2 shards x 10 suffixes cannot hold 100 unique ids
        with pytest.raises(RuntimeError):
            document_ids(100, seed=1, shards=2, id_digits=1)
