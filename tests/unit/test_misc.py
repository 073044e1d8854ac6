"""Unit tests for utilities, the index base class, and the scan baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.scan import ScanIndex
from repro.datasets import make_uniform
from repro.errors import QueryError
from repro.geometry import Box
from repro.index import IndexStats
from repro.queries import Query, uniform_workload
from repro.util import gather_ranges


class TestGatherRanges:
    def test_basic(self):
        out = gather_ranges(np.array([0, 5, 9]), np.array([2, 5, 12]))
        assert out.tolist() == [0, 1, 9, 10, 11]

    def test_empty_input(self):
        assert gather_ranges(np.array([]), np.array([])).size == 0

    def test_all_empty_ranges(self):
        out = gather_ranges(np.array([3, 7]), np.array([3, 7]))
        assert out.size == 0

    def test_matches_naive(self):
        rng = np.random.default_rng(0)
        starts = rng.integers(0, 100, size=50)
        ends = starts + rng.integers(0, 10, size=50)
        expected = np.concatenate(
            [np.arange(s, e) for s, e in zip(starts, ends)] or [np.array([])]
        )
        assert np.array_equal(gather_ranges(starts, ends), expected)

    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            gather_ranges(np.array([5]), np.array([3]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            gather_ranges(np.array([1, 2]), np.array([3]))


class TestIndexStats:
    def test_reset(self):
        s = IndexStats(queries=3, cracks=2, objects_tested=10)
        s.reset()
        assert s.queries == 0 and s.cracks == 0 and s.objects_tested == 0

    def test_snapshot_is_decoupled(self):
        s = IndexStats(queries=1)
        snap = s.snapshot()
        s.queries = 99
        assert snap.queries == 1


class TestScan:
    def test_matches_manual_check(self):
        ds = make_uniform(500, seed=1)
        scan = ScanIndex(ds.store)
        q = uniform_workload(ds.universe, 1, 1e-2, seed=2)[0]
        hits = set(scan.execute(q).ids.tolist())
        for row in range(ds.n):
            expected = ds.store.box_at(row).intersects(q.window)
            assert (ds.store.id_at(row) in hits) == expected

    def test_tests_every_object(self):
        ds = make_uniform(321, seed=3)
        scan = ScanIndex(ds.store)
        scan.execute(uniform_workload(ds.universe, 1, 1e-2, seed=4)[0])
        assert scan.stats.objects_tested == 321

    def test_query_counts_and_result_counter(self):
        ds = make_uniform(100, seed=5)
        scan = ScanIndex(ds.store)
        total = 0
        for q in uniform_workload(ds.universe, 5, 0.05, seed=6):
            total += scan.execute(q).ids.size
        assert scan.stats.queries == 5
        assert scan.stats.results_returned == total

    def test_dim_mismatch_rejected(self):
        ds = make_uniform(10, seed=7)
        scan = ScanIndex(ds.store)
        with pytest.raises(QueryError):
            scan.execute(Query(Box.unit(2)))

    def test_memory_is_zero(self):
        ds = make_uniform(10, seed=8)
        assert ScanIndex(ds.store).memory_bytes() == 0
