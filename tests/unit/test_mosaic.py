"""Unit tests for the Mosaic incremental octree."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.mosaic import MosaicIndex
from repro.baselines.scan import ScanIndex
from repro.datasets import BoxStore, make_uniform
from repro.errors import ConfigurationError
from repro.geometry import Box
from repro.queries import Query, uniform_workload


class TestConfiguration:
    def test_rejects_bad_args(self):
        ds = make_uniform(10, seed=1)
        with pytest.raises(ConfigurationError):
            MosaicIndex(ds.store, ds.universe, capacity=0)
        with pytest.raises(ConfigurationError):
            MosaicIndex(ds.store, ds.universe, max_depth=0)
        with pytest.raises(ConfigurationError):
            MosaicIndex(ds.store, Box.unit(2))

    def test_starts_with_one_partition(self):
        ds = make_uniform(100, seed=2)
        idx = MosaicIndex(ds.store, ds.universe)
        assert idx.partition_count() == 1
        assert idx.max_depth_reached() == 0


class TestIncrementalSplitting:
    def test_first_query_splits_root(self):
        ds = make_uniform(1_000, seed=3)
        idx = MosaicIndex(ds.store, ds.universe)
        q = uniform_workload(ds.universe, 1, 1e-3, seed=4)[0]
        idx.execute(q)
        assert idx.partition_count() == 8, "root splits into 2^3 children"
        assert idx.max_depth_reached() == 1

    def test_one_level_of_deepening_per_query(self):
        ds = make_uniform(5_000, seed=5)
        idx = MosaicIndex(ds.store, ds.universe, capacity=10)
        q = uniform_workload(ds.universe, 1, 1e-4, seed=6)[0]
        for expected_depth in (1, 2, 3):
            idx.execute(q)
            assert idx.max_depth_reached() == expected_depth

    def test_small_partitions_stop_splitting(self):
        ds = make_uniform(50, seed=7)
        idx = MosaicIndex(ds.store, ds.universe, capacity=60)
        q = uniform_workload(ds.universe, 1, 1e-2, seed=8)[0]
        idx.execute(q)
        assert idx.partition_count() == 1, "root within capacity never splits"

    def test_max_depth_respected_with_duplicates(self):
        lo = np.tile(np.array([[5.0, 5.0, 5.0]]), (200, 1))
        store = BoxStore(lo, lo + 0.1)
        universe = Box((0.0,) * 3, (10.0,) * 3)
        idx = MosaicIndex(store, universe, capacity=10, max_depth=4)
        q = Query(Box((4.0,) * 3, (6.0,) * 3))
        for _ in range(10):
            assert idx.execute(q).ids.size == 200
        assert idx.max_depth_reached() <= 4

    def test_repartitioning_cost_counted(self):
        # The paper's criticism: frequently queried data is reassigned
        # multiple times. rows_reorganized must exceed the region's size.
        ds = make_uniform(5_000, seed=9)
        idx = MosaicIndex(ds.store, ds.universe, capacity=10)
        q = uniform_workload(ds.universe, 1, 1e-4, seed=10)[0]
        for _ in range(5):
            idx.execute(q)
        assert idx.stats.rows_reorganized > ds.n, (
            "top-down strategy re-partitions the same data repeatedly"
        )


class TestCorrectness:
    def test_matches_scan_during_refinement(self):
        ds = make_uniform(2_000, seed=11)
        idx = MosaicIndex(ds.store, ds.universe, capacity=30)
        scan = ScanIndex(ds.store)
        for q in uniform_workload(ds.universe, 40, 1e-2, seed=12):
            assert np.array_equal(np.sort(idx.execute(q).ids), np.sort(scan.execute(q).ids))

    def test_straddling_object_found(self):
        lo = np.array([[4.0, 4.0, 4.0]])
        hi = np.array([[6.0, 6.0, 6.0]])  # centered on the root midpoint
        store = BoxStore(lo, hi)
        universe = Box((0.0,) * 3, (10.0,) * 3)
        idx = MosaicIndex(store, universe, capacity=0 + 1)
        # Query only one corner region after forcing splits.
        for _ in range(3):
            hits = idx.execute(Query(Box((5.5,) * 3, (5.9,) * 3))).ids
            assert hits.tolist() == [0]

    @pytest.mark.parametrize("ndim", [2, 3])
    def test_rows_centred_outside_the_universe_are_found(self, ndim):
        # The universe is the caller's word, not the data's: boxes drawn
        # from [-30, 120] in a [0, 100] universe must still be answered
        # once the splits near the universe's edges have happened.
        rng = np.random.default_rng(17)
        lo = rng.uniform(-30.0, 120.0, size=(1_500, ndim))
        hi = lo + rng.uniform(0.0, 5.0, size=(1_500, ndim))
        universe = Box((0.0,) * ndim, (100.0,) * ndim)
        idx = MosaicIndex(BoxStore(lo, hi), universe, capacity=8)
        scan = ScanIndex(BoxStore(lo.copy(), hi.copy()))
        for i in range(150):
            corner = rng.uniform(-30.0, 120.0, size=ndim)
            q = Query(Box(tuple(corner), tuple(corner + 15.0)), seq=i)
            assert np.array_equal(
                np.sort(idx.execute(q).ids), np.sort(scan.execute(q).ids)
            )

    def test_rows_conserved_across_splits(self):
        ds = make_uniform(1_000, seed=13)
        idx = MosaicIndex(ds.store, ds.universe, capacity=5)
        for q in uniform_workload(ds.universe, 10, 1e-2, seed=14):
            idx.execute(q)
        # Sum of leaf rows equals n and covers every row exactly once.
        rows = []
        stack = [idx._root]
        while stack:
            part = stack.pop()
            if part.is_leaf:
                rows.extend(part.rows.tolist())
            else:
                stack.extend(part.children)
        assert sorted(rows) == list(range(ds.n))

    def test_memory_grows_with_partitions(self):
        ds = make_uniform(1_000, seed=15)
        idx = MosaicIndex(ds.store, ds.universe, capacity=10)
        before = idx.memory_bytes()
        for q in uniform_workload(ds.universe, 5, 1e-2, seed=16):
            idx.execute(q)
        assert idx.memory_bytes() > before
