"""Edge cases: non-cubic universes and anisotropic data.

The paper's universes are cubes, but nothing in the algorithms requires
that; these tests pin down correct behaviour for rectangular spaces
(different extent per dimension), which exercise the ZGrid per-dimension
scaling, grid cell shapes, and QUASII threshold logic independently of the
cubic assumption.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    MosaicIndex,
    RTreeIndex,
    SFCIndex,
    SFCrackerIndex,
    ScanIndex,
    UniformGridIndex,
)
from repro.baselines.sfc import ZGrid
from repro.core import QuasiiIndex
from repro.datasets import BoxStore
from repro.geometry import Box
from repro.queries import Query, uniform_workload


@pytest.fixture(scope="module")
def slab_dataset():
    """A flat slab: x spans 10,000 units, y spans 100, z spans 10."""
    rng = np.random.default_rng(91)
    n = 3_000
    lo = rng.uniform([0, 0, 0], [10_000, 100, 10], size=(n, 3))
    hi = lo + rng.uniform(0, [50, 5, 1], size=(n, 3))
    universe = Box((0.0, 0.0, 0.0), (10_000.0, 100.0, 10.0))
    return BoxStore(lo, hi), universe


def slab_queries(universe, n=20, seed=92):
    return uniform_workload(universe, n, 1e-2, seed=seed)


class TestZGridAnisotropic:
    def test_per_dimension_scaling(self):
        universe = Box((0.0, 0.0), (1000.0, 10.0))
        grid = ZGrid(universe, bits=4)
        cells = grid.cells_of(np.array([[500.0, 5.0]]))
        # Both coordinates sit at the middle cell despite a 100x extent gap.
        assert cells[0].tolist() == [8, 8]

    def test_full_extent_maps_to_full_range(self):
        universe = Box((-50.0, 0.0), (50.0, 1.0))
        grid = ZGrid(universe, bits=3)
        cells = grid.cells_of(np.array([[-50.0, 0.0], [49.999, 0.999]]))
        assert cells[0].tolist() == [0, 0]
        assert cells[1].tolist() == [7, 7]


class TestIndexesOnSlab:
    def test_all_indexes_agree(self, slab_dataset):
        store, universe = slab_dataset
        scan = ScanIndex(store)
        indexes = [
            QuasiiIndex(store.copy(), tau=20),
            RTreeIndex(store.copy(), capacity=20),
            UniformGridIndex(store.copy(), universe, 8),
            SFCIndex(store.copy(), universe),
            SFCrackerIndex(store.copy(), universe),
            MosaicIndex(store.copy(), universe, capacity=20),
        ]
        for idx in indexes:
            idx.build()
        for q in slab_queries(universe):
            expect = np.sort(scan.execute(q).ids)
            for idx in indexes:
                assert np.array_equal(np.sort(idx.execute(q).ids), expect), (
                    f"{idx.name} diverged on anisotropic data"
                )

    def test_quasii_invariants_on_slab(self, slab_dataset):
        store, universe = slab_dataset
        index = QuasiiIndex(store.copy(), tau=25)
        for q in slab_queries(universe, n=30, seed=93):
            index.execute(q)
        index.validate_structure()

    def test_degenerate_query_plane(self, slab_dataset):
        store, universe = slab_dataset
        index = QuasiiIndex(store.copy())
        scan = ScanIndex(store)
        window = Box((5000.0, 0.0, 0.0), (5000.0, 100.0, 10.0))
        q = Query(window)
        assert np.array_equal(np.sort(index.execute(q).ids), np.sort(scan.execute(q).ids))
