"""Integration: the library is dimension-generic.

The paper presents QUASII in 3-d with a 2-d walk-through; the number of
levels "always equals the dimensionality of the queried dataset".  These
tests pin that genericity down:

* 1-d QUASII degenerates to relational database cracking (one level,
  interval queries);
* 2-d exercises the quadtree variant of Mosaic and 2-d Z-order;
* 4-d checks nothing hard-codes d = 3.
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
from repro.core import QuasiiConfig, QuasiiIndex
from repro.datasets import BoxStore, make_uniform
from repro.geometry import Box
from repro.queries import Query, uniform_workload


def random_dataset(ndim, n, seed):
    return make_uniform(n, ndim=ndim, universe_side=1000.0, seed=seed)


class TestOneDimensional:
    def test_quasii_1d_is_relational_cracking(self):
        rng = np.random.default_rng(51)
        keys = rng.uniform(0, 1000, size=(400, 1))
        store = BoxStore(keys, keys)  # zero-extent: pure values
        index = QuasiiIndex(store, QuasiiConfig(1, (16,)))
        scan = ScanIndex(store.copy())
        for i, (lo, hi) in enumerate([(100, 300), (50, 120), (700, 900), (0, 1000)]):
            q = Query(Box((float(lo),), (float(hi),)), seq=i)
            assert np.array_equal(np.sort(index.execute(q).ids), np.sort(scan.execute(q).ids))
        index.validate_structure()
        # The array is now partially sorted around the queried bounds:
        # piece-wise, every slice's keys fit between its cut bounds.
        assert index.slice_counts()[0] > 1

    def test_1d_repeated_queries_converge(self):
        rng = np.random.default_rng(52)
        keys = rng.uniform(0, 1000, size=(500, 1))
        store = BoxStore(keys, keys + 1.0)
        index = QuasiiIndex(store, QuasiiConfig(1, (8,)))
        q = Query(Box((250.0,), (260.0,)))
        index.execute(q)
        index.execute(q)
        cracks = index.stats.cracks
        index.execute(q)
        assert index.stats.cracks == cracks


@pytest.mark.parametrize("ndim", [2, 4])
class TestOtherDimensions:
    def test_all_indexes_agree(self, ndim):
        ds = random_dataset(ndim, 800, seed=53)
        scan = ScanIndex(ds.store)
        indexes = [
            QuasiiIndex(ds.store.copy(), tau=16),
            MosaicIndex(ds.store.copy(), ds.universe, capacity=16),
            RTreeIndex(ds.store.copy(), capacity=16),
            UniformGridIndex(ds.store.copy(), ds.universe, 5),
        ]
        if ndim <= 3:
            indexes.append(SFCIndex(ds.store.copy(), ds.universe))
            indexes.append(SFCrackerIndex(ds.store.copy(), ds.universe))
        for idx in indexes:
            idx.build()
        for q in uniform_workload(ds.universe, 15, 1e-2, seed=54):
            expect = np.sort(scan.execute(q).ids)
            for idx in indexes:
                assert np.array_equal(np.sort(idx.execute(q).ids), expect), (
                    f"{idx.name} wrong in {ndim}-d"
                )

    def test_quasii_level_count_equals_ndim(self, ndim):
        ds = random_dataset(ndim, 500, seed=55)
        index = QuasiiIndex(ds.store.copy(), tau=8)
        for q in uniform_workload(ds.universe, 10, 0.05, seed=56):
            index.execute(q)
        counts = index.slice_counts()
        assert len(counts) == ndim
        index.validate_structure()

    def test_mosaic_fanout_is_two_to_the_d(self, ndim):
        ds = random_dataset(ndim, 2000, seed=57)
        index = MosaicIndex(ds.store.copy(), ds.universe, capacity=10)
        index.execute(uniform_workload(ds.universe, 1, 1e-2, seed=58)[0])
        assert index.partition_count() == 2**ndim


class TestSFCDimensionLimit:
    def test_4d_sfc_supported_with_reduced_bits(self):
        # 10 bits x 4 dims = 40 <= 63: still fits a 64-bit code.
        ds = random_dataset(4, 300, seed=59)
        idx = SFCIndex(ds.store.copy(), ds.universe, bits=10)
        idx.build()
        scan = ScanIndex(ds.store)
        for q in uniform_workload(ds.universe, 5, 0.05, seed=60):
            assert np.array_equal(np.sort(idx.execute(q).ids), np.sort(scan.execute(q).ids))
