"""Integration: the whole pipeline is deterministic.

Reproducing a paper requires runs to be replayable: same seeds, same
datasets, same workloads, same physical layouts, same counters.
"""

from __future__ import annotations

import numpy as np

from repro.baselines import MosaicIndex, SFCrackerIndex
from repro.core import QuasiiIndex
from repro.datasets import make_neuro_like, make_uniform
from repro.queries import clustered_workload, sequential_workload, uniform_workload


def test_generators_are_bit_reproducible():
    for make in (make_uniform, make_neuro_like):
        a = make(2_000, seed=77)
        b = make(2_000, seed=77)
        assert np.array_equal(a.store.lo, b.store.lo)
        assert np.array_equal(a.store.hi, b.store.hi)


def test_workloads_are_bit_reproducible():
    universe = make_uniform(10, seed=1).universe
    for gen in (
        lambda: uniform_workload(universe, 30, 1e-3, seed=5),
        lambda: clustered_workload(universe, 2, 15, 1e-3, seed=5),
        lambda: sequential_workload(universe, 30, 1e-3, seed=5),
    ):
        a, b = gen(), gen()
        assert all(x.window == y.window for x, y in zip(a, b))


def test_quasii_layout_is_deterministic():
    ds = make_uniform(3_000, seed=78)
    queries = uniform_workload(ds.universe, 25, 1e-2, seed=79)
    runs = []
    for _ in range(2):
        store = ds.store.copy()
        index = QuasiiIndex(store)
        for q in queries:
            index.execute(q)
        runs.append((store.ids.copy(), index.stats.snapshot()))
    ids_a, stats_a = runs[0]
    ids_b, stats_b = runs[1]
    assert np.array_equal(ids_a, ids_b), "cracking must be deterministic"
    assert stats_a.cracks == stats_b.cracks
    assert stats_a.rows_reorganized == stats_b.rows_reorganized
    assert stats_a.objects_tested == stats_b.objects_tested


def test_incremental_baselines_deterministic_counters():
    ds = make_uniform(2_000, seed=80)
    queries = uniform_workload(ds.universe, 15, 1e-2, seed=81)

    def counters(make_index):
        index = make_index()
        for q in queries:
            index.execute(q)
        s = index.stats
        return (s.cracks, s.rows_reorganized, s.objects_tested, s.results_returned)

    for make_index in (
        lambda: SFCrackerIndex(ds.store.copy(), ds.universe),
        lambda: MosaicIndex(ds.store.copy(), ds.universe),
    ):
        assert counters(make_index) == counters(make_index)
