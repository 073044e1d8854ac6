"""Unit tests for the uniform grid (both assignment strategies)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import ScanIndex
from repro.baselines.grid import UniformGridIndex
from repro.datasets import BoxStore, make_uniform
from repro.errors import ConfigurationError, QueryError
from repro.geometry import Box
from repro.queries import Query, uniform_workload


def _stored_copies(idx: UniformGridIndex) -> int:
    """Row entries across all cells: one per object unless replicated."""
    return int(idx._sorted_rows.size)


class TestConfiguration:
    def test_rejects_unknown_assignment(self):
        ds = make_uniform(10, seed=1)
        with pytest.raises(ConfigurationError):
            UniformGridIndex(ds.store, ds.universe, 10, "replicate-everything")

    def test_rejects_zero_partitions(self):
        ds = make_uniform(10, seed=1)
        with pytest.raises(ConfigurationError):
            UniformGridIndex(ds.store, ds.universe, 0)

    def test_rejects_dim_mismatch(self):
        ds = make_uniform(10, seed=1)
        with pytest.raises(ConfigurationError):
            UniformGridIndex(ds.store, Box.unit(2), 10)

    def test_names_reflect_strategy(self):
        ds = make_uniform(10, seed=1)
        assert UniformGridIndex(ds.store, ds.universe, 4).name == "GridQueryExt"
        assert (
            UniformGridIndex(ds.store, ds.universe, 4, "replication").name
            == "GridReplication"
        )

    def test_query_before_build(self):
        ds = make_uniform(10, seed=1)
        idx = UniformGridIndex(ds.store, ds.universe, 4)
        with pytest.raises(QueryError):
            idx.execute(Query(Box.unit(3)))


class TestQueryExtensionAssignment:
    def test_each_object_in_one_cell(self):
        ds = make_uniform(500, seed=2)
        idx = UniformGridIndex(ds.store, ds.universe, 8)
        idx.build()
        assert _stored_copies(idx) == ds.n

    def test_straddling_object_found(self):
        # Object centered in cell A extends into cell B; a query inside B
        # only is answered correctly thanks to window extension.
        lo = np.array([[0.0, 0.0], [9.0, 9.0]])
        hi = np.array([[6.0, 1.0], [10.0, 10.0]])
        store = BoxStore(lo, hi)
        universe = Box((0.0, 0.0), (10.0, 10.0))
        idx = UniformGridIndex(store, universe, 2)  # cells of side 5
        idx.build()
        hits = idx.execute(Query(Box((5.5, 0.0), (6.0, 0.5)))).ids
        assert hits.tolist() == [0]


class TestReplicationAssignment:
    def test_replication_factor_above_one(self):
        ds = make_uniform(2_000, seed=3)
        idx = UniformGridIndex(ds.store, ds.universe, 100, "replication")
        idx.build()
        assert _stored_copies(idx) > ds.n

    def test_points_never_replicate(self):
        ds = make_uniform(500, seed=4)
        pts = ds.store.lo
        idx = UniformGridIndex(BoxStore(pts, pts.copy()), ds.universe, 16, "replication")
        idx.build()
        assert _stored_copies(idx) == 500

    def test_no_duplicate_results(self):
        lo = np.array([[0.0, 0.0]])
        hi = np.array([[10.0, 10.0]])  # spans every cell
        store = BoxStore(lo, hi)
        universe = Box((0.0, 0.0), (10.0, 10.0))
        idx = UniformGridIndex(store, universe, 4, "replication")
        idx.build()
        hits = idx.execute(Query(Box((1.0, 1.0), (9.0, 9.0)))).ids
        assert hits.tolist() == [0], "replication must de-duplicate"

    def test_memory_exceeds_query_extension(self):
        ds = make_uniform(2_000, seed=5)
        rep = UniformGridIndex(ds.store, ds.universe, 100, "replication")
        ext = UniformGridIndex(ds.store, ds.universe, 100, "query_extension")
        rep.build()
        ext.build()
        assert rep.memory_bytes() > ext.memory_bytes()


class TestQuerying:
    def test_both_strategies_match(self):
        ds = make_uniform(1_500, seed=6)
        a = UniformGridIndex(ds.store, ds.universe, 20, "query_extension")
        b = UniformGridIndex(ds.store, ds.universe, 20, "replication")
        a.build()
        b.build()
        for q in uniform_workload(ds.universe, 25, 1e-2, seed=7):
            assert np.array_equal(np.sort(a.execute(q).ids), np.sort(b.execute(q).ids))

    def test_extension_tests_more_objects(self):
        # The 3.1x factor of Section 6.2, qualitatively: query extension
        # must consider more candidates than the exact result size.
        ds = make_uniform(3_000, seed=8)
        idx = UniformGridIndex(ds.store, ds.universe, 30)
        idx.build()
        q = uniform_workload(ds.universe, 1, 1e-3, seed=9)[0]
        hits = idx.execute(q).ids
        assert idx.stats.objects_tested > hits.size

    def test_single_partition_grid(self):
        ds = make_uniform(200, seed=10)
        idx = UniformGridIndex(ds.store, ds.universe, 1)
        idx.build()
        q = uniform_workload(ds.universe, 1, 1e-2, seed=11)[0]
        # Degenerates to a scan but must stay correct.
        assert idx.execute(q).ids.size == ScanIndex(ds.store).execute(q).count

    def test_empty_result(self):
        lo = np.array([[0.0, 0.0]])
        store = BoxStore(lo, lo + 1.0)
        idx = UniformGridIndex(store, Box((0.0, 0.0), (100.0, 100.0)), 10)
        idx.build()
        assert idx.execute(Query(Box((50.0, 50.0), (60.0, 60.0)))).ids.size == 0
