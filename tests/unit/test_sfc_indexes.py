"""Unit tests for the static SFC index and SFCracker."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.scan import ScanIndex
from repro.baselines.sfc import SFCIndex, SFCrackerIndex
from repro.datasets import make_uniform
from repro.errors import QueryError
from repro.geometry import Box
from repro.queries import Query, uniform_workload


class TestSFCIndex:
    def test_query_before_build_raises(self):
        ds = make_uniform(50, seed=1)
        idx = SFCIndex(ds.store, ds.universe)
        with pytest.raises(QueryError):
            idx.execute(Query(Box.unit(3)))

    def test_build_sorts_codes(self):
        ds = make_uniform(300, seed=2)
        idx = SFCIndex(ds.store, ds.universe)
        idx.build()
        codes = idx._sorted_codes
        assert np.all(codes[:-1] <= codes[1:])

    def test_matches_scan(self):
        ds = make_uniform(1_000, seed=3)
        idx = SFCIndex(ds.store, ds.universe)
        idx.build()
        scan = ScanIndex(ds.store)
        for q in uniform_workload(ds.universe, 20, 1e-2, seed=4):
            assert np.array_equal(np.sort(idx.execute(q).ids), np.sort(scan.execute(q).ids))

    def test_false_positive_overhead_counted(self):
        ds = make_uniform(2_000, seed=5)
        idx = SFCIndex(ds.store, ds.universe)
        idx.build()
        q = uniform_workload(ds.universe, 1, 1e-2, seed=6)[0]
        hits = idx.execute(q).ids
        assert idx.stats.objects_tested >= hits.size
        assert idx.stats.nodes_visited > 1, "query decomposes into intervals"

    def test_memory_accounting(self):
        ds = make_uniform(100, seed=7)
        idx = SFCIndex(ds.store, ds.universe)
        assert idx.memory_bytes() == 0
        idx.build()
        assert idx.memory_bytes() >= 100 * 16


class TestSFCracker:
    def test_first_query_initializes(self):
        ds = make_uniform(500, seed=8)
        idx = SFCrackerIndex(ds.store, ds.universe)
        assert idx.piece_count == 1
        q = uniform_workload(ds.universe, 1, 1e-2, seed=9)[0]
        idx.execute(q)
        assert idx.piece_count > 1
        idx.validate_pieces()

    def test_matches_scan_over_sequence(self):
        ds = make_uniform(1_000, seed=10)
        idx = SFCrackerIndex(ds.store, ds.universe)
        scan = ScanIndex(ds.store)
        for q in uniform_workload(ds.universe, 30, 1e-2, seed=11):
            assert np.array_equal(np.sort(idx.execute(q).ids), np.sort(scan.execute(q).ids))
        idx.validate_pieces()

    def test_repeat_query_cracks_nothing_new(self):
        ds = make_uniform(1_000, seed=12)
        idx = SFCrackerIndex(ds.store, ds.universe)
        q = uniform_workload(ds.universe, 1, 1e-3, seed=13)[0]
        idx.execute(q)
        cracks = idx.stats.cracks
        idx.execute(q)
        assert idx.stats.cracks == cracks, "known boundaries are lookups"

    def test_pieces_partition_by_code(self):
        ds = make_uniform(800, seed=14)
        idx = SFCrackerIndex(ds.store, ds.universe)
        for q in uniform_workload(ds.universe, 10, 1e-2, seed=15):
            idx.execute(q)
        idx.validate_pieces()

    def test_first_query_pays_more_reorganization(self):
        ds = make_uniform(2_000, seed=16)
        idx = SFCrackerIndex(ds.store, ds.universe)
        qs = uniform_workload(ds.universe, 10, 1e-3, seed=17)
        idx.execute(qs[0])
        first = idx.stats.rows_reorganized
        for q in qs[1:]:
            idx.execute(q)
        later_avg = (idx.stats.rows_reorganized - first) / 9
        assert first > later_avg, "first query cracks the untouched array"

    def test_results_match_static_counterpart(self):
        ds = make_uniform(700, seed=18)
        cracker = SFCrackerIndex(ds.store, ds.universe)
        static = SFCIndex(ds.store, ds.universe)
        static.build()
        for q in uniform_workload(ds.universe, 15, 1e-2, seed=19):
            assert np.array_equal(
                np.sort(cracker.execute(q).ids), np.sort(static.execute(q).ids)
            )

    def test_memory_zero_before_first_query(self):
        ds = make_uniform(100, seed=20)
        idx = SFCrackerIndex(ds.store, ds.universe)
        assert idx.memory_bytes() == 0
