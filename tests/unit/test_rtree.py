"""Unit tests for the R-Tree baseline (STR bulk load, Guttman-insertion build)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.baselines.rtree import (
    GuttmanRTree,
    RTreeIndex,
    build_str_rtree,
    str_pack,
)
from repro.datasets import make_uniform
from repro.errors import ConfigurationError, QueryError
from repro.geometry import Box
from repro.queries import Query, uniform_workload


class TestStrPack:
    def test_runs_cover_all_rows_once(self):
        ds = make_uniform(1_000, seed=1)
        runs = str_pack(ds.store.lo, ds.store.hi, 60)
        all_rows = np.concatenate(runs)
        assert sorted(all_rows.tolist()) == list(range(1_000))

    def test_run_sizes_bounded(self):
        ds = make_uniform(1_000, seed=2)
        runs = str_pack(ds.store.lo, ds.store.hi, 60)
        assert all(r.size <= 60 for r in runs)
        assert len(runs) >= math.ceil(1_000 / 60)

    def test_small_input_single_run(self):
        ds = make_uniform(10, seed=3)
        runs = str_pack(ds.store.lo, ds.store.hi, 60)
        assert len(runs) == 1

    def test_rejects_zero_capacity(self):
        ds = make_uniform(10, seed=3)
        with pytest.raises(ConfigurationError):
            str_pack(ds.store.lo, ds.store.hi, 0)

    def test_spatial_locality_of_runs(self):
        # STR tiles should have much smaller MBR volume than random groups.
        ds = make_uniform(2_000, seed=4)
        runs = str_pack(ds.store.lo, ds.store.hi, 50)

        def total_volume(groups):
            return sum(
                float(
                    np.prod(
                        ds.store.hi[g].max(axis=0) - ds.store.lo[g].min(axis=0)
                    )
                )
                for g in groups
            )

        rng = np.random.default_rng(0)
        perm = rng.permutation(2_000)
        random_groups = [perm[i : i + 50] for i in range(0, 2_000, 50)]
        assert total_volume(runs) < total_volume(random_groups) / 10


class TestStrTree:
    def test_structure(self):
        ds = make_uniform(5_000, seed=5)
        root = build_str_rtree(ds.store, capacity=60)
        assert not root.is_leaf
        assert root.height() >= 2

    def test_root_mbr_covers_dataset(self):
        ds = make_uniform(1_000, seed=6)
        root = build_str_rtree(ds.store, capacity=60)
        bounds = ds.store.bounds()
        assert np.allclose(root.lo, bounds.lo)
        assert np.allclose(root.hi, bounds.hi)

    def test_parent_mbrs_cover_children(self):
        ds = make_uniform(2_000, seed=7)
        root = build_str_rtree(ds.store, capacity=30)
        stack = [root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                assert np.all(ds.store.lo[node.rows] >= node.lo - 1e-12)
                assert np.all(ds.store.hi[node.rows] <= node.hi + 1e-12)
            else:
                for child in node.children:
                    assert np.all(child.lo >= node.lo - 1e-12)
                    assert np.all(child.hi <= node.hi + 1e-12)
                    stack.append(child)

    def test_fanout_bounded(self):
        ds = make_uniform(3_000, seed=8)
        root = build_str_rtree(ds.store, capacity=25)
        stack = [root]
        while stack:
            node = stack.pop()
            assert node.fanout <= 25
            if not node.is_leaf:
                stack.extend(node.children)

    def test_leaf_count(self):
        # Slab rounding makes STR produce slightly more than ceil(n/c)
        # leaves (3 x 2 x 2 = 12 here), never fewer and never tiny shards.
        ds = make_uniform(600, seed=9)
        root = build_str_rtree(ds.store, capacity=60)
        leaves = 0
        stack = [root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                leaves += 1
            else:
                stack.extend(node.children)
        assert math.ceil(600 / 60) <= leaves <= 2 * math.ceil(600 / 60)


class TestRTreeIndex:
    def test_query_before_build_raises(self):
        ds = make_uniform(100, seed=10)
        idx = RTreeIndex(ds.store)
        with pytest.raises(QueryError):
            idx.execute(Query(Box.unit(3)))

    def test_build_idempotent(self):
        ds = make_uniform(100, seed=10)
        idx = RTreeIndex(ds.store)
        idx.build()
        root = idx.root
        idx.build()
        assert idx.root is root

    def test_rejects_unknown_method(self):
        ds = make_uniform(10, seed=1)
        with pytest.raises(ConfigurationError):
            RTreeIndex(ds.store, method="bogus")

    def test_rejects_tiny_capacity(self):
        ds = make_uniform(10, seed=1)
        with pytest.raises(ConfigurationError):
            RTreeIndex(ds.store, capacity=1)

    def test_counts_objects_tested(self):
        ds = make_uniform(1_000, seed=11)
        idx = RTreeIndex(ds.store)
        idx.build()
        q = uniform_workload(ds.universe, 1, 1e-2, seed=12)[0]
        idx.execute(q)
        assert 0 < idx.stats.objects_tested <= 1_000
        assert idx.stats.nodes_visited >= 1

    def test_memory_accounting(self):
        ds = make_uniform(500, seed=13)
        idx = RTreeIndex(ds.store)
        assert idx.memory_bytes() == 0
        idx.build()
        assert idx.memory_bytes() > 0


class TestGuttman:
    def test_insertion_produces_valid_tree(self):
        ds = make_uniform(400, seed=14)
        tree = GuttmanRTree(ds.store, capacity=16)
        root = tree.insert_all()
        # Every row present exactly once.
        rows = []
        stack = [root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                rows.extend(node.rows.tolist())
                assert node.rows.size <= 16
            else:
                assert len(node.children) <= 16
                for child in node.children:
                    assert np.all(child.lo >= node.lo - 1e-12)
                    assert np.all(child.hi <= node.hi + 1e-12)
                    stack.append(child)
        assert sorted(rows) == list(range(400))

    def test_insertion_keeps_every_leaf_at_one_depth(self):
        # Splits propagate upward and only the root grows a level, so a
        # tree built by insertion stays balanced.
        ds = make_uniform(600, seed=18)
        root = GuttmanRTree(ds.store, capacity=8).insert_all()
        depths = set()
        stack = [(root, 1)]
        while stack:
            node, depth = stack.pop()
            if node.is_leaf:
                depths.add(depth)
            else:
                stack.extend((child, depth + 1) for child in node.children)
        assert depths == {root.height()}
        assert root.height() >= 3

    def test_capacity_validation(self):
        ds = make_uniform(10, seed=1)
        with pytest.raises(ConfigurationError):
            GuttmanRTree(ds.store, capacity=1)

    def test_guttman_vs_str_same_results(self):
        ds = make_uniform(800, seed=15)
        a = RTreeIndex(ds.store, capacity=20, method="str")
        b = RTreeIndex(ds.store, capacity=20, method="guttman")
        a.build()
        b.build()
        for q in uniform_workload(ds.universe, 20, 1e-2, seed=16):
            assert np.array_equal(np.sort(a.execute(q).ids), np.sort(b.execute(q).ids))

    def test_str_builds_faster_than_guttman(self):
        # The paper's stated reason for bulk loading: it "decreases
        # pre-processing time compared to the R-Tree built by inserting
        # one object at a time" (Section 6.1).  The gap is orders of
        # magnitude, so a direct comparison is safe.
        import time

        ds = make_uniform(1_500, seed=17)
        a = RTreeIndex(ds.store, capacity=30, method="str")
        b = RTreeIndex(ds.store, capacity=30, method="guttman")
        t0 = time.perf_counter()
        a.build()
        t_str = time.perf_counter() - t0
        t0 = time.perf_counter()
        b.build()
        t_guttman = time.perf_counter() - t0
        assert t_str < t_guttman

