"""Unit tests for the R-Tree baseline (STR bulk load + Guttman insertion)."""

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
from repro.datasets import BoxStore, make_uniform
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


class TestDeleteCondensing:
    """Deletes re-tighten leaf MBRs and prune dead structure."""

    def _outlier_store(self, n=400, seed=21):
        rng = np.random.default_rng(seed)
        lo = rng.uniform(0, 100, size=(n, 2))
        hi = lo + rng.uniform(0, 3, size=(n, 2))
        lo[0] = [900.0, 900.0]
        hi[0] = [901.0, 901.0]
        return BoxStore(lo, hi)

    def test_root_mbr_shrinks_after_outlier_delete(self):
        index = RTreeIndex(self._outlier_store(), capacity=8)
        index.build()
        assert index.root.hi[0] > 900
        index.delete(np.array([0]))
        assert index.root.hi[0] < 200

    def test_post_delete_queries_skip_dead_space(self):
        index = RTreeIndex(self._outlier_store(), capacity=8)
        index.build()
        index.delete(np.array([0]))
        before = index.stats.objects_tested
        dead = Query(Box((880.0, 880.0), (950.0, 950.0)), seq=0)
        assert index.execute(dead).ids.size == 0
        assert index.stats.objects_tested == before

    def test_leaves_drop_dead_rows(self):
        store = self._outlier_store()
        index = RTreeIndex(store, capacity=8)
        index.build()
        victims = store.ids[store.live_rows()][:50]
        index.delete(victims)

        def live_leaf_rows(node):
            if node.is_leaf:
                return node.rows.tolist()
            return [r for c in node.children for r in live_leaf_rows(c)]

        rows = live_leaf_rows(index.root)
        assert len(rows) == store.live_count
        assert len(set(rows)) == len(rows)
        assert not np.isin(rows, np.flatnonzero(~store.live)).any()

    def test_parent_mbrs_stay_covering_after_deletes(self):
        store = self._outlier_store()
        index = RTreeIndex(store, capacity=8)
        index.build()
        rng = np.random.default_rng(5)
        live = store.ids[store.live_rows()]
        index.delete(rng.choice(live, size=150, replace=False))

        def check(node):
            if node.is_leaf:
                assert np.all(store.lo[node.rows] >= node.lo - 1e-9)
                assert np.all(store.hi[node.rows] <= node.hi + 1e-9)
                return
            for child in node.children:
                assert np.all(child.lo >= node.lo - 1e-9)
                assert np.all(child.hi <= node.hi + 1e-9)
                check(child)

        check(index.root)

    def test_deleting_everything_empties_the_tree(self):
        store = self._outlier_store(n=60)
        index = RTreeIndex(store, capacity=4)
        index.build()
        index.delete(store.ids[store.live_rows()])
        assert index.root is None
        assert index.height() == 0
        full = Query(Box((-10.0, -10.0), (1000.0, 1000.0)), seq=0)
        assert index.execute(full).ids.size == 0
        # The tree restarts from scratch on the next insert.
        new = index.insert(np.array([[1.0, 1.0]]), np.array([[2.0, 2.0]]))
        assert np.array_equal(np.sort(index.execute(full).ids), np.sort(new))

    def test_guttman_inserted_rows_condense_too(self):
        ds = make_uniform(300, seed=22)
        index = RTreeIndex(ds.store, capacity=8)
        index.build()
        new = index.insert(
            np.array([[20000.0, 20000.0, 20000.0]]),
            np.array([[20001.0, 20001.0, 20001.0]]),
        )
        assert index.root.hi[0] > 10000
        index.delete(new)
        assert index.root.hi[0] < 11000
