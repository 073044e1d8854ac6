"""Unit tests for the R-Tree baseline (STR bulk load, Guttman-insertion build)."""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from repro.baselines.rtree import (
    GuttmanRTree,
    RTreeIndex,
    RTreeNode,
    build_str_rtree,
    str_pack,
)
from repro.datasets import BoxStore, make_neuro_like, make_uniform
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


def _tree_digest(root) -> str:
    """sha256 over every node's MBB and every leaf's rows, depth first."""
    digest = hashlib.sha256()
    stack = [root]
    while stack:
        node = stack.pop()
        digest.update(node.lo.tobytes())
        digest.update(node.hi.tobytes())
        if node.is_leaf:
            digest.update(node.rows.tobytes())
        else:
            stack.extend(reversed(node.children))
    return digest.hexdigest()


def _points(n: int, ndim: int, seed: int) -> BoxStore:
    """``n`` zero-extent boxes, uniform over the ``10,000^ndim`` universe."""
    pts = np.random.default_rng(seed).uniform(0.0, 10_000.0, size=(n, ndim))
    return BoxStore(pts, pts.copy())


#: Trees recorded with the per-child / per-entry Python loops that
#: ChooseLeaf and PickSeeds ran before they were vectorised: the
#: vectorised build must reproduce them bit for bit, tie-breaks
#: included (the point set ties on volume everywhere).
RECORDED_TREES = {
    "uniform-3d-c8": (
        lambda: make_uniform(2_000, seed=41).store, 8,
        "1da7cb05cd4c3e1f2606e375b9c90b5aeeddbe18f0a0d9da43d900f771b342de",
    ),
    "neuro-3d-c16": (
        lambda: make_neuro_like(2_000, seed=42).store, 16,
        "2685522b660907ae44ae5c819c1d594a69ccf21357c2f12ba0242fdcb3481561",
    ),
    "points-2d-c6": (
        lambda: _points(2_000, ndim=2, seed=43), 6,
        "c61dab3e9b5d957139a3a76e4104224437262985cb26874788b34af17e6ebc73",
    ),
}


def _reference_partition(lo, hi, min_fill) -> list[bool]:
    """Guttman's quadratic split, one entry and one pair at a time.

    Returns group-1 membership.  PickSeeds scans pairs ``i < j`` in
    order and keeps the first of equal waste; PickNext the first entry
    of the greatest preference difference.
    """
    m = lo.shape[0]

    def vol(a, b):
        return float(np.prod(b - a))

    seeds, worst = None, None
    for i in range(m):
        for j in range(i + 1, m):
            waste = (
                vol(np.minimum(lo[i], lo[j]), np.maximum(hi[i], hi[j]))
                - vol(lo[i], hi[i])
                - vol(lo[j], hi[j])
            )
            if worst is None or waste > worst:
                seeds, worst = (i, j), waste
    group = {seeds[0]: True, seeds[1]: False}
    box = {
        True: (lo[seeds[0]].copy(), hi[seeds[0]].copy()),
        False: (lo[seeds[1]].copy(), hi[seeds[1]].copy()),
    }
    while len(group) < m:
        left = [e for e in range(m) if e not in group]
        counts = {g: sum(1 for v in group.values() if v == g) for g in (True, False)}
        short = [g for g in (True, False) if counts[g] + len(left) <= min_fill]
        if short:
            group.update({e: short[0] for e in left})
            break
        pick, best = None, None
        for e in left:
            d = {
                g: vol(np.minimum(b[0], lo[e]), np.maximum(b[1], hi[e])) - vol(*b)
                for g, b in box.items()
            }
            if best is None or abs(d[True] - d[False]) > best[0]:
                pick, best = e, (abs(d[True] - d[False]), d)
        d = best[1]
        to_g1 = d[True] < d[False] or (
            d[True] == d[False] and vol(*box[True]) <= vol(*box[False])
        )
        group[pick] = to_g1
        b = box[to_g1]
        box[to_g1] = (np.minimum(b[0], lo[pick]), np.maximum(b[1], hi[pick]))
    return [group[e] for e in range(m)]


class TestGuttman:
    @pytest.mark.parametrize("case", sorted(RECORDED_TREES))
    def test_insertion_builds_the_recorded_tree(self, case):
        make, capacity, want = RECORDED_TREES[case]
        root = GuttmanRTree(make(), capacity=capacity).insert_all()
        assert _tree_digest(root) == want

    # (leaf A, leaf B) MBBs and the box inserted under their parent, with
    # the leaf ChooseLeaf must pick: least enlargement, then least
    # volume, then the first child.
    CHOOSE_LEAF = {
        "enlargement": (((0, 0), (10, 10)), ((20, 20), (21, 21)), ((5, 5), (6, 6)), 0),
        "volume": (((0, 0), (10, 10)), ((4, 4), (7, 7)), ((5, 5), (6, 6)), 1),
        "order": (((0, 0), (10, 10)), ((0, 0), (10, 10)), ((5, 5), (6, 6)), 0),
    }

    @pytest.mark.parametrize("rule", sorted(CHOOSE_LEAF))
    def test_choose_leaf_rule(self, rule):
        *boxes, want = self.CHOOSE_LEAF[rule]
        lo = np.array([b[0] for b in boxes], dtype=np.float64)
        hi = np.array([b[1] for b in boxes], dtype=np.float64)
        tree = GuttmanRTree(BoxStore(lo, hi), capacity=4)
        leaves = [
            RTreeNode(lo[i].copy(), hi[i].copy(), rows=np.array([i])) for i in (0, 1)
        ]
        tree._root = RTreeNode(lo[:2].min(axis=0), hi[:2].max(axis=0), children=leaves)
        tree.insert(2)
        assert [leaf.rows.tolist() for leaf in leaves] == [
            [i] + [2] * (i == want) for i in (0, 1)
        ]

    def test_pick_seeds_takes_the_pair_wasting_the_most_area(self):
        # The two far corners waste the most if grouped together.
        lo = np.array([[0.0, 0.0], [4.0, 4.0], [9.0, 9.0], [5.0, 4.0]])
        tree = GuttmanRTree(BoxStore(lo, lo + 1.0), capacity=3)
        in_g1, in_g2 = tree._quadratic_partition(lo, lo + 1.0)
        assert in_g1[0] and in_g2[2]

    def test_pick_seeds_takes_the_first_pair_of_equal_waste(self):
        # Entries 0 and 2 are the same box, so (0, 1) and (1, 2) waste
        # the same area; the row-major first pair seeds the split.
        lo = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 0.0], [5.0, 0.0]])
        tree = GuttmanRTree(BoxStore(lo, lo + 1.0), capacity=3)
        in_g1, in_g2 = tree._quadratic_partition(lo, lo + 1.0)
        assert in_g1[0] and in_g2[1]
        assert in_g1[2]  # the duplicate joins its twin's group

    # Random boxes on an integer lattice (exact volumes, frequent ties):
    # (ndim, entries per node, seed).
    LATTICES = {
        "2d-4": (2, 4, 51),
        "2d-12": (2, 12, 52),
        "3d-8": (3, 8, 53),
        "3d-30": (3, 30, 54),
    }

    @staticmethod
    def _lattice_boxes(rng, n, ndim):
        lo = rng.integers(0, 6, size=(n, ndim)).astype(np.float64)
        return lo, lo + rng.integers(0, 4, size=(n, ndim))

    @pytest.mark.parametrize("case", sorted(LATTICES))
    def test_choose_leaf_matches_the_per_child_loop(self, case):
        ndim, k, seed = self.LATTICES[case]
        rng = np.random.default_rng(seed)
        for _ in range(40):
            lo, hi = self._lattice_boxes(rng, k + 1, ndim)
            # The per-child scan: least enlargement, then least volume,
            # then the first child.
            best, key = None, None
            for i in range(k):
                vol = float(np.prod(hi[i] - lo[i]))
                grown = float(
                    np.prod(np.maximum(hi[i], hi[k]) - np.minimum(lo[i], lo[k]))
                )
                if key is None or (grown - vol, vol) < key:
                    best, key = i, (grown - vol, vol)
            tree = GuttmanRTree(BoxStore(lo, hi), capacity=k + 1)
            leaves = [
                RTreeNode(lo[i].copy(), hi[i].copy(), rows=np.array([i]))
                for i in range(k)
            ]
            tree._root = RTreeNode(
                lo[:k].min(axis=0), hi[:k].max(axis=0), children=leaves
            )
            tree.insert(k)
            assert [i for i, leaf in enumerate(leaves) if k in leaf.rows] == [best]

    @pytest.mark.parametrize("case", sorted(LATTICES))
    def test_quadratic_split_matches_the_per_pair_loop(self, case):
        ndim, m, seed = self.LATTICES[case]
        m += 1  # one entry past capacity, as a split sees it
        rng = np.random.default_rng(seed)
        for _ in range(20):
            lo, hi = self._lattice_boxes(rng, m, ndim)
            tree = GuttmanRTree(BoxStore(lo, hi), capacity=m - 1)
            in_g1, in_g2 = tree._quadratic_partition(lo, hi)
            want = _reference_partition(lo, hi, tree._min_fill)
            assert in_g1.tolist() == want
            assert in_g2.tolist() == [not g for g in want]

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

