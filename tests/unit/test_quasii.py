"""Unit tests for the QUASII index: refinement mechanics and invariants."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import ScanIndex
from repro.core import QuasiiConfig, QuasiiIndex
from repro.datasets import BoxStore, make_neuro_like, make_uniform
from repro.errors import ConfigurationError
from repro.geometry import Box
from repro.queries import Query, clustered_workload, uniform_workload


def grid_store_2d(n_side: int = 8, extent: float = 0.4) -> BoxStore:
    """n_side x n_side lattice of small boxes in [0, n_side)^2."""
    xs, ys = np.meshgrid(np.arange(n_side), np.arange(n_side), indexing="ij")
    lo = np.stack([xs.ravel(), ys.ravel()], axis=1).astype(np.float64)
    return BoxStore(lo, lo + extent)


class TestInitialState:
    def test_starts_with_single_slice(self):
        store = grid_store_2d()
        idx = QuasiiIndex(store, QuasiiConfig(2, (8, 4)))
        assert idx.slice_counts() == [1, 0]

    def test_build_is_noop(self):
        store = grid_store_2d()
        idx = QuasiiIndex(store, QuasiiConfig(2, (8, 4)))
        before = store.ids.copy()
        idx.build()
        assert idx.is_built
        assert np.array_equal(store.ids, before)

    def test_default_config_from_store(self):
        ds = make_uniform(5_000, seed=1)
        idx = QuasiiIndex(ds.store)
        assert idx.config.ndim == 3
        assert idx.config.leaf_threshold == 60

    def test_dim_mismatch_rejected(self):
        store = grid_store_2d()
        with pytest.raises(ConfigurationError, match="3 dims, store has 2"):
            QuasiiIndex(store, QuasiiConfig(3, (10, 10, 10)))


class TestFirstQueryRefinement:
    def test_first_query_slices_three_ways_on_x(self):
        store = grid_store_2d()
        idx = QuasiiIndex(store, QuasiiConfig(2, (16, 4)))
        q = Query(Box((2.5, 2.5), (4.9, 4.9)))
        idx.execute(q)
        # Interior query window: left / middle / right x-slices exist.
        assert idx.slice_counts()[0] >= 3
        idx.validate_structure()

    def test_data_array_physically_reorganized(self):
        store = grid_store_2d()
        before = store.ids.copy()
        idx = QuasiiIndex(store, QuasiiConfig(2, (16, 4)))
        idx.execute(Query(Box((2.5, 2.5), (4.9, 4.9))))
        assert not np.array_equal(store.ids, before), "cracking must reorder"

    def test_multiset_preserved(self):
        store = grid_store_2d()
        fp = store.fingerprint()
        idx = QuasiiIndex(store, QuasiiConfig(2, (16, 4)))
        for q in uniform_workload(Box((0.0, 0.0), (8.0, 8.0)), 20, 0.05, seed=1):
            idx.execute(q)
        assert store.fingerprint() == fp

    def test_query_covering_everything(self):
        store = grid_store_2d()
        idx = QuasiiIndex(store, QuasiiConfig(2, (16, 4)))
        hits = idx.execute(Query(Box((-1.0, -1.0), (9.0, 9.0)))).ids
        assert sorted(hits.tolist()) == list(range(64))
        idx.validate_structure()

    def test_query_missing_everything(self):
        store = grid_store_2d()
        idx = QuasiiIndex(store, QuasiiConfig(2, (16, 4)))
        hits = idx.execute(Query(Box((100.0, 100.0), (101.0, 101.0)))).ids
        assert hits.size == 0


class TestLowerCoordinateAssignment:
    def test_object_straddling_cut_found(self):
        # One wide object whose lower corner is left of the query window
        # but which overlaps it — the query-extension path must find it.
        lo = np.array([[0.0, 0.0], [5.0, 0.0], [9.0, 0.0], [2.0, 0.0]])
        hi = np.array([[4.5, 1.0], [6.0, 1.0], [9.5, 1.0], [2.5, 1.0]])
        store = BoxStore(lo, hi)
        idx = QuasiiIndex(store, QuasiiConfig(2, (1, 1)))
        hits = idx.execute(Query(Box((4.0, 0.0), (5.5, 1.0)))).ids
        assert sorted(hits.tolist()) == [0, 1]
        idx.validate_structure()

    def test_repeat_after_refinement_still_correct(self):
        lo = np.array([[0.0, 0.0], [5.0, 0.0], [9.0, 0.0], [2.0, 0.0]])
        hi = np.array([[4.5, 1.0], [6.0, 1.0], [9.5, 1.0], [2.5, 1.0]])
        store = BoxStore(lo, hi)
        idx = QuasiiIndex(store, QuasiiConfig(2, (1, 1)))
        q = Query(Box((4.0, 0.0), (5.5, 1.0)))
        first = np.sort(idx.execute(q).ids)
        second = np.sort(idx.execute(q).ids)
        assert np.array_equal(first, second)

    def test_wide_objects_straddling_cuts(self):
        # Wide boxes around the query windows: the lower-side extension
        # must reach every box that starts left of a window and overlaps it.
        lo = np.array(
            [[0.0, 0.0], [3.0, 0.0], [5.2, 0.0], [9.0, 0.0], [4.9, 0.0]]
        )
        hi = np.array(
            [[5.0, 1.0], [4.0, 1.0], [5.4, 1.0], [9.5, 1.0], [8.0, 1.0]]
        )
        store = BoxStore(lo, hi)
        scan = ScanIndex(store.copy())
        index = QuasiiIndex(store, tau=1)
        for window in (
            Box((4.5, 0.0), (5.5, 1.0)),
            Box((0.0, 0.0), (0.5, 1.0)),
            Box((9.6, 0.0), (9.9, 1.0)),
        ):
            q = Query(window)
            assert np.array_equal(
                np.sort(index.execute(q).ids), np.sort(scan.execute(q).ids)
            ), f"window={window}"


class TestMatchesScan:
    def test_uniform(self):
        ds = make_uniform(2_000, seed=31)
        index = QuasiiIndex(ds.store.copy())
        scan = ScanIndex(ds.store.copy())
        for q in uniform_workload(ds.universe, 25, 1e-2, seed=32):
            assert np.array_equal(
                np.sort(index.execute(q).ids), np.sort(scan.execute(q).ids)
            )
        index.validate_structure()

    def test_clustered(self):
        ds = make_neuro_like(2_000, seed=33)
        index = QuasiiIndex(ds.store.copy())
        scan = ScanIndex(ds.store.copy())
        for q in clustered_workload(ds.universe, 2, 15, 1e-3, seed=34):
            assert np.array_equal(
                np.sort(index.execute(q).ids), np.sort(scan.execute(q).ids)
            )
        index.validate_structure()

    def test_touching_windows_on_a_lattice(self):
        # Integer corners: many boxes meet a window only at its edge, and
        # slice boxes share bounds with windows.  The expected answer is
        # a plain closed-box test, not the program's own predicate.
        rng = np.random.default_rng(37)
        lo = rng.integers(0, 40, size=(3_000, 2)).astype(np.float64)
        hi = lo + rng.integers(0, 4, size=(3_000, 2))
        index = QuasiiIndex(BoxStore(lo.copy(), hi.copy()), QuasiiConfig(2, (32, 8)))
        scan = ScanIndex(BoxStore(lo.copy(), hi.copy()))
        for _ in range(60):
            qlo = rng.integers(0, 40, size=2).astype(np.float64)
            q = Query(Box(tuple(qlo), tuple(qlo + rng.integers(0, 6, size=2))))
            expect = np.flatnonzero(
                np.all(lo <= q.window.hi, axis=1) & np.all(hi >= q.window.lo, axis=1)
            )
            assert np.array_equal(np.sort(index.execute(q).ids), expect)
            assert np.array_equal(np.sort(scan.execute(q).ids), expect)
        index.validate_structure()


class TestConvergence:
    def test_repeated_query_stops_cracking(self):
        ds = make_uniform(4_000, seed=3)
        idx = QuasiiIndex(ds.store)
        q = uniform_workload(ds.universe, 1, 1e-3, seed=4)[0]
        idx.execute(q)
        for _ in range(3):
            idx.execute(q)
        cracks_after_warmup = idx.stats.cracks
        idx.execute(q)
        assert idx.stats.cracks == cracks_after_warmup, (
            "a converged region must not be reorganized again"
        )

    def test_rows_reorganized_decreases_over_repeats(self):
        ds = make_uniform(4_000, seed=5)
        idx = QuasiiIndex(ds.store)
        q = uniform_workload(ds.universe, 1, 1e-2, seed=6)[0]
        idx.execute(q)
        first = idx.stats.rows_reorganized
        idx.execute(q)
        second = idx.stats.rows_reorganized - first
        assert second < first / 2

    def test_final_leaves_obey_tau(self):
        ds = make_uniform(4_000, seed=7)
        idx = QuasiiIndex(ds.store, tau=32)
        for q in uniform_workload(ds.universe, 30, 1e-3, seed=8):
            idx.execute(q)
        idx.validate_structure()  # includes the tau check on final slices


class TestStatsAndIntrospection:
    def test_counters_move(self):
        ds = make_uniform(2_000, seed=9)
        idx = QuasiiIndex(ds.store)
        q = uniform_workload(ds.universe, 1, 1e-2, seed=10)[0]
        idx.execute(q)
        assert idx.stats.queries == 1
        assert idx.stats.cracks > 0
        assert idx.stats.rows_reorganized > 0
        assert idx.stats.objects_tested > 0

    def test_memory_grows_with_refinement(self):
        ds = make_uniform(2_000, seed=11)
        idx = QuasiiIndex(ds.store)
        before = idx.memory_bytes()
        for q in uniform_workload(ds.universe, 10, 1e-2, seed=12):
            idx.execute(q)
        assert idx.memory_bytes() > before

    def test_slice_counts_levels(self):
        ds = make_uniform(2_000, seed=13)
        idx = QuasiiIndex(ds.store)
        for q in uniform_workload(ds.universe, 5, 1e-2, seed=14):
            idx.execute(q)
        counts = idx.slice_counts()
        assert len(counts) == 3
        assert counts[0] >= 1


class TestDegenerateData:
    def test_all_identical_lower_coords(self):
        # Lower coordinates identical in x: x-level cannot discriminate;
        # the index must still answer correctly via deeper levels.
        n = 40
        lo = np.zeros((n, 2))
        lo[:, 1] = np.arange(n, dtype=np.float64)
        store = BoxStore(lo, lo + 0.5)
        idx = QuasiiIndex(store, QuasiiConfig(2, (8, 4)))
        hits = idx.execute(Query(Box((0.0, 10.0), (0.5, 20.0)))).ids
        assert sorted(hits.tolist()) == list(range(10, 21))
        idx.validate_structure()

    def test_single_object(self):
        store = BoxStore(np.array([[1.0, 1.0]]), np.array([[2.0, 2.0]]))
        idx = QuasiiIndex(store, QuasiiConfig(2, (4, 2)))
        assert idx.execute(Query(Box((0.0, 0.0), (3.0, 3.0)))).ids.tolist() == [0]
        assert idx.execute(Query(Box((5.0, 5.0), (6.0, 6.0)))).ids.size == 0

    def test_duplicate_objects(self):
        lo = np.tile(np.array([[3.0, 3.0]]), (100, 1))
        store = BoxStore(lo, lo + 1.0)
        idx = QuasiiIndex(store, QuasiiConfig(2, (8, 4)))
        hits = idx.execute(Query(Box((2.0, 2.0), (5.0, 5.0)))).ids
        assert hits.size == 100
        idx.validate_structure()

    @pytest.mark.parametrize(
        "window",
        [
            ((4.0, 4.0), (4.0, 4.0)),  # a point on a lattice corner
            ((-np.inf, 2.0), (3.0, 5.0)),  # no lower bound on x
            ((3.0, 2.0), (np.inf, 5.0)),  # no upper bound on x
            ((-np.inf, -np.inf), (np.inf, np.inf)),  # everything
            ((np.inf, 0.0), (np.inf, 9.0)),  # past every box
        ],
        ids=["point", "open-below", "open-above", "all", "beyond"],
    )
    def test_point_and_unbounded_windows(self, window):
        # Crack bounds at the window's edges: an extended lower bound
        # equal to the point, or an infinite one, must crack nothing wrong.
        store = grid_store_2d(extent=1.0)
        lo, hi = store.lo.copy(), store.hi.copy()
        idx = QuasiiIndex(store, QuasiiConfig(2, (4, 2)))
        q = Query(Box(*window))
        expect = np.flatnonzero(
            np.all(lo <= q.window.hi, axis=1) & np.all(hi >= q.window.lo, axis=1)
        )
        assert np.array_equal(np.sort(idx.execute(q).ids), expect)
        idx.validate_structure()

    @pytest.mark.parametrize(
        "keys",
        [
            (1.0e308, 1.2e308, 1.5e308, 1.7e308),
            (-1.7e308, -1.5e308, -1.2e308, -1.0e308),
            (-1.7e308, -1.0e308, 1.0e308, 1.7e308),
        ],
        ids=["near-max", "near-min", "both-extremes"],
    )
    def test_keys_near_the_float_limits_split(self, keys):
        # The sum of two keys near the float maximum overflows: the
        # artificial midpoint must still fall inside the key range, or the
        # crack leaves one side empty and refinement recurses forever.
        lo = np.array(keys).reshape(-1, 1)
        store = BoxStore(lo, lo)
        idx = QuasiiIndex(store, QuasiiConfig(1, (1,)))
        window = Query(Box((-1.79e308,), (1.79e308,)))
        assert sorted(idx.execute(window).ids.tolist()) == [0, 1, 2, 3]
        assert idx.slice_counts() == [4]
        idx.validate_structure()
