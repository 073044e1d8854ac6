"""Unit tests for the window query spec and the workload generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, QueryError
from repro.geometry import Box
from repro.queries import (
    Query,
    clustered_workload,
    side_for_volume_fraction,
    uniform_workload,
)


class TestWindowQuery:
    def test_fields(self):
        q = Query(Box((0.0, 0.0), (1.0, 2.0)), seq=3)
        assert q.seq == 3
        assert q.ndim == 2
        assert np.array_equal(q.lo, [0.0, 0.0])
        assert np.array_equal(q.hi, [1.0, 2.0])

    def test_negative_seq_rejected(self):
        with pytest.raises(QueryError):
            Query(Box.unit(2), seq=-1)


class TestSideForVolumeFraction:
    def test_cube_root_in_3d(self):
        universe = Box((0.0,) * 3, (100.0,) * 3)
        side = side_for_volume_fraction(universe, 0.001)
        assert side == pytest.approx(10.0)

    def test_full_fraction_gives_universe_side(self):
        universe = Box((0.0,) * 2, (50.0,) * 2)
        assert side_for_volume_fraction(universe, 1.0) == pytest.approx(50.0)

    def test_zero_fraction_is_point_query(self):
        assert side_for_volume_fraction(Box.unit(3), 0.0) == 0.0

    def test_rejects_negative_and_over_one(self):
        universe = Box.unit(3)
        with pytest.raises(QueryError):
            side_for_volume_fraction(universe, -0.1)
        with pytest.raises(QueryError):
            side_for_volume_fraction(universe, 1.5)


class TestUniformWorkload:
    def test_count_and_seq(self):
        universe = Box((0.0,) * 3, (100.0,) * 3)
        qs = uniform_workload(universe, 25, 1e-3, seed=1)
        assert len(qs) == 25
        assert [q.seq for q in qs] == list(range(25))

    def test_windows_inside_universe(self):
        universe = Box((0.0,) * 3, (100.0,) * 3)
        for q in uniform_workload(universe, 50, 1e-2, seed=2):
            assert universe.contains_box(q.window)

    def test_volume_close_to_requested(self):
        universe = Box((0.0,) * 3, (1000.0,) * 3)
        qs = uniform_workload(universe, 100, 1e-3, seed=3)
        fracs = [q.window.volume / universe.volume for q in qs]
        # Boundary clipping can shrink some windows, never grow them.
        assert max(fracs) <= 1e-3 + 1e-12
        assert np.median(fracs) == pytest.approx(1e-3, rel=0.05)

    def test_deterministic(self):
        universe = Box.unit(3)
        a = uniform_workload(universe, 10, 1e-2, seed=9)
        b = uniform_workload(universe, 10, 1e-2, seed=9)
        assert all(x.window == y.window for x, y in zip(a, b))

    def test_rejects_zero_queries(self):
        with pytest.raises(ConfigurationError):
            uniform_workload(Box.unit(3), 0, 1e-2)


class TestClusteredWorkload:
    def test_shape(self):
        universe = Box((0.0,) * 3, (1000.0,) * 3)
        qs = clustered_workload(universe, 5, 100, 1e-4, seed=1)
        assert len(qs) == 500
        assert [q.seq for q in qs] == list(range(500))

    def test_queries_cluster_spatially(self):
        universe = Box((0.0,) * 3, (1000.0,) * 3)
        qs = clustered_workload(universe, 4, 50, 1e-4, sigma_in_sides=1.0, seed=2)
        centers = np.array([q.window.center for q in qs])
        # Within-cluster spread must be far below the between-cluster spread.
        for c in range(4):
            block = centers[c * 50 : (c + 1) * 50]
            spread = np.linalg.norm(block - block.mean(axis=0), axis=1).mean()
            assert spread < 100.0, "cluster queries should be spatially close"
        global_spread = np.linalg.norm(centers - centers.mean(axis=0), axis=1).mean()
        assert global_spread > 2 * spread

    def test_windows_inside_universe(self):
        universe = Box((0.0,) * 3, (500.0,) * 3)
        for q in clustered_workload(universe, 3, 20, 1e-3, seed=3):
            assert universe.contains_box(q.window)

    def test_rejects_bad_shape(self):
        with pytest.raises(ConfigurationError):
            clustered_workload(Box.unit(3), 0, 10)
        with pytest.raises(ConfigurationError):
            clustered_workload(Box.unit(3), 2, 0)
        with pytest.raises(ConfigurationError):
            clustered_workload(Box.unit(3), 2, 2, sigma_in_sides=-1.0)


class TestSelectivitySweep:
    def test_shared_centers(self):
        universe = Box((0.0,) * 3, (100.0,) * 3)
        # Figure 12 sweeps the volume fraction under one seed, which
        # isolates selectivity from placement only if centers repeat.
        small = uniform_workload(universe, 20, 1e-4, seed=5)
        large = uniform_workload(universe, 20, 1e-2, seed=5)
        compared = 0
        for a, b in zip(small, large):
            # Clipping at the universe boundary legitimately shifts centers;
            # compare only interior windows.
            touches = any(l <= 0.0 for l in b.window.lo) or any(
                h >= 100.0 for h in b.window.hi
            )
            if not touches:
                assert np.allclose(a.window.center, b.window.center, atol=1e-9)
                compared += 1
        assert compared > 0, "need at least one interior window to compare"
