"""Unit tests for sequential and hotspot workloads."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.geometry import Box
from repro.queries import hotspot_workload, sequential_workload


class TestSequentialWorkload:
    UNIVERSE = Box((0.0,) * 3, (1000.0,) * 3)

    def test_count_and_bounds(self):
        qs = sequential_workload(self.UNIVERSE, 20, 1e-3, seed=1)
        assert len(qs) == 20
        for q in qs:
            assert np.all(np.asarray(self.UNIVERSE.lo) <= q.lo) and np.all(q.hi <= np.asarray(self.UNIVERSE.hi))

    def test_sweep_is_monotone_along_dim(self):
        qs = sequential_workload(self.UNIVERSE, 8, 1e-3, dim=0, seed=2)
        starts = [q.window.lo[0] for q in qs]
        assert starts == sorted(starts), "pre-wrap sweep must move forward"

    def test_disjoint_steps_do_not_overlap(self):
        qs = sequential_workload(self.UNIVERSE, 5, 1e-3, overlap=0.0, seed=3)
        for a, b in zip(qs, qs[1:]):
            assert a.window.hi[0] <= b.window.lo[0] + 1e-9

    def test_half_overlap_shares_half_a_side(self):
        qs = sequential_workload(self.UNIVERSE, 5, 1e-3, overlap=0.5, seed=4)
        side = qs[0].window.hi[0] - qs[0].window.lo[0]
        step = qs[1].window.lo[0] - qs[0].window.lo[0]
        assert step == pytest.approx(side / 2)

    def test_off_sweep_dims_fixed(self):
        qs = sequential_workload(self.UNIVERSE, 10, 1e-3, dim=1, seed=5)
        assert len({q.window.lo[0] for q in qs}) == 1
        assert len({q.window.lo[2] for q in qs}) == 1
        assert len({q.window.lo[1] for q in qs}) == 10

    def test_long_sweep_wraps_around(self):
        qs = sequential_workload(self.UNIVERSE, 300, 1e-3, seed=6)
        starts = [q.window.lo[0] for q in qs]
        assert min(starts) < 100.0 and max(starts) > 800.0
        assert starts != sorted(starts), "a long sweep must wrap"

    def test_rejects_bad_args(self):
        with pytest.raises(ConfigurationError):
            sequential_workload(self.UNIVERSE, 0)
        with pytest.raises(ConfigurationError):
            sequential_workload(self.UNIVERSE, 5, overlap=1.0)
        with pytest.raises(ConfigurationError):
            sequential_workload(self.UNIVERSE, 5, dim=3)


class TestHotspotWorkloads:
    """Prefix stability of hotspot traffic and the drifting generator."""

    UNIVERSE = Box((0.0,) * 3, (1000.0,) * 3)

    def test_hotspot_workload_is_prefix_stable(self):
        # Sweeping the query count must not change the earlier queries:
        # each query draws from its own (seed, k) stream.
        short = hotspot_workload(self.UNIVERSE, 25, seed=11)
        long = hotspot_workload(self.UNIVERSE, 100, seed=11)
        assert all(a.window == b.window for a, b in zip(short, long))

    def test_hotspot_workload_concentrates_in_one_region(self):
        qs = hotspot_workload(
            self.UNIVERSE, 200, hotspot_fraction=1.0, hotspot_volume=0.01,
            seed=5,
        )
        centers = np.array([(q.lo + q.hi) / 2 for q in qs])
        spans = centers.max(axis=0) - centers.min(axis=0)
        hot_side = 1000.0 * 0.01 ** (1 / 3)
        assert np.all(spans <= hot_side + 1e-9)

    def test_a_hot_region_of_the_whole_volume_is_the_universe(self):
        qs = hotspot_workload(
            self.UNIVERSE, 200, hotspot_fraction=1.0, hotspot_volume=1.0,
            seed=6,
        )
        centers = np.array([(q.lo + q.hi) / 2 for q in qs])
        assert np.all(centers >= 0.0) and np.all(centers <= 1000.0)
        # Spread over the universe, not a corner of it.
        assert np.all(centers.max(axis=0) - centers.min(axis=0) > 900.0)
