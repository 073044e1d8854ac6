"""Unit tests for dataset generators (paper Section 6.1 distributions)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import make_neuro_like, make_uniform
from repro.errors import ConfigurationError


class TestUniform:
    def test_count_and_dims(self):
        ds = make_uniform(500, ndim=3, seed=1)
        assert ds.n == 500 and ds.ndim == 3
        assert ds.name == "uniform-500"

    def test_objects_inside_universe(self):
        ds = make_uniform(1000, seed=2)
        uni_lo = np.asarray(ds.universe.lo)
        uni_hi = np.asarray(ds.universe.hi)
        assert np.all(ds.store.lo >= uni_lo) and np.all(ds.store.hi <= uni_hi)

    def test_side_distribution_matches_paper(self):
        # 99% small sides in [1,10], 1% large in [10,1000].
        ds = make_uniform(20_000, seed=3)
        sides = ds.store.hi - ds.store.lo
        max_side = sides.max(axis=1)
        large = (max_side > 10.0 + 1e-9).mean()
        assert 0.005 <= large <= 0.02, f"expected ~1% large objects, got {large:.3%}"
        # Clipping can shrink a side, never grow it past the draw range.
        assert max_side.max() <= 1000.0 + 1e-9

    def test_deterministic_per_seed(self):
        a = make_uniform(100, seed=5)
        b = make_uniform(100, seed=5)
        assert np.array_equal(a.store.lo, b.store.lo)
        c = make_uniform(100, seed=6)
        assert not np.array_equal(a.store.lo, c.store.lo)

    def test_zero_large_fraction(self):
        ds = make_uniform(1000, large_fraction=0.0, seed=1)
        sides = ds.store.hi - ds.store.lo
        assert sides.max() <= 10.0 + 1e-9

    def test_rejects_bad_args(self):
        with pytest.raises(ConfigurationError):
            make_uniform(0)
        with pytest.raises(ConfigurationError):
            make_uniform(10, ndim=0)
        with pytest.raises(ConfigurationError):
            make_uniform(10, universe_side=-1.0)
        with pytest.raises(ConfigurationError):
            make_uniform(10, large_fraction=1.5)


class TestNeuroLike:
    def test_count(self):
        ds = make_neuro_like(800, seed=1)
        assert ds.n == 800

    def test_skew_is_present(self):
        # Density contrast: split the universe into 8^3 cells and compare
        # the most and least populated non-empty cells.
        ds = make_neuro_like(20_000, seed=9)
        centers = (ds.store.lo + ds.store.hi) / 2
        side = ds.universe.hi[0] / 8
        cells = np.clip((centers // side).astype(int), 0, 7)
        flat = cells[:, 0] * 64 + cells[:, 1] * 8 + cells[:, 2]
        counts = np.bincount(flat, minlength=512)
        uniform_expected = 20_000 / 512
        assert counts.max() > 10 * uniform_expected, "dataset should be skewed"

    def test_skew_exceeds_uniform_dataset(self):
        neuro = make_neuro_like(10_000, seed=4)
        uni = make_uniform(10_000, seed=4)

        def peak_density(ds):
            centers = (ds.store.lo + ds.store.hi) / 2
            side = ds.universe.hi[0] / 8
            cells = np.clip((centers // side).astype(int), 0, 7)
            flat = cells[:, 0] * 64 + cells[:, 1] * 8 + cells[:, 2]
            return np.bincount(flat, minlength=512).max()

        assert peak_density(neuro) > 3 * peak_density(uni)

    def test_objects_are_small_and_elongated(self):
        ds = make_neuro_like(5_000, seed=2)
        sides = ds.store.hi - ds.store.lo
        # Max side bounded by the segment length cap.
        assert sides.max() <= 30.0 + 1e-9
        # Elongation: longest side typically much larger than shortest.
        ratio = sides.max(axis=1) / np.maximum(sides.min(axis=1), 1e-9)
        assert np.median(ratio) > 2.0

    def test_inside_universe(self):
        ds = make_neuro_like(2_000, seed=3)
        assert np.all(ds.store.lo >= np.asarray(ds.universe.lo))
        assert np.all(ds.store.hi <= np.asarray(ds.universe.hi))

    def test_rejects_bad_args(self):
        with pytest.raises(ConfigurationError):
            make_neuro_like(100, n_clusters=0)
        with pytest.raises(ConfigurationError):
            make_neuro_like(100, background_fraction=1.0)
        with pytest.raises(ConfigurationError):
            make_neuro_like(100, long_fraction=1.5)

    def test_long_tail_fraction(self):
        ds = make_neuro_like(
            10_000, long_fraction=0.01, long_length=(150.0, 400.0), seed=5
        )
        sides = ds.store.hi - ds.store.lo
        long = (sides.max(axis=1) > 60.0).mean()
        assert 0.005 <= long <= 0.02, "1% of objects should be long"
        # The tail drives the max extent far above the typical extent.
        assert sides.max() > 100.0
        assert np.median(sides.max(axis=1)) < 35.0

    def test_no_long_tail_by_default(self):
        ds = make_neuro_like(5_000, seed=6)
        sides = ds.store.hi - ds.store.lo
        assert sides.max() <= 30.0 + 1e-9


class TestOtherGenerators:
    def test_2d_generation(self):
        ds = make_uniform(200, ndim=2, seed=1)
        assert ds.ndim == 2
        assert ds.universe.ndim == 2
