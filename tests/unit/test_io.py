"""Unit tests for dataset persistence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import load_dataset, make_uniform, save_dataset
from repro.errors import DatasetError, GeometryError


class TestRoundTrip:
    def test_round_trip_preserves_everything(self, tmp_path):
        ds = make_uniform(200, seed=11)
        path = save_dataset(ds, tmp_path / "data")
        assert path.suffix == ".npz"
        loaded = load_dataset(path)
        assert np.array_equal(loaded.store.lo, ds.store.lo)
        assert np.array_equal(loaded.store.hi, ds.store.hi)
        assert np.array_equal(loaded.store.ids, ds.store.ids)
        assert loaded.universe == ds.universe
        assert loaded.name == ds.name
        assert loaded.seed == ds.seed

    def test_round_trip_after_permutation(self, tmp_path):
        ds = make_uniform(100, seed=12)
        ds.store.apply_order(np.random.default_rng(0).permutation(100))
        path = save_dataset(ds, tmp_path / "permuted.npz")
        loaded = load_dataset(path)
        assert np.array_equal(loaded.store.ids, ds.store.ids)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="not found"):
            load_dataset(tmp_path / "nope.npz")

    def test_foreign_archive_rejected(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, something=np.arange(3))
        with pytest.raises(DatasetError, match="not a repro dataset"):
            load_dataset(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_corners_rejected(self, tmp_path, bad):
        path = save_dataset(make_uniform(50, seed=13), tmp_path / "data")
        with np.load(path) as archive:
            fields = dict(archive)
        fields["lo"][7, 1] = bad
        np.savez(path, **fields)
        with pytest.raises(GeometryError, match="corners must be finite"):
            load_dataset(path)
