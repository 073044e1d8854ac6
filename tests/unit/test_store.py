"""Unit tests for BoxStore — the shared data array."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import BoxStore
from repro.errors import DatasetError, GeometryError
from repro.geometry import Box


@pytest.fixture
def store():
    lo = np.array([[0.0, 0.0], [2.0, 2.0], [4.0, 1.0], [6.0, 6.0]])
    hi = np.array([[1.0, 1.0], [3.0, 3.0], [5.0, 2.0], [7.0, 7.0]])
    return BoxStore(lo, hi)


class TestConstruction:
    def test_default_ids(self, store):
        assert np.array_equal(store.ids, np.arange(4))

    def test_explicit_ids(self):
        lo = np.zeros((2, 2))
        hi = np.ones((2, 2))
        s = BoxStore(lo, hi, np.array([7, 9]))
        assert s.id_at(1) == 9

    def test_rejects_inverted(self):
        with pytest.raises(GeometryError, match="row 1"):
            BoxStore(np.array([[0.0], [5.0]]), np.array([[1.0], [4.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("corner", ["lo", "hi"])
    def test_rejects_non_finite_corners(self, bad, corner):
        # The same gate as append(): a NaN corner would make max_extent
        # NaN, and QUASII's extended windows would then match nothing.
        lo, hi = np.zeros((3, 2)), np.ones((3, 2))
        {"lo": lo, "hi": hi}[corner][1, 0] = bad
        with pytest.raises(GeometryError, match="box corners must be finite"):
            BoxStore(lo, hi)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DatasetError):
            BoxStore(np.zeros((2, 2)), np.zeros((3, 2)))

    def test_rejects_bad_ids(self):
        with pytest.raises(DatasetError):
            BoxStore(np.zeros((2, 2)), np.ones((2, 2)), np.array([1]))

    def test_rejects_1d_input(self):
        with pytest.raises(DatasetError):
            BoxStore(np.zeros(3), np.ones(3))

    def test_aliased_corners_are_decoupled(self):
        # BoxStore(pts, pts) must not leave lo and hi sharing one buffer:
        # apply_order_range would otherwise permute the shared array twice.
        pts = np.array([[3.0], [1.0], [2.0]])
        store = BoxStore(pts, pts)
        store.apply_order_range(0, store.n, np.array([1, 2, 0]))
        assert store.lo[:, 0].tolist() == [1.0, 2.0, 3.0]
        assert store.hi[:, 0].tolist() == [1.0, 2.0, 3.0]
        assert not np.shares_memory(store.lo, store.hi)

    def test_copy_is_independent(self, store):
        dup = store.copy()
        dup.apply_order_range(0, dup.n, np.array([3, 2, 1, 0]))
        assert store.id_at(0) == 0
        assert dup.id_at(0) == 3


class TestMeasures:
    def test_len_and_shape(self, store):
        assert len(store) == 4
        assert store.n == 4
        assert store.ndim == 2

    def test_bounds(self, store):
        assert store.bounds() == Box((0.0, 0.0), (7.0, 7.0))

    def test_max_extent(self, store):
        assert np.allclose(store.max_extent, [1.0, 1.0])

    def test_max_extent_cached_and_stable_under_permutation(self, store):
        before = store.max_extent.copy()
        store.apply_order_range(0, store.n, np.array([2, 0, 3, 1]))
        assert np.array_equal(store.max_extent, before)


class TestReordering:
    def test_apply_order_range_moves_ids_and_coords(self, store):
        store.apply_order_range(1, 3, np.array([1, 0]))
        assert store.ids.tolist() == [0, 2, 1, 3]
        assert store.lo[1].tolist() == [4.0, 1.0]
        assert store.hi[1].tolist() == [5.0, 2.0]

    def test_apply_order_invalid_range(self, store):
        with pytest.raises(DatasetError):
            store.apply_order_range(3, 99, np.arange(96))

    def test_apply_order_wrong_length(self, store):
        with pytest.raises(DatasetError):
            store.apply_order_range(0, 3, np.array([0, 1]))

    def test_apply_order_rejects_a_boolean_mask(self, store):
        # Right shape, wrong kind: as indices a mask is rows 0 and 1 over
        # the whole range, which would change the multiset of rows.
        fp, ids = store.fingerprint(), store.ids.tolist()
        with pytest.raises(DatasetError, match="integers"):
            store.apply_order_range(0, 3, np.array([True, False, False]))
        with pytest.raises(DatasetError):
            store.apply_order_range(0, 3, np.array([2.0, 0.0, 1.0]))
        assert store.fingerprint() == fp and store.ids.tolist() == ids
        store.apply_order_range(0, 3, np.array([2, 0, 1], dtype=np.uint8))
        assert store.ids.tolist() == [ids[2], ids[0], ids[1], ids[3]]

    def test_apply_order_out_of_range_raises_before_any_write(self, store):
        fp, ids = store.fingerprint(), store.ids.tolist()
        for bad in ([0, 1, 3], [0, 1, -4]):
            with pytest.raises(IndexError):
                store.apply_order_range(1, 4, np.array(bad))
        assert store.fingerprint() == fp and store.ids.tolist() == ids
        # In range, a negative index counts from the end of the range.
        store.apply_order_range(1, 4, np.array([-1, 0, 1]))
        assert store.ids.tolist() == [ids[0], ids[3], ids[1], ids[2]]

    def test_fingerprint_permutation_invariant(self, store):
        fp = store.fingerprint()
        store.apply_order_range(0, store.n, np.array([3, 1, 0, 2]))
        assert store.fingerprint() == fp

    def test_fingerprint_detects_mutation(self, store):
        fp = store.fingerprint()
        # Simulate corruption: change one coordinate directly.
        store.lo[0, 0] = -123.0
        assert store.fingerprint() != fp
