"""Unit tests for vectorized geometric predicate kernels."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GeometryError
from repro.geometry import (
    Box,
    boxes_contained_in_window,
    boxes_intersect_window,
    centers_in_window,
    intersects,
    lower_corners_in_window,
    mbr_of,
)
from repro.geometry.predicates import batch_predicate_masks


@pytest.fixture
def sample():
    lo = np.array([[0.0, 0.0], [2.0, 2.0], [5.0, 5.0], [1.0, 4.0]])
    hi = np.array([[1.0, 1.0], [3.0, 3.0], [6.0, 6.0], [2.0, 5.0]])
    return lo, hi


class TestIntersectWindow:
    def test_basic_mask(self, sample):
        lo, hi = sample
        mask = boxes_intersect_window(lo, hi, np.array([0.5, 0.5]), np.array([2.5, 2.5]))
        assert mask.tolist() == [True, True, False, False]

    def test_touching_counts(self, sample):
        lo, hi = sample
        mask = boxes_intersect_window(lo, hi, np.array([1.0, 1.0]), np.array([2.0, 2.0]))
        assert mask[0] and mask[1]

    def test_agrees_with_scalar_box(self, sample):
        lo, hi = sample
        window = Box((0.5, 2.5), (5.5, 5.5))
        mask = boxes_intersect_window(
            lo, hi, np.asarray(window.lo), np.asarray(window.hi)
        )
        for i in range(lo.shape[0]):
            assert mask[i] == Box(tuple(lo[i]), tuple(hi[i])).intersects(window)

    def test_bad_window_shape(self, sample):
        lo, hi = sample
        with pytest.raises(GeometryError):
            boxes_intersect_window(lo, hi, np.zeros(3), np.ones(3))

    def test_empty_batch(self):
        lo = np.empty((0, 2))
        mask = boxes_intersect_window(lo, lo, np.zeros(2), np.ones(2))
        assert mask.shape == (0,)


class TestBatchMasks:
    """``batch_predicate_masks`` against per-window closed-box rules,
    with windows that only touch the boxes' faces."""

    #: Window edges on, just inside and just outside the sample's faces.
    WINDOWS = (
        np.array([[1.0, 1.0], [3.0, 3.0], [2.0, 2.0], [0.0, 0.0], [6.0, 5.0]]),
        np.array([[2.0, 2.0], [5.0, 5.0], [3.0, 3.0], [1.0, 1.0], [7.0, 6.0]]),
    )
    RULES = {
        "intersects": lambda lo, hi, a, b: np.all(lo <= b, 1) & np.all(hi >= a, 1),
        "within": lambda lo, hi, a, b: np.all(lo >= a, 1) & np.all(hi <= b, 1),
        "contains": lambda lo, hi, a, b: np.all(lo <= a, 1) & np.all(hi >= b, 1),
    }

    @pytest.mark.parametrize("predicate", sorted(RULES))
    def test_touching_faces_follow_the_closed_rule(self, sample, predicate):
        lo, hi = sample
        wlo, whi = self.WINDOWS
        masks = batch_predicate_masks(predicate, lo, hi, wlo, whi)
        rule = self.RULES[predicate]
        expect = np.array([rule(lo, hi, a, b) for a, b in zip(wlo, whi)])
        assert np.array_equal(masks, expect)
        assert masks.any() and not masks.all()


class TestContainment:
    def test_contained(self, sample):
        lo, hi = sample
        mask = boxes_contained_in_window(lo, hi, np.array([0.0, 0.0]), np.array([3.0, 3.0]))
        assert mask.tolist() == [True, True, False, False]

    def test_exact_fit_contained(self):
        lo = np.array([[1.0, 1.0]])
        hi = np.array([[2.0, 2.0]])
        assert boxes_contained_in_window(lo, hi, np.array([1.0, 1.0]), np.array([2.0, 2.0]))[0]


class TestRepresentativePoints:
    def test_lower_corner_mask(self, sample):
        lo, hi = sample
        mask = lower_corners_in_window(lo, np.array([0.0, 0.0]), np.array([2.0, 4.0]))
        assert mask.tolist() == [True, True, False, True]

    def test_centers_mask(self, sample):
        lo, hi = sample
        # Centers: (0.5,0.5), (2.5,2.5), (5.5,5.5), (1.5,4.5)
        mask = centers_in_window(lo, hi, np.array([1.0, 1.0]), np.array([3.0, 5.0]))
        assert mask.tolist() == [False, True, False, True]

    def test_lower_corner_is_subset_of_intersection(self, sample):
        lo, hi = sample
        qlo, qhi = np.array([0.5, 0.5]), np.array([5.5, 5.5])
        corners = lower_corners_in_window(lo, qlo, qhi)
        inter = boxes_intersect_window(lo, hi, qlo, qhi)
        assert np.all(~corners | inter), "corner-in implies intersecting"


class TestScalarHelpers:
    def test_intersects_scalar(self):
        assert intersects([0, 0], [1, 1], [1, 1], [2, 2])
        assert not intersects([0, 0], [1, 1], [1.1, 0], [2, 1])

    def test_mbr_of(self, sample):
        lo, hi = sample
        m = mbr_of(lo, hi)
        assert m == Box((0.0, 0.0), (6.0, 6.0))

    def test_mbr_of_empty_raises(self):
        with pytest.raises(GeometryError):
            mbr_of(np.empty((0, 2)), np.empty((0, 2)))
