"""Unit tests for vectorized geometric predicate kernels."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GeometryError
from repro.geometry import (
    Box,
    boxes_contained_in_window,
    boxes_intersect_window,
    predicate_mask,
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

    def test_agrees_with_per_interval_rule(self, sample):
        lo, hi = sample
        window = Box((0.5, 2.5), (5.5, 5.5))
        mask = boxes_intersect_window(
            lo, hi, np.asarray(window.lo), np.asarray(window.hi)
        )
        for i in range(lo.shape[0]):
            overlap = all(
                lo[i, k] <= window.hi[k] and window.lo[k] <= hi[i, k]
                for k in range(lo.shape[1])
            )
            assert mask[i] == overlap

    @pytest.mark.parametrize("dim", [0, 1])
    @pytest.mark.parametrize("face", ["lower", "upper"])
    def test_one_touching_face_suffices_and_a_hair_off_misses(self, face, dim):
        lo, hi = np.array([[2.0, 3.0]]), np.array([[4.0, 5.0]])
        wlo, whi = lo[0] - 10.0, hi[0] + 10.0
        if face == "lower":  # the window ends on the box's lower face
            whi[dim] = lo[0, dim]
            nudge = (wlo, whi.copy())
            nudge[1][dim] = np.nextafter(lo[0, dim], -np.inf)
        else:  # the window starts on the box's upper face
            wlo[dim] = hi[0, dim]
            nudge = (wlo.copy(), whi)
            nudge[0][dim] = np.nextafter(hi[0, dim], np.inf)
        assert boxes_intersect_window(lo, hi, wlo, whi).tolist() == [True]
        assert boxes_intersect_window(lo, hi, *nudge).tolist() == [False]

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


class TestPredicateMask:
    def test_unknown_predicate_raises(self, sample):
        lo, hi = sample
        with pytest.raises(GeometryError, match="unknown predicate"):
            predicate_mask("overlaps", lo, hi, np.zeros(2), np.ones(2))

    def test_covers_point_holds_on_the_boundary(self, sample):
        lo, hi = sample
        point = np.array([1.0, 1.0])
        mask = predicate_mask("covers_point", lo, hi, point, point)
        assert mask.tolist() == [True, False, False, False]

    @pytest.mark.parametrize("predicate", ["intersects", "within", "contains"])
    def test_per_row_windows_match_one_window(self, sample, predicate):
        lo, hi = sample
        wlo, whi = np.array([0.5, 0.5]), np.array([5.5, 5.5])
        rows = lo.shape[0]
        per_row = predicate_mask(
            predicate, lo, hi, np.tile(wlo, (rows, 1)), np.tile(whi, (rows, 1))
        )
        assert np.array_equal(per_row, predicate_mask(predicate, lo, hi, wlo, whi))
