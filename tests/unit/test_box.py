"""Unit tests for the Box value type."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GeometryError
from repro.geometry import Box, predicate_mask


class TestConstruction:
    def test_basic_fields(self):
        b = Box((0.0, 1.0), (2.0, 3.0))
        assert b.lo == (0.0, 1.0)
        assert b.hi == (2.0, 3.0)
        assert b.ndim == 2

    def test_coordinates_coerced_to_float(self):
        b = Box((0, 1), (2, 3))
        assert isinstance(b.lo[0], float)
        assert b.hi == (2.0, 3.0)

    def test_rejects_inverted_corners(self):
        with pytest.raises(GeometryError, match="dimension 1"):
            Box((0.0, 5.0), (1.0, 4.0))

    def test_rejects_dim_mismatch(self):
        with pytest.raises(GeometryError, match="mismatch"):
            Box((0.0,), (1.0, 2.0))

    def test_rejects_zero_dims(self):
        with pytest.raises(GeometryError, match="at least one"):
            Box((), ())

    def test_rejects_nan(self):
        with pytest.raises(GeometryError, match="NaN"):
            Box((float("nan"),), (1.0,))

    def test_degenerate_box_allowed(self):
        b = Box((1.0, 2.0), (1.0, 2.0))
        assert b.sides == (0.0, 0.0)
        assert b.volume == 0.0

    def test_unit(self):
        b = Box.unit(3)
        assert b.lo == (0.0, 0.0, 0.0)
        assert b.volume == 1.0

    def test_immutable(self):
        b = Box.unit(2)
        with pytest.raises(AttributeError):
            b.lo = (1.0, 1.0)


class TestMeasures:
    def test_sides_and_volume(self):
        b = Box((0.0, 0.0, 0.0), (1.0, 2.0, 3.0))
        assert b.sides == (1.0, 2.0, 3.0)
        assert b.volume == 6.0

    def test_center(self):
        assert Box((0.0, 2.0), (4.0, 4.0)).center == (2.0, 3.0)

    def test_iter_yields_corners(self):
        lo, hi = Box((0.0,), (1.0,))
        assert lo == (0.0,) and hi == (1.0,)


def _holds(predicate: str, box: Box, window: Box) -> bool:
    """``predicate`` for one box, through the bulk kernel every index uses."""
    lo, hi = np.array([box.lo]), np.array([box.hi])
    return bool(predicate_mask(predicate, lo, hi, window.lo, window.hi)[0])


class TestPredicates:
    """Boxes are closed: the predicate kernels count face, edge and
    corner contact."""

    def test_disjoint(self):
        a = Box((0.0, 0.0), (1.0, 1.0))
        b = Box((2.0, 2.0), (3.0, 3.0))
        assert not _holds("intersects", a, b)
        assert not _holds("intersects", b, a)

    def test_overlapping(self):
        a = Box((0.0, 0.0), (2.0, 2.0))
        b = Box((1.0, 1.0), (3.0, 3.0))
        assert _holds("intersects", a, b) and _holds("intersects", b, a)

    def test_touching_faces_intersect(self):
        a = Box((0.0, 0.0), (1.0, 1.0))
        b = Box((1.0, 0.0), (2.0, 1.0))
        assert _holds("intersects", a, b), "closed boxes sharing a face must intersect"

    def test_touching_corner_intersects(self):
        a = Box((0.0, 0.0), (1.0, 1.0))
        b = Box((1.0, 1.0), (2.0, 2.0))
        assert _holds("intersects", a, b)

    def test_containment_implies_intersection(self):
        outer = Box((0.0, 0.0), (10.0, 10.0))
        inner = Box((2.0, 2.0), (3.0, 3.0))
        assert _holds("contains", outer, inner)
        assert _holds("within", inner, outer)
        assert _holds("intersects", outer, inner)
        assert not _holds("contains", inner, outer)

    def test_exact_fit_is_both_within_and_contains(self):
        b = Box((1.0, 1.0), (2.0, 2.0))
        assert _holds("within", b, b) and _holds("contains", b, b)

    def test_contains_point_boundary(self):
        b = Box((0.0, 0.0), (1.0, 1.0))
        assert _holds("covers_point", b, Box((0.0, 1.0), (0.0, 1.0)))
        assert not _holds("covers_point", b, Box((1.0, 1.5), (1.0, 1.5)))

    def test_contains_point_dim_mismatch(self):
        with pytest.raises(GeometryError):
            _holds("covers_point", Box.unit(2), Box((0.5,), (0.5,)))

    def test_intersects_dim_mismatch(self):
        with pytest.raises(GeometryError):
            _holds("intersects", Box.unit(2), Box.unit(3))
